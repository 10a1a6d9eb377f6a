package lp

import (
	"math/rand"
	"testing"
)

// assignmentLP builds a jobs×machines assignment relaxation, the LP shape
// the placement pipeline solves most often.
func assignmentLP(b *testing.B, jobs, machines int, seed int64) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(jobs * machines)
	obj := make([]float64, jobs*machines)
	for i := range obj {
		obj[i] = rng.Float64() * 10
	}
	if err := setObjective(p, obj); err != nil {
		b.Fatal(err)
	}
	ones := make([]float64, machines)
	idx := make([]int, machines)
	for i := range ones {
		ones[i] = 1
	}
	for j := 0; j < jobs; j++ {
		for m := 0; m < machines; m++ {
			idx[m] = j*machines + m
		}
		if err := p.AddConstraint(idx, ones, EQ, 1); err != nil {
			b.Fatal(err)
		}
	}
	jidx := make([]int, jobs)
	jones := make([]float64, jobs)
	for j := range jones {
		jones[j] = 1
	}
	for m := 0; m < machines; m++ {
		for j := 0; j < jobs; j++ {
			jidx[j] = j*machines + m
		}
		if err := p.AddConstraint(jidx, jones, LE, float64(jobs)/float64(machines)*1.3); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

func BenchmarkSolveAssignment25x50(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := assignmentLP(b, 25, 50, int64(i))
		b.StartTimer()
		if _, err := p.Solve(Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveAssignment144x50(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := assignmentLP(b, 144, 50, int64(i))
		b.StartTimer()
		if _, err := p.Solve(Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// strategyLP builds an instance shaped like the §4.2 access-strategy LP
// for nc clients and m quorums over nNodes sites: one convexity row per
// client and one capacity row per node, whose columns couple every
// client's variables for the quorums touching that node.
func strategyLP(b *testing.B, nc, m, nNodes int, seed int64) (*Problem, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Quorum i touches a random handful of nodes with small multiplicities.
	touch := make([][]int, m)
	for i := range touch {
		k := 2 + rng.Intn(4)
		seen := map[int]bool{}
		for len(touch[i]) < k {
			w := rng.Intn(nNodes)
			if !seen[w] {
				seen[w] = true
				touch[i] = append(touch[i], w)
			}
		}
	}
	p := NewProblem(nc * m)
	for k := 0; k < nc; k++ {
		for i := 0; i < m; i++ {
			if err := p.SetObjectiveCoeff(k*m+i, 10+rng.Float64()*200); err != nil {
				b.Fatal(err)
			}
		}
	}
	idx := make([]int, m)
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	for k := 0; k < nc; k++ {
		for i := 0; i < m; i++ {
			idx[i] = k*m + i
		}
		if err := p.AddConstraint(idx, ones, EQ, 1); err != nil {
			b.Fatal(err)
		}
	}
	capRows := make([]int, 0, nNodes)
	for w := 0; w < nNodes; w++ {
		var cidx []int
		var ccoef []float64
		for i := 0; i < m; i++ {
			hit := false
			for _, tw := range touch[i] {
				if tw == w {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for k := 0; k < nc; k++ {
				cidx = append(cidx, k*m+i)
				ccoef = append(ccoef, 1)
			}
		}
		if len(cidx) == 0 {
			continue
		}
		if err := p.AddConstraint(cidx, ccoef, LE, float64(nc)); err != nil {
			b.Fatal(err)
		}
		capRows = append(capRows, p.NumConstraints()-1)
	}
	return p, capRows
}

// BenchmarkSolveStrategyShaped measures a cold solve of a strategy-LP
// instance (the per-sweep-point work before warm starts), with
// allocation reporting so kernel regressions show up here rather than
// only in the end-to-end figure harness.
func BenchmarkSolveStrategyShaped(b *testing.B) {
	p, _ := strategyLP(b, 40, 25, 30, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveStrategyShapedPartialPricing is the same instance under
// the fast entering rule.
func BenchmarkSolveStrategyShapedPartialPricing(b *testing.B) {
	p, _ := strategyLP(b, 40, 25, 30, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(Options{Pricing: PricingPartial}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmStrategyShaped measures the capacity-sweep inner
// loop: mutate the capacity right-hand sides, warm-start from the
// previous basis. This is the allocation-free hot path.
func BenchmarkSolveWarmStrategyShaped(b *testing.B) {
	p, capRows := strategyLP(b, 40, 25, 30, 1)
	opts := Options{Pricing: PricingPartial}
	sol, err := p.Solve(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale := 0.9 + 0.2*rng.Float64()
		for _, r := range capRows {
			if err := p.SetRHS(r, 40*scale); err != nil {
				b.Fatal(err)
			}
		}
		sol, err = p.Solve(opts, sol.Basis)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTightenResolve measures the capacity-tightening re-solve both
// ways: a cold two-phase solve of the tightened instance versus a
// dual-simplex warm repair of the loose optimum's basis. The warm path is
// what Planner capacity sweeps run when stepping capacities downward; the
// acceptance bar is that it beats the cold solve.
func BenchmarkTightenResolve(b *testing.B) {
	const loose = 40.0
	setCaps := func(p *Problem, capRows []int, rhs float64) {
		for _, r := range capRows {
			if err := p.SetRHS(r, rhs); err != nil {
				b.Fatal(err)
			}
		}
	}
	opts := Options{Pricing: PricingPartial}

	// Probe for a tightening level that actually violates the loose
	// optimum's basis (small steps can be absorbed by slack and take the
	// warm-primal path, which BenchmarkSolveWarmStrategyShaped covers).
	probe, capRows := strategyLP(b, 40, 25, 30, 1)
	looseSol, err := probe.Solve(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	tight := loose
	for {
		tight *= 0.92
		setCaps(probe, capRows, tight)
		check, err := probe.Solve(opts, looseSol.Basis)
		if err != nil {
			b.Fatalf("hit %v at rhs %v before any tightening step needed dual repair", err, tight)
		}
		if check.Method == MethodWarmDual {
			break
		}
	}

	b.Run("cold", func(b *testing.B) {
		p, rows := strategyLP(b, 40, 25, 30, 1)
		setCaps(p, rows, tight)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Solve(opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-dual", func(b *testing.B) {
		p, rows := strategyLP(b, 40, 25, 30, 1)
		sol, err := p.Solve(opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		setCaps(p, rows, tight)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Solve(opts, sol.Basis); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveGAPShaped measures the many-to-one placement's LP
// relaxation shape (jobs × machines assignment with capacities), cold,
// with allocation reporting.
func BenchmarkSolveGAPShaped(b *testing.B) {
	p := assignmentLP(b, 25, 50, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
