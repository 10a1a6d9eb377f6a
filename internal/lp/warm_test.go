package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// warmTestInstance describes a randomized assignment-with-capacities LP
// that can be rebuilt identically (for an independent cold reference
// solve) and re-solved under perturbed capacity right-hand sides.
type warmTestInstance struct {
	jobs, machines int
	obj            []float64
	capRHS         []float64 // capacity row rhs, mutated between solves
}

func newWarmTestInstance(rng *rand.Rand, jobs, machines int) *warmTestInstance {
	ins := &warmTestInstance{
		jobs:     jobs,
		machines: machines,
		obj:      make([]float64, jobs*machines),
		capRHS:   make([]float64, machines),
	}
	for i := range ins.obj {
		ins.obj[i] = rng.Float64() * 10
	}
	for w := range ins.capRHS {
		// Loose enough to start feasible: total demand is `jobs`.
		ins.capRHS[w] = float64(ins.jobs) / float64(ins.machines) * (1.2 + rng.Float64())
	}
	return ins
}

// build assembles a fresh Problem: one convexity row per job, one
// capacity row per machine.
func (ins *warmTestInstance) build(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem(ins.jobs * ins.machines)
	if err := setObjective(p, ins.obj); err != nil {
		t.Fatal(err)
	}
	idx := make([]int, ins.machines)
	ones := make([]float64, ins.machines)
	for m := range ones {
		ones[m] = 1
	}
	for j := 0; j < ins.jobs; j++ {
		for m := 0; m < ins.machines; m++ {
			idx[m] = j*ins.machines + m
		}
		if err := p.AddConstraint(idx, ones, EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	jidx := make([]int, ins.jobs)
	jones := make([]float64, ins.jobs)
	for j := range jones {
		jones[j] = 1
	}
	for m := 0; m < ins.machines; m++ {
		for j := 0; j < ins.jobs; j++ {
			jidx[j] = j*ins.machines + m
		}
		if err := p.AddConstraint(jidx, jones, LE, ins.capRHS[m]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// checkFeasible verifies x against the instance's constraints.
func (ins *warmTestInstance) checkFeasible(t *testing.T, x []float64) {
	t.Helper()
	const tol = 1e-6
	for _, v := range x {
		if v < -tol {
			t.Fatalf("negative variable %v", v)
		}
	}
	for j := 0; j < ins.jobs; j++ {
		sum := 0.0
		for m := 0; m < ins.machines; m++ {
			sum += x[j*ins.machines+m]
		}
		if math.Abs(sum-1) > tol {
			t.Fatalf("job %d convexity row sums to %v", j, sum)
		}
	}
	for m := 0; m < ins.machines; m++ {
		sum := 0.0
		for j := 0; j < ins.jobs; j++ {
			sum += x[j*ins.machines+m]
		}
		if sum > ins.capRHS[m]+tol {
			t.Fatalf("machine %d load %v exceeds capacity %v", m, sum, ins.capRHS[m])
		}
	}
}

func (ins *warmTestInstance) objective(x []float64) float64 {
	sum := 0.0
	for i, v := range x {
		sum += ins.obj[i] * v
	}
	return sum
}

// TestSolveFromBasisMatchesColdAcrossRHSPerturbations is the core warm-start
// property: across chains of randomized capacity perturbations, a
// warm-started re-solve must agree with an independent cold solve on
// feasibility and optimal objective (the vertices may differ on
// degenerate instances — both are optimal).
func TestSolveFromBasisMatchesColdAcrossRHSPerturbations(t *testing.T) {
	for _, pricing := range []Pricing{PricingDantzig, PricingPartial} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			ins := newWarmTestInstance(rng, 6+rng.Intn(6), 4+rng.Intn(4))
			warm := ins.build(t)
			opts := Options{Pricing: pricing}
			sol, err := warm.Solve(opts, nil)
			if err != nil {
				t.Fatalf("pricing %v trial %d: initial solve: %v", pricing, trial, err)
			}
			basis := sol.Basis
			for step := 0; step < 8; step++ {
				// Perturb capacities, occasionally hard enough to make the
				// problem infeasible.
				for m := range ins.capRHS {
					f := 0.5 + rng.Float64()
					if rng.Intn(12) == 0 {
						f = 0.05
					}
					ins.capRHS[m] = float64(ins.jobs) / float64(ins.machines) * f
					if err := warm.SetRHS(ins.jobs+m, ins.capRHS[m]); err != nil {
						t.Fatal(err)
					}
				}
				warmSol, warmErr := warm.Solve(opts, basis)
				coldSol, coldErr := ins.build(t).Solve(Options{}, nil)
				if coldErr != nil {
					if !errors.Is(coldErr, ErrInfeasible) {
						t.Fatalf("pricing %v trial %d step %d: cold: %v", pricing, trial, step, coldErr)
					}
					if !errors.Is(warmErr, ErrInfeasible) {
						t.Fatalf("pricing %v trial %d step %d: cold infeasible but warm: %v",
							pricing, trial, step, warmErr)
					}
					continue // basis kept; next perturbation may be feasible again
				}
				if warmErr != nil {
					t.Fatalf("pricing %v trial %d step %d: warm: %v (cold solved fine)",
						pricing, trial, step, warmErr)
				}
				ins.checkFeasible(t, warmSol.X)
				if diff := math.Abs(warmSol.Objective - coldSol.Objective); diff > 1e-6 {
					t.Fatalf("pricing %v trial %d step %d: warm objective %v vs cold %v (diff %v)",
						pricing, trial, step, warmSol.Objective, coldSol.Objective, diff)
				}
				if got := ins.objective(warmSol.X); math.Abs(got-warmSol.Objective) > 1e-6 {
					t.Fatalf("reported objective %v does not match solution %v", warmSol.Objective, got)
				}
				basis = warmSol.Basis
			}
		}
	}
}

// TestSolveNilBasisIsCold: a nil basis runs the cold two-phase solve
// even on a Problem whose workspace holds an earlier solve's basis and
// pivot counters: Method is MethodCold, and the solution, down to the
// pivot count, is that of a fresh Problem.
func TestSolveNilBasisIsCold(t *testing.T) {
	for _, pricing := range []Pricing{PricingDantzig, PricingPartial} {
		opts := Options{Pricing: pricing}
		rng := rand.New(rand.NewSource(3))
		ins := newWarmTestInstance(rng, 5, 4)
		reused := ins.build(t)
		if _, err := reused.Solve(opts, nil); err != nil {
			t.Fatal(err)
		}
		a, err := reused.Solve(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ins.build(t).Solve(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Method != MethodCold || b.Method != MethodCold {
			t.Fatalf("pricing %v: methods %q, %q, want %q", pricing, a.Method, b.Method, MethodCold)
		}
		if a.Objective != b.Objective || a.Iterations != b.Iterations {
			t.Fatalf("pricing %v: nil-basis re-solve objective %v in %d pivots, fresh cold %v in %d",
				pricing, a.Objective, a.Iterations, b.Objective, b.Iterations)
		}
		for i := range a.X {
			if a.X[i] != b.X[i] {
				t.Fatalf("pricing %v: x[%d]: %v != %v", pricing, i, a.X[i], b.X[i])
			}
		}
	}
}

// TestSolveBogusBasisFallsBack: malformed bases (wrong length,
// duplicates, out-of-range or artificial indices) must fall back to a
// correct cold solve rather than fail.
func TestSolveBogusBasisFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ins := newWarmTestInstance(rng, 5, 4)
	want, err := ins.build(t).Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nRows := ins.jobs + ins.machines
	bogus := []Basis{
		{},                 // wrong length
		make(Basis, nRows), // all zeros: duplicates
		func() Basis { // out of range
			b := append(Basis(nil), want.Basis...)
			b[0] = -1
			return b
		}(),
		func() Basis { // far out of range (artificial territory)
			b := append(Basis(nil), want.Basis...)
			b[0] = 1 << 20
			return b
		}(),
	}
	for i, basis := range bogus {
		sol, err := ins.build(t).Solve(Options{}, basis)
		if err != nil {
			t.Fatalf("bogus basis %d: %v", i, err)
		}
		if math.Abs(sol.Objective-want.Objective) > 1e-6 {
			t.Fatalf("bogus basis %d: objective %v, want %v", i, sol.Objective, want.Objective)
		}
		ins.checkFeasible(t, sol.X)
	}
}

// TestSolveAfterStructuralChange: adding a row after capturing a
// basis invalidates the workspace; Solve from that basis must still return correct
// results via the cold fallback.
func TestSolveAfterStructuralChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := newWarmTestInstance(rng, 5, 4)
	p := ins.build(t)
	sol, err := p.Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pin one variable to zero; the old basis no longer matches the row
	// count and must be rejected.
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, 0); err != nil {
		t.Fatal(err)
	}
	warm, err := p.Solve(Options{}, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.X[0] > 1e-9 {
		t.Fatalf("x[0] = %v, want 0 after pinning", warm.X[0])
	}
}

// TestSetRHSValidation covers SetRHS's error and sign-flip paths.
func TestSetRHSValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRHS(-1, 0); err == nil {
		t.Error("SetRHS(-1) succeeded")
	}
	if err := p.SetRHS(1, 0); err == nil {
		t.Error("SetRHS out of range succeeded")
	}
	if err := p.SetRHS(0, math.NaN()); err == nil {
		t.Error("SetRHS(NaN) succeeded")
	}
	if err := p.SetRHS(0, math.Inf(1)); err == nil {
		t.Error("SetRHS(+Inf) succeeded")
	}
	if got := p.rows[0].rhs; got != 1 {
		t.Errorf("RHS = %v, want 1", got)
	}
	if _, err := p.Solve(Options{}, nil); err != nil {
		t.Fatal(err)
	}
	// Sign flip forces a workspace rebuild; x ≥ 0 satisfies Σx ≥ -1
	// trivially, so the optimum of min x0+x1 drops to 0.
	if err := setObjective(p, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRHS(0, -1); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > 1e-9 {
		t.Errorf("objective %v after sign flip, want 0", sol.Objective)
	}
}

// TestRHSOnlyResolveReusesWorkspace: re-solving after SetRHS must give
// the same answer as building the problem from scratch (this is the
// skeleton-reuse path capacity sweeps rely on), for both cold and warm
// re-solves.
func TestRHSOnlyResolveReusesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		ins := newWarmTestInstance(rng, 6, 5)
		reused := ins.build(t)
		if _, err := reused.Solve(Options{}, nil); err != nil {
			t.Fatal(err)
		}
		for m := range ins.capRHS {
			ins.capRHS[m] *= 0.9 + 0.4*rng.Float64()
			if err := reused.SetRHS(ins.jobs+m, ins.capRHS[m]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := reused.Solve(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ins.build(t).Solve(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: reused workspace objective %v, fresh build %v", trial, got.Objective, want.Objective)
		}
		for i := range got.X {
			if math.Abs(got.X[i]-want.X[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] %v != %v", trial, i, got.X[i], want.X[i])
			}
		}
	}
}
