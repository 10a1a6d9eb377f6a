package gap

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quorumnet/quorumnet/internal/lp"
)

func uniformCosts(nj, nm int, fn func(u, w int) float64) [][]float64 {
	out := make([][]float64, nj)
	for u := range out {
		out[u] = make([]float64, nm)
		for w := range out[u] {
			out[u][w] = fn(u, w)
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	ok := &Instance{
		Sizes:      []float64{1, 1},
		Capacities: []float64{2, 2},
		Cost:       uniformCosts(2, 2, func(u, w int) float64 { return 1 }),
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	tests := []struct {
		name string
		ins  Instance
	}{
		{name: "empty", ins: Instance{}},
		{name: "cost rows", ins: Instance{Sizes: []float64{1}, Capacities: []float64{1}, Cost: nil}},
		{name: "negative size", ins: Instance{Sizes: []float64{-1}, Capacities: []float64{1}, Cost: uniformCosts(1, 1, func(u, w int) float64 { return 1 })}},
		{name: "nan cost", ins: Instance{Sizes: []float64{1}, Capacities: []float64{1}, Cost: [][]float64{{math.NaN()}}}},
		{name: "negative capacity", ins: Instance{Sizes: []float64{1}, Capacities: []float64{-2}, Cost: uniformCosts(1, 1, func(u, w int) float64 { return 1 })}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ins.Validate(); err == nil {
				t.Error("Validate succeeded, want error")
			}
		})
	}
}

func TestSolveLPTrivial(t *testing.T) {
	// Two jobs, two machines, capacities force the split.
	ins := &Instance{
		Sizes:      []float64{1, 1},
		Capacities: []float64{1, 1},
		Cost: [][]float64{
			{0, 10},
			{0, 10},
		},
	}
	x, err := SolveLPWith(ins, lp.Options{})
	if err != nil {
		t.Fatalf("SolveLPWith: %v", err)
	}
	// Each job fully assigned; machine 0 can hold only one.
	load0 := x[0][0] + x[1][0]
	if load0 > 1+1e-6 {
		t.Errorf("machine 0 fractional load = %v > 1", load0)
	}
	for u := 0; u < 2; u++ {
		sum := x[u][0] + x[u][1]
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("job %d total fraction = %v, want 1", u, sum)
		}
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	ins := &Instance{
		Sizes:      []float64{1, 1, 1},
		Capacities: []float64{1, 1}, // total capacity 2 < 3
		Cost:       uniformCosts(3, 2, func(u, w int) float64 { return 1 }),
	}
	if _, err := SolveLPWith(ins, lp.Options{}); !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveLPForbiddenPairs(t *testing.T) {
	inf := math.Inf(1)
	ins := &Instance{
		Sizes:      []float64{1},
		Capacities: []float64{5, 5},
		Cost:       [][]float64{{inf, 3}},
	}
	x, err := SolveLPWith(ins, lp.Options{})
	if err != nil {
		t.Fatalf("SolveLPWith: %v", err)
	}
	if x[0][0] != 0 {
		t.Errorf("forbidden pair got mass %v", x[0][0])
	}
	if math.Abs(x[0][1]-1) > 1e-6 {
		t.Errorf("x[0][1] = %v, want 1", x[0][1])
	}
}

func TestSolveLPAllForbidden(t *testing.T) {
	inf := math.Inf(1)
	ins := &Instance{
		Sizes:      []float64{1},
		Capacities: []float64{5},
		Cost:       [][]float64{{inf}},
	}
	if _, err := SolveLPWith(ins, lp.Options{}); !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestFilterDropsExpensive(t *testing.T) {
	ins := &Instance{
		Sizes:      []float64{1},
		Capacities: []float64{1, 1, 1},
		Cost:       [][]float64{{1, 1, 100}},
	}
	x := Fractional{{0.45, 0.45, 0.1}}
	// C_u = 0.45 + 0.45 + 10 = 10.9; limit with eps=1 is 21.8 < 100.
	out, err := Filter(ins, x, 1)
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if out[0][2] != 0 {
		t.Errorf("expensive assignment survived: %v", out[0][2])
	}
	if math.Abs(out[0][0]+out[0][1]-1) > 1e-9 {
		t.Errorf("renormalization failed: %v", out[0])
	}
}

func TestFilterZeroCost(t *testing.T) {
	// All support at cost 0: filtering must keep everything.
	ins := &Instance{
		Sizes:      []float64{1},
		Capacities: []float64{1, 1},
		Cost:       [][]float64{{0, 0}},
	}
	x := Fractional{{0.5, 0.5}}
	out, err := Filter(ins, x, 1)
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if math.Abs(out[0][0]-0.5) > 1e-9 || math.Abs(out[0][1]-0.5) > 1e-9 {
		t.Errorf("Filter changed zero-cost solution: %v", out[0])
	}
}

func TestFilterBadEps(t *testing.T) {
	ins := &Instance{Sizes: []float64{1}, Capacities: []float64{1}, Cost: [][]float64{{1}}}
	if _, err := Filter(ins, Fractional{{1}}, 0); err == nil {
		t.Error("Filter with eps=0 succeeded")
	}
}

func TestRoundIntegralInput(t *testing.T) {
	// Already-integral fractional solution must round to itself.
	ins := &Instance{
		Sizes:      []float64{1, 1},
		Capacities: []float64{1, 1},
		Cost:       uniformCosts(2, 2, func(u, w int) float64 { return float64(u + w) }),
	}
	x := Fractional{{1, 0}, {0, 1}}
	assign, err := RoundWith(ins, x, lp.Options{})
	if err != nil {
		t.Fatalf("RoundWith: %v", err)
	}
	if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assign = %v, want [0 1]", assign)
	}
}

func TestRoundSplitJob(t *testing.T) {
	// One job split across two machines must end on exactly one.
	ins := &Instance{
		Sizes:      []float64{1},
		Capacities: []float64{1, 1},
		Cost:       [][]float64{{2, 2}},
	}
	x := Fractional{{0.5, 0.5}}
	assign, err := RoundWith(ins, x, lp.Options{})
	if err != nil {
		t.Fatalf("RoundWith: %v", err)
	}
	if assign[0] != 0 && assign[0] != 1 {
		t.Errorf("assign = %v", assign)
	}
}

func TestSolvePipelineSmall(t *testing.T) {
	// 4 jobs, 2 machines; optimum is checkable: capacities 2 and 2 force
	// a 2/2 split; cheapest split puts jobs {0,1} on machine 0.
	ins := &Instance{
		Sizes:      []float64{1, 1, 1, 1},
		Capacities: []float64{2, 2},
		Cost: [][]float64{
			{1, 5},
			{1, 5},
			{5, 1},
			{5, 1},
		},
	}
	a, err := SolveWith(ins, 1, lp.Options{})
	if err != nil {
		t.Fatalf("SolveWith: %v", err)
	}
	if a.MachineOf[0] != 0 || a.MachineOf[1] != 0 || a.MachineOf[2] != 1 || a.MachineOf[3] != 1 {
		t.Errorf("MachineOf = %v, want [0 0 1 1]", a.MachineOf)
	}
	if math.Abs(a.Cost-4) > 1e-9 {
		t.Errorf("Cost = %v, want 4", a.Cost)
	}
	if a.LPCost > a.Cost+1e-9 {
		t.Errorf("LP cost %v exceeds integral cost %v", a.LPCost, a.Cost)
	}
}

func TestSolveCapacityViolationBound(t *testing.T) {
	// Property (Shmoys–Tardos with Lin–Vitter eps=1): every machine load
	// is at most (1+eps)/eps × capacity + max job size = 2·cap + maxSize.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nj := 2 + rng.Intn(8)
		nm := 2 + rng.Intn(4)
		ins := &Instance{
			Sizes:      make([]float64, nj),
			Capacities: make([]float64, nm),
			Cost:       uniformCosts(nj, nm, func(u, w int) float64 { return rng.Float64() * 10 }),
		}
		maxSize := 0.0
		total := 0.0
		for u := range ins.Sizes {
			ins.Sizes[u] = 0.1 + rng.Float64()
			total += ins.Sizes[u]
			if ins.Sizes[u] > maxSize {
				maxSize = ins.Sizes[u]
			}
		}
		// Capacities sum to ~1.5× total size so the LP is feasible.
		for w := range ins.Capacities {
			ins.Capacities[w] = total * 1.5 / float64(nm) * (0.5 + rng.Float64())
		}
		a, err := SolveWith(ins, 1, lp.Options{})
		if errors.Is(err, lp.ErrInfeasible) {
			return true // capacities happened to be too tight; fine
		}
		if err != nil {
			return false
		}
		for w, load := range a.Loads {
			if load > 2*ins.Capacities[w]+maxSize+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveCostNeverBelowLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nj := 2 + rng.Intn(6)
		nm := 2 + rng.Intn(4)
		ins := &Instance{
			Sizes:      make([]float64, nj),
			Capacities: make([]float64, nm),
			Cost:       uniformCosts(nj, nm, func(u, w int) float64 { return rng.Float64() * 10 }),
		}
		for u := range ins.Sizes {
			ins.Sizes[u] = 1
		}
		for w := range ins.Capacities {
			ins.Capacities[w] = float64(nj) // generous: LP integral anyway
		}
		a, err := SolveWith(ins, 1, lp.Options{})
		if err != nil {
			return false
		}
		return a.Cost >= a.LPCost-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveAssignsEveryJob(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		nj := 5 + rng.Intn(15)
		nm := 3 + rng.Intn(5)
		ins := &Instance{
			Sizes:      make([]float64, nj),
			Capacities: make([]float64, nm),
			Cost:       uniformCosts(nj, nm, func(u, w int) float64 { return rng.Float64() * 50 }),
		}
		total := 0.0
		for u := range ins.Sizes {
			ins.Sizes[u] = 0.5 + rng.Float64()
			total += ins.Sizes[u]
		}
		for w := range ins.Capacities {
			ins.Capacities[w] = 2 * total / float64(nm)
		}
		a, err := SolveWith(ins, 1, lp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for u, w := range a.MachineOf {
			if w < 0 || w >= nm {
				t.Fatalf("trial %d: job %d assigned to %d", trial, u, w)
			}
		}
	}
}

func TestRoundRespectsSlotBound(t *testing.T) {
	// Direct check of the slot-rounding guarantee: machine load after
	// rounding <= fractional machine load + max job size.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		nj := 3 + rng.Intn(10)
		nm := 2 + rng.Intn(4)
		ins := &Instance{
			Sizes:      make([]float64, nj),
			Capacities: make([]float64, nm),
			Cost:       uniformCosts(nj, nm, func(u, w int) float64 { return rng.Float64() * 10 }),
		}
		maxSize := 0.0
		for u := range ins.Sizes {
			ins.Sizes[u] = 0.1 + rng.Float64()
			if ins.Sizes[u] > maxSize {
				maxSize = ins.Sizes[u]
			}
		}
		// Random fractional assignment with rows summing to 1.
		x := make(Fractional, nj)
		for u := range x {
			x[u] = make([]float64, nm)
			sum := 0.0
			for w := range x[u] {
				x[u][w] = rng.Float64()
				sum += x[u][w]
			}
			for w := range x[u] {
				x[u][w] /= sum
			}
		}
		assign, err := RoundWith(ins, x, lp.Options{})
		if err != nil {
			t.Fatalf("trial %d: RoundWith: %v", trial, err)
		}
		fracLoad := make([]float64, nm)
		intLoad := make([]float64, nm)
		for u := 0; u < nj; u++ {
			for w := 0; w < nm; w++ {
				fracLoad[w] += ins.Sizes[u] * x[u][w]
			}
			intLoad[assign[u]] += ins.Sizes[u]
		}
		for w := 0; w < nm; w++ {
			if intLoad[w] > fracLoad[w]+maxSize+1e-6 {
				t.Fatalf("trial %d: machine %d load %v > fractional %v + max %v",
					trial, w, intLoad[w], fracLoad[w], maxSize)
			}
		}
	}
}
