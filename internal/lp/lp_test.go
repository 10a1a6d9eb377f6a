package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// setObjective sets the objective coefficients of p from c.
func setObjective(p *Problem, c []float64) error {
	for j, v := range c {
		if err := p.SetObjectiveCoeff(j, v); err != nil {
			return err
		}
	}
	return nil
}

func mustConstraint(t *testing.T, p *Problem, idx []int, coef []float64, op Op, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(idx, coef, op, rhs); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(Options{}, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSimpleLP(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2  → x=2? No:
	// optimum is y=2, x=2 (x+y=4): objective -6.
	p := NewProblem(2)
	if err := setObjective(p, []float64{-1, -2}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, LE, 4)
	mustConstraint(t, p, []int{0}, []float64{1}, LE, 3)
	mustConstraint(t, p, []int{1}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-6)) > 1e-7 {
		t.Errorf("objective = %v, want -6", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-2) > 1e-7 {
		t.Errorf("X = %v, want [2 2]", sol.X)
	}
}

func TestEqualityLP(t *testing.T) {
	// min x + 3y s.t. x + y = 10, x <= 4  →  x=4, y=6, obj=22.
	p := NewProblem(2)
	if err := setObjective(p, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, EQ, 10)
	mustConstraint(t, p, []int{0}, []float64{1}, LE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-22) > 1e-7 {
		t.Errorf("objective = %v, want 22", sol.Objective)
	}
}

func TestGEConstraints(t *testing.T) {
	// min 2x + y s.t. x + y >= 3, x >= 1 → x=1, y=2, obj=4.
	p := NewProblem(2)
	if err := setObjective(p, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, GE, 3)
	mustConstraint(t, p, []int{0}, []float64{1}, GE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > 1e-7 {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5) → x=5.
	p := NewProblem(1)
	if err := setObjective(p, []float64{1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0}, []float64{-1}, LE, -5)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-5) > 1e-7 {
		t.Errorf("x = %v, want 5", sol.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	mustConstraint(t, p, []int{0}, []float64{1}, LE, 1)
	mustConstraint(t, p, []int{0}, []float64{1}, GE, 2)
	if _, err := p.Solve(Options{}, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x + y = 1, x + y = 2 is infeasible.
	p := NewProblem(2)
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, EQ, 1)
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, EQ, 2)
	if _, err := p.Solve(Options{}, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x s.t. x >= 1 → unbounded below.
	p := NewProblem(1)
	if err := setObjective(p, []float64{-1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0}, []float64{1}, GE, 1)
	if _, err := p.Solve(Options{}, nil); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestUnboundedNoConstraints(t *testing.T) {
	p := NewProblem(2)
	if err := setObjective(p, []float64{0, -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(Options{}, nil); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestNoConstraintsZeroCost(t *testing.T) {
	p := NewProblem(3)
	if err := setObjective(p, []float64{1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if sol.Objective != 0 {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equality rows make the basis singular without care.
	p := NewProblem(2)
	if err := setObjective(p, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, EQ, 2)
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, EQ, 2) // redundant
	mustConstraint(t, p, []int{0}, []float64{1}, GE, 0.5)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-7 {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestDuplicateIndicesSummed(t *testing.T) {
	// 2x (written as x + x) = 4 → x = 2.
	p := NewProblem(1)
	if err := setObjective(p, []float64{1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 0}, []float64{1, 1}, EQ, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-2) > 1e-7 {
		t.Errorf("x = %v, want 2", sol.X[0])
	}
}

func TestDegenerateLP(t *testing.T) {
	// Highly degenerate: many constraints active at the optimum.
	p := NewProblem(2)
	if err := setObjective(p, []float64{-1, -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, LE, 1)
	}
	mustConstraint(t, p, []int{0}, []float64{1}, LE, 1)
	mustConstraint(t, p, []int{1}, []float64{1}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-1)) > 1e-7 {
		t.Errorf("objective = %v, want -1", sol.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 sources (supply 3, 4), 3 sinks (demand 2, 2, 3); costs chosen so
	// the optimum is checkable by hand.
	// Var x[s][d] = x[s*3+d].
	cost := []float64{
		1, 5, 9, // source 0
		4, 2, 3, // source 1
	}
	p := NewProblem(6)
	if err := setObjective(p, cost); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1, 2}, []float64{1, 1, 1}, LE, 3)
	mustConstraint(t, p, []int{3, 4, 5}, []float64{1, 1, 1}, LE, 4)
	mustConstraint(t, p, []int{0, 3}, []float64{1, 1}, EQ, 2)
	mustConstraint(t, p, []int{1, 4}, []float64{1, 1}, EQ, 2)
	mustConstraint(t, p, []int{2, 5}, []float64{1, 1}, EQ, 3)
	sol := solveOK(t, p)
	// Optimal: x00=2 (cost 2), x22=3 from source 1 (cost 9), and demand 1
	// split x11=1 (2) + x01=1 (5) because source 1's supply of 4 is
	// exhausted → total 18.
	if math.Abs(sol.Objective-18) > 1e-7 {
		t.Errorf("objective = %v, want 18", sol.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjectiveCoeff(5, 1); err == nil {
		t.Error("SetObjectiveCoeff out of range succeeded")
	}
	if err := p.AddConstraint([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Error("AddConstraint with mismatched lengths succeeded")
	}
	if err := p.AddConstraint([]int{7}, []float64{1}, LE, 1); err == nil {
		t.Error("AddConstraint with bad index succeeded")
	}
	if err := p.AddConstraint([]int{0}, []float64{math.NaN()}, LE, 1); err == nil {
		t.Error("AddConstraint with NaN coefficient succeeded")
	}
	if err := p.AddConstraint([]int{0}, []float64{1}, Op(9), 1); err == nil {
		t.Error("AddConstraint with bad op succeeded")
	}
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, math.Inf(1)); err == nil {
		t.Error("AddConstraint with Inf rhs succeeded")
	}
}

// TestRandomLPsAgainstBruteForce solves small random LPs and compares with
// brute-force vertex enumeration (all basis subsets of the constraint set
// in standard equality form would be complex; instead we check (a) the
// solution is feasible and (b) no vertex from enumerating constraint
// intersections beats it).
func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nv := 2 + rng.Intn(2) // 2 or 3 vars
		nc := 2 + rng.Intn(4)
		p := NewProblem(nv)
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = math.Round((rng.Float64()*4-1)*8) / 8 // mostly positive costs
		}
		if err := setObjective(p, obj); err != nil {
			t.Fatal(err)
		}
		var rows []testRow
		for i := 0; i < nc; i++ {
			a := make([]float64, nv)
			idx := make([]int, nv)
			for j := range a {
				idx[j] = j
				a[j] = math.Round((rng.Float64()*2-0.5)*8) / 8
			}
			op := LE
			if rng.Intn(3) == 0 {
				op = GE
			}
			rhs := math.Round(rng.Float64()*10*8) / 8
			rows = append(rows, testRow{a: a, op: op, rhs: rhs})
			mustConstraint(t, p, idx, a, op, rhs)
		}
		// Keep the region bounded so minima exist.
		box := make([]float64, nv)
		idx := make([]int, nv)
		for j := range box {
			box[j] = 1
			idx[j] = j
		}
		for j := 0; j < nv; j++ {
			one := []float64{1}
			mustConstraint(t, p, []int{j}, one, LE, 10)
			rows = append(rows, testRow{a: unit(nv, j), op: LE, rhs: 10})
		}
		_ = box
		_ = idx

		sol, err := p.Solve(Options{}, nil)
		if errors.Is(err, ErrInfeasible) {
			// Verify no feasible point exists on a coarse grid (sanity
			// check, not a proof).
			if pt := gridFeasiblePoint(rows, nv, 0.5); pt != nil {
				t.Fatalf("trial %d: reported infeasible but %v is feasible", trial, pt)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		// (a) Feasibility.
		if !feasible(rows, sol.X, 1e-6) {
			t.Fatalf("trial %d: solution %v infeasible", trial, sol.X)
		}
		// (b) Optimality vs grid search.
		bestGrid := gridBest(rows, obj, nv, 0.25)
		if bestGrid < sol.Objective-1e-6 {
			t.Fatalf("trial %d: grid found %v < simplex %v", trial, bestGrid, sol.Objective)
		}
	}
}

// testRow is a dense constraint used by the brute-force feasibility and
// grid-search helpers.
type testRow struct {
	a   []float64
	op  Op
	rhs float64
}

func unit(n, j int) []float64 {
	a := make([]float64, n)
	a[j] = 1
	return a
}

func feasible(rows []testRow, x []float64, tol float64) bool {
	for _, r := range rows {
		dot := 0.0
		for j := range x {
			dot += r.a[j] * x[j]
		}
		switch r.op {
		case LE:
			if dot > r.rhs+tol {
				return false
			}
		case GE:
			if dot < r.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(dot-r.rhs) > tol {
				return false
			}
		}
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	return true
}

func gridPoints(nv int, step, max float64, fn func(x []float64)) {
	x := make([]float64, nv)
	var rec func(d int)
	rec = func(d int) {
		if d == nv {
			fn(x)
			return
		}
		for v := 0.0; v <= max; v += step {
			x[d] = v
			rec(d + 1)
		}
	}
	rec(0)
}

func gridFeasiblePoint(rows []testRow, nv int, step float64) []float64 {
	var found []float64
	gridPoints(nv, step, 10, func(x []float64) {
		if found == nil && feasible(rows, x, 1e-9) {
			found = append([]float64(nil), x...)
		}
	})
	return found
}

func gridBest(rows []testRow, obj []float64, nv int, step float64) float64 {
	best := math.Inf(1)
	gridPoints(nv, step, 10, func(x []float64) {
		if !feasible(rows, x, 1e-9) {
			return
		}
		v := 0.0
		for j := range x {
			v += obj[j] * x[j]
		}
		if v < best {
			best = v
		}
	})
	return best
}

// TestWeakDualityProperty: for random feasible bounded LPs, the simplex
// objective must equal the max over many random feasible points' lower
// envelope... More directly: any feasible point must have objective >=
// the simplex optimum (minimization).
func TestNoFeasiblePointBeatsOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(3)
		p := NewProblem(nv)
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = rng.Float64()*2 - 0.5
		}
		if err := setObjective(p, obj); err != nil {
			return false
		}
		// x_j <= u_j box plus a couple of random LE rows: always feasible
		// (x = 0) and bounded.
		var rows []testRow
		for j := 0; j < nv; j++ {
			if err := p.AddConstraint([]int{j}, []float64{1}, LE, 5); err != nil {
				return false
			}
			rows = append(rows, testRow{a: unit(nv, j), op: LE, rhs: 5})
		}
		for i := 0; i < 2; i++ {
			a := make([]float64, nv)
			idx := make([]int, nv)
			for j := range a {
				a[j] = rng.Float64()
				idx[j] = j
			}
			rhs := rng.Float64() * 5
			if err := p.AddConstraint(idx, a, LE, rhs); err != nil {
				return false
			}
			rows = append(rows, testRow{a: a, op: LE, rhs: rhs})
		}
		sol, err := p.Solve(Options{}, nil)
		if err != nil {
			return false
		}
		// Sample random feasible points by rejection.
		for i := 0; i < 200; i++ {
			x := make([]float64, nv)
			for j := range x {
				x[j] = rng.Float64() * 5
			}
			if !feasible(rows, x, 0) {
				continue
			}
			v := 0.0
			for j := range x {
				v += obj[j] * x[j]
			}
			if v < sol.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLargeStructuredLP(t *testing.T) {
	// A mid-size assignment-like LP to exercise refactorization: 40 jobs,
	// 12 machines, random costs; each job assigned once, machine capacity
	// 4 jobs.
	rng := rand.New(rand.NewSource(5))
	const jobs, machines = 40, 12
	nv := jobs * machines
	p := NewProblem(nv)
	obj := make([]float64, nv)
	for i := range obj {
		obj[i] = rng.Float64() * 10
	}
	if err := setObjective(p, obj); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		idx := make([]int, machines)
		coef := make([]float64, machines)
		for m := 0; m < machines; m++ {
			idx[m] = j*machines + m
			coef[m] = 1
		}
		mustConstraint(t, p, idx, coef, EQ, 1)
	}
	for m := 0; m < machines; m++ {
		idx := make([]int, jobs)
		coef := make([]float64, jobs)
		for j := 0; j < jobs; j++ {
			idx[j] = j*machines + m
			coef[j] = 1
		}
		mustConstraint(t, p, idx, coef, LE, 4)
	}
	sol := solveOK(t, p)
	// Verify assignment feasibility.
	for j := 0; j < jobs; j++ {
		sum := 0.0
		for m := 0; m < machines; m++ {
			sum += sol.X[j*machines+m]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("job %d assigned %v total, want 1", j, sum)
		}
	}
	for m := 0; m < machines; m++ {
		sum := 0.0
		for j := 0; j < jobs; j++ {
			sum += sol.X[j*machines+m]
		}
		if sum > 4+1e-6 {
			t.Fatalf("machine %d load %v > 4", m, sum)
		}
	}
	// The LP bound must be at least the trivial per-job minimum.
	lower := 0.0
	for j := 0; j < jobs; j++ {
		minC := math.Inf(1)
		for m := 0; m < machines; m++ {
			if obj[j*machines+m] < minC {
				minC = obj[j*machines+m]
			}
		}
		lower += minC
	}
	if sol.Objective < lower-1e-6 {
		t.Errorf("objective %v below per-job lower bound %v", sol.Objective, lower)
	}
}
