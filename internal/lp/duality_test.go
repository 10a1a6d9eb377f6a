package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestStrongDuality: at the optimum, the dual objective Σ y_i b_i must
// equal the primal objective (strong duality), and the duals must price
// the columns correctly: c_j − Σ_i y_i a_ij ≥ 0 for every variable
// (dual feasibility / non-negative reduced costs at optimality).
func TestStrongDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + rng.Intn(4)
		p := NewProblem(nv)
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = rng.Float64() * 5 // non-negative costs: bounded LP
		}
		if err := setObjective(p, obj); err != nil {
			return false
		}
		type row struct {
			a   []float64
			op  Op
			rhs float64
		}
		var rows []row
		// A couple of >= rows force non-trivial optima; box rows keep the
		// region bounded.
		for i := 0; i < 2; i++ {
			a := make([]float64, nv)
			idx := make([]int, nv)
			for j := range a {
				a[j] = 0.2 + rng.Float64()
				idx[j] = j
			}
			rhs := 1 + rng.Float64()*3
			if err := p.AddConstraint(idx, a, GE, rhs); err != nil {
				return false
			}
			rows = append(rows, row{a: a, op: GE, rhs: rhs})
		}
		for j := 0; j < nv; j++ {
			if err := p.AddConstraint([]int{j}, []float64{1}, LE, 10); err != nil {
				return false
			}
			a := make([]float64, nv)
			a[j] = 1
			rows = append(rows, row{a: a, op: LE, rhs: 10})
		}

		sol, err := p.Solve(Options{}, nil)
		if err != nil {
			return false
		}
		// Strong duality.
		dualObj := 0.0
		for i, r := range rows {
			dualObj += sol.Duals[i] * r.rhs
		}
		if math.Abs(dualObj-sol.Objective) > 1e-6 {
			return false
		}
		// Dual feasibility: reduced costs non-negative.
		for j := 0; j < nv; j++ {
			reduced := obj[j]
			for i, r := range rows {
				reduced -= sol.Duals[i] * r.a[j]
			}
			if reduced < -1e-6 {
				return false
			}
		}
		// Dual sign conventions for a minimization: y ≥ 0 on ≥ rows,
		// y ≤ 0 on ≤ rows.
		for i, r := range rows {
			switch r.op {
			case GE:
				if sol.Duals[i] < -1e-7 {
					return false
				}
			case LE:
				if sol.Duals[i] > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestComplementarySlackness: a constraint with nonzero dual must be
// tight at the optimum.
func TestComplementarySlackness(t *testing.T) {
	// min 2x + y s.t. x + y >= 3, x >= 1, x,y <= 10.
	p := NewProblem(2)
	if err := setObjective(p, []float64{2, 1}); err != nil {
		t.Fatal(err)
	}
	mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, GE, 3)
	mustConstraint(t, p, []int{0}, []float64{1}, GE, 1)
	mustConstraint(t, p, []int{0}, []float64{1}, LE, 10)
	mustConstraint(t, p, []int{1}, []float64{1}, LE, 10)
	sol, err := p.Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Optimum x=1, y=2: row 0 tight (dual = 1: raising demand raises cost
	// by 1 via y), row 1 tight (dual = 1: x is costlier than y by 1),
	// rows 2-3 slack → dual 0.
	lhs := []float64{sol.X[0] + sol.X[1], sol.X[0], sol.X[0], sol.X[1]}
	rhs := []float64{3, 1, 10, 10}
	for i := range rhs {
		slack := math.Abs(lhs[i] - rhs[i])
		if slack > 1e-7 && math.Abs(sol.Duals[i]) > 1e-7 {
			t.Errorf("row %d: slack %v but dual %v", i, slack, sol.Duals[i])
		}
	}
	if math.Abs(sol.Duals[0]-1) > 1e-7 || math.Abs(sol.Duals[1]-1) > 1e-7 {
		t.Errorf("duals = %v, want [1 1 0 0]", sol.Duals)
	}
}

// TestWarmDualTightenRelax drives randomized tighten/relax chains through
// warm solves and pins the dual-simplex contract: every feasible re-solve
// from a valid prior basis stays on a warm path (never a silent cold
// restart), tightening steps that break primal feasibility are repaired
// by dual pivots (Method == MethodWarmDual), and the objective always
// matches an independent cold solve of the same instance.
func TestWarmDualTightenRelax(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dualSteps, primalSteps := 0, 0
	for trial := 0; trial < 8; trial++ {
		ins := newWarmTestInstance(rng, 6+rng.Intn(6), 4+rng.Intn(4))
		warm := ins.build(t)
		sol, err := warm.Solve(Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d: initial solve: %v", trial, err)
		}
		basis := sol.Basis
		for step := 0; step < 10; step++ {
			tighten := step%3 != 2 // mostly tighten, relax every third step
			for m := range ins.capRHS {
				f := 0.86 + 0.08*rng.Float64()
				if !tighten {
					f = 1.15 + 0.25*rng.Float64()
				}
				ins.capRHS[m] *= f
				if err := warm.SetRHS(ins.jobs+m, ins.capRHS[m]); err != nil {
					t.Fatal(err)
				}
			}
			warmSol, warmErr := warm.Solve(Options{}, basis)
			coldSol, coldErr := ins.build(t).Solve(Options{}, nil)
			if coldErr != nil {
				if !errors.Is(coldErr, ErrInfeasible) {
					t.Fatalf("trial %d step %d: cold: %v", trial, step, coldErr)
				}
				if !errors.Is(warmErr, ErrInfeasible) {
					t.Fatalf("trial %d step %d: cold infeasible but warm: %v", trial, step, warmErr)
				}
				continue // keep the last good basis; relaxing may recover
			}
			if warmErr != nil {
				t.Fatalf("trial %d step %d: warm: %v (cold solved fine)", trial, step, warmErr)
			}
			ins.checkFeasible(t, warmSol.X)
			if diff := math.Abs(warmSol.Objective - coldSol.Objective); diff > 1e-6 {
				t.Fatalf("trial %d step %d: warm objective %v vs cold %v (diff %v)",
					trial, step, warmSol.Objective, coldSol.Objective, diff)
			}
			switch warmSol.Method {
			case MethodWarmDual:
				dualSteps++
			case MethodWarmPrimal:
				primalSteps++
			default:
				t.Fatalf("trial %d step %d: feasible re-solve from a valid basis took Method=%q",
					trial, step, warmSol.Method)
			}
			basis = warmSol.Basis
		}
	}
	// The chains must actually exercise both repair paths, or the test
	// proves nothing about the dual simplex.
	if dualSteps == 0 || primalSteps == 0 {
		t.Fatalf("repair paths not both exercised: %d dual steps, %d primal steps", dualSteps, primalSteps)
	}
	t.Logf("warm re-solves: %d dual-repaired, %d primal-feasible", dualSteps, primalSteps)
}

// TestDualPredictsSensitivity: perturbing a tight constraint's rhs by eps
// changes the optimum by about dual·eps.
func TestDualPredictsSensitivity(t *testing.T) {
	build := func(demand float64) *Problem {
		p := NewProblem(2)
		if err := setObjective(p, []float64{3, 5}); err != nil {
			t.Fatal(err)
		}
		mustConstraint(t, p, []int{0, 1}, []float64{1, 1}, GE, demand)
		mustConstraint(t, p, []int{0}, []float64{1}, LE, 4)
		mustConstraint(t, p, []int{1}, []float64{1}, LE, 8)
		return p
	}
	base, err := build(6).Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.25
	bumped, err := build(6+eps).Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	predicted := base.Objective + base.Duals[0]*eps
	if math.Abs(bumped.Objective-predicted) > 1e-6 {
		t.Errorf("objective after bump = %v, dual predicted %v", bumped.Objective, predicted)
	}
}
