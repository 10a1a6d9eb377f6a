package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// growColumn is one candidate column of the randomized growth tests:
// an objective cost plus one coefficient per constraint row.
type growColumn struct {
	cost float64
	rows []int
	coef []float64
}

// buildFromColumns assembles a fresh Problem containing exactly the given
// columns (in order) over nRows rows with the given ops and rhs.
func buildFromColumns(t *testing.T, cols []growColumn, ops []Op, rhs []float64) *Problem {
	t.Helper()
	p := NewProblem(len(cols))
	for j, c := range cols {
		if err := p.SetObjectiveCoeff(j, c.cost); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ops {
		var idx []int
		var coef []float64
		for j, c := range cols {
			for k, r := range c.rows {
				if r == i {
					idx = append(idx, j)
					coef = append(coef, c.coef[k])
				}
			}
		}
		if err := p.AddConstraint(idx, coef, ops[i], rhs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestAddColumnGrowWarmMatchesCold grows a restricted master column by
// column the way column generation does — AddColumn then Solve from the
// previous basis — and checks at every step that the warm solve (a)
// stays on the primal warm path (the old vertex is still feasible when
// only columns were added) and (b) reaches the same objective as a cold
// solve of a problem built from scratch with the same columns.
func TestAddColumnGrowWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		groups := 2 + rng.Intn(4)
		resources := 1 + rng.Intn(3)
		nRows := groups + resources
		ops := make([]Op, nRows)
		rhs := make([]float64, nRows)
		for g := 0; g < groups; g++ {
			ops[g] = EQ
			rhs[g] = 1
		}
		for r := 0; r < resources; r++ {
			ops[groups+r] = LE
			// Above the worst case (every group at max coefficient 1.1), so
			// every seeded master is feasible.
			rhs[groups+r] = 1.2 * float64(groups)
		}

		newCol := func(g int) growColumn {
			rows := []int{g}
			coef := []float64{1}
			for r := 0; r < resources; r++ {
				if rng.Float64() < 0.7 {
					rows = append(rows, groups+r)
					coef = append(coef, 0.1+rng.Float64())
				}
			}
			return growColumn{cost: rng.Float64() * 10, rows: rows, coef: coef}
		}

		// Seed: one column per group.
		var cols []growColumn
		for g := 0; g < groups; g++ {
			cols = append(cols, newCol(g))
		}
		master := buildFromColumns(t, cols, ops, rhs)
		sol, err := master.Solve(Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d: seed solve: %v", trial, err)
		}

		for step := 0; step < 6; step++ {
			batch := 1 + rng.Intn(3)
			for b := 0; b < batch; b++ {
				c := newCol(rng.Intn(groups))
				cols = append(cols, c)
				j, err := master.AddColumn(c.cost, c.rows, c.coef)
				if err != nil {
					t.Fatalf("trial %d step %d: AddColumn: %v", trial, step, err)
				}
				if j != len(cols)-1 {
					t.Fatalf("trial %d step %d: AddColumn index %d, want %d", trial, step, j, len(cols)-1)
				}
			}
			warm, err := master.Solve(Options{}, sol.Basis)
			if err != nil {
				t.Fatalf("trial %d step %d: warm solve: %v", trial, step, err)
			}
			if warm.Method != MethodWarmPrimal {
				t.Errorf("trial %d step %d: method %q, want %q (columns only grew)",
					trial, step, warm.Method, MethodWarmPrimal)
			}
			cold, err := buildFromColumns(t, cols, ops, rhs).Solve(Options{}, nil)
			if err != nil {
				t.Fatalf("trial %d step %d: cold reference: %v", trial, step, err)
			}
			if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-9*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d step %d: warm objective %v, cold %v (diff %g)",
					trial, step, warm.Objective, cold.Objective, diff)
			}
			sol = warm
		}
	}
}

// TestAddColumnThenSetRHS: a basis captured before AddColumn must also
// survive a subsequent RHS tightening — the cross-solve composition the
// colgen capacity path uses (grow columns within one solve, tighten
// capacities between solves).
func TestAddColumnThenSetRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groups, resources := 3, 2
	nRows := groups + resources
	ops := make([]Op, nRows)
	rhs := make([]float64, nRows)
	for g := 0; g < groups; g++ {
		ops[g], rhs[g] = EQ, 1
	}
	for r := 0; r < resources; r++ {
		ops[groups+r], rhs[groups+r] = LE, 5
	}
	var cols []growColumn
	for g := 0; g < groups; g++ {
		cols = append(cols, growColumn{
			cost: rng.Float64() * 10,
			rows: []int{g, groups, groups + 1},
			coef: []float64{1, 0.5 + rng.Float64(), 0.5 + rng.Float64()},
		})
	}
	master := buildFromColumns(t, cols, ops, rhs)
	sol, err := master.Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := growColumn{cost: 0.5, rows: []int{0, groups}, coef: []float64{1, 2.5}}
	cols = append(cols, c)
	if _, err := master.AddColumn(c.cost, c.rows, c.coef); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < resources; r++ {
		rhs[groups+r] = 4.5 // still feasible: per-resource usage ≤ 3 × 1.5
		if err := master.SetRHS(groups+r, rhs[groups+r]); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := master.Solve(Options{}, sol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := buildFromColumns(t, cols, ops, rhs).Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(warm.Objective - cold.Objective); diff > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objective %v after grow+tighten, want %v", warm.Objective, cold.Objective)
	}
	if warm.Method == MethodCold {
		t.Errorf("method %q: basis did not survive AddColumn + SetRHS", warm.Method)
	}
}

// TestAddColumnErrors exercises AddColumn's validation.
func TestAddColumnErrors(t *testing.T) {
	p := NewProblem(1)
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cost float64
		rows []int
		coef []float64
	}{
		{"length mismatch", 1, []int{0}, []float64{1, 2}},
		{"row out of range", 1, []int{1}, []float64{1}},
		{"negative row", 1, []int{-1}, []float64{1}},
		{"nan cost", math.NaN(), []int{0}, []float64{1}},
		{"inf coef", 1, []int{0}, []float64{math.Inf(1)}},
	}
	for _, c := range cases {
		if _, err := p.AddColumn(c.cost, c.rows, c.coef); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if p.NumVars() != 1 {
		t.Fatalf("failed AddColumn mutated nVars: %d", p.NumVars())
	}
	if _, err := p.AddColumn(2, []int{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if p.NumVars() != 2 {
		t.Fatalf("NumVars = %d after AddColumn, want 2", p.NumVars())
	}
}

// TestInfeasibleRayCertificate: an infeasible solve must carry a Farkas
// ray y with y·b > 0 and y·A_j ≤ tol for every structural column, with
// the row-operator sign conditions that account for slack directions.
func TestInfeasibleRayCertificate(t *testing.T) {
	// x ≤ 1 and x ≥ 2: plainly infeasible.
	p := NewProblem(1)
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{0}, []float64{1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	_, err := p.Solve(Options{}, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	ray := InfeasibleRay(err)
	if ray == nil {
		t.Fatal("InfeasibleRay returned nil on an infeasible solve")
	}
	if len(ray) != 2 {
		t.Fatalf("ray length %d, want 2", len(ray))
	}
	const tol = 1e-7
	if yb := ray[0]*1 + ray[1]*2; yb <= tol {
		t.Errorf("y·b = %v, want > 0", yb)
	}
	if ya := ray[0] + ray[1]; ya > tol {
		t.Errorf("y·A_x = %v, want ≤ tol", ya)
	}
	// Slack directions: LE rows need y_i ≤ tol, GE rows y_i ≥ -tol.
	if ray[0] > tol {
		t.Errorf("LE row ray %v, want ≤ tol", ray[0])
	}
	if ray[1] < -tol {
		t.Errorf("GE row ray %v, want ≥ -tol", ray[1])
	}
}

// TestInfeasibleRayAbsent: non-infeasibility errors and the bare sentinel
// yield a nil ray.
func TestInfeasibleRayAbsent(t *testing.T) {
	if ray := InfeasibleRay(ErrInfeasible); ray != nil {
		t.Errorf("bare sentinel carried a ray: %v", ray)
	}
	if ray := InfeasibleRay(fmt.Errorf("wrap: %w", ErrUnbounded)); ray != nil {
		t.Errorf("unbounded error carried a ray: %v", ray)
	}
	if ray := InfeasibleRay(nil); ray != nil {
		t.Errorf("nil error carried a ray: %v", ray)
	}
}

// TestInfeasibleRayThroughWarmSolve: the warm path funnels infeasibility
// verdicts through a cold phase 1, so the ray must be present there too.
func TestInfeasibleRayThroughWarmSolve(t *testing.T) {
	p := NewProblem(2)
	if err := setObjective(p, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 2}, LE, 4); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the LE row below what the EQ row forces (x0+x1 = 1 needs
	// x0+2x1 ≥ 1 ≥ 0.5... make it impossible: rhs < 1 with coef ≥ 1).
	if err := p.SetRHS(1, 0.5); err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(Options{}, sol.Basis)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if InfeasibleRay(err) == nil {
		t.Fatal("no ray through the warm solve's infeasibility path")
	}
}
