// Package lp is a self-contained linear-programming solver: a two-phase
// revised simplex method with a dense basis inverse and sparse constraint
// columns.
//
// It stands in for the GNU MathProg / glpsol toolchain the paper used. The
// LPs this library generates (the access-strategy LP (4.3)–(4.6) and the
// many-to-one placement relaxation) have up to a few hundred rows and a
// few tens of thousands of columns, well within reach of a dense revised
// simplex. Variables are non-negative; upper bounds of the paper's LPs
// (p ≤ 1) are implied by their convexity rows, so bounded-variable pivots
// are not needed.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // Σ a·x ≤ b
	GE               // Σ a·x ≥ b
	EQ               // Σ a·x = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Solver failure modes.
var (
	// ErrInfeasible is returned when no assignment satisfies the
	// constraints (for example, node capacities set below the system's
	// optimal load).
	ErrInfeasible = errors.New("lp: problem is infeasible")
	// ErrUnbounded is returned when the objective can decrease without
	// bound.
	ErrUnbounded = errors.New("lp: problem is unbounded")
	// ErrIterationLimit is returned when the simplex fails to converge
	// within the iteration budget.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
)

// infeasibleError carries the phase-1 dual ray that certifies
// infeasibility (a Farkas certificate). It unwraps to ErrInfeasible, so
// errors.Is(err, ErrInfeasible) keeps working for every caller.
type infeasibleError struct{ ray []float64 }

func (e *infeasibleError) Error() string { return ErrInfeasible.Error() }
func (e *infeasibleError) Unwrap() error { return ErrInfeasible }

// InfeasibleRay extracts the infeasibility certificate from a solve
// error, or nil if err carries none (e.g. it is not an infeasibility, or
// it was produced before the certificate existed). The ray y is indexed
// by constraint row in original orientation, like Solution.Duals, and
// satisfies y·b > 0 while y·A_j ≤ tol for every column present in the
// problem. A column-generation caller can therefore price absent columns
// against y: only a candidate column a with y·a > tol can reduce the
// infeasibility, and if no such column exists in the full model, the
// full problem is infeasible — not just the restricted one.
func InfeasibleRay(err error) []float64 {
	var ie *infeasibleError
	if errors.As(err, &ie) {
		return ie.ray
	}
	return nil
}

// Problem is a minimization LP over non-negative variables. The zero value
// is unusable; create with NewProblem. A Problem is not safe for
// concurrent use: it caches a solver workspace across Solve calls so that
// RHS-only re-solves (SetRHS, then Solve from the last basis) reuse the
// assembled columns.
type Problem struct {
	nVars int
	obj   []float64
	rows  []conRow
	ws    *simplex // cached workspace; nil until first solve, dropped on structural change
}

type conRow struct {
	idx  []int
	coef []float64
	op   Op
	rhs  float64
}

// NewProblem returns a minimization problem with nVars variables
// x_0 … x_{nVars-1}, all constrained to x_j ≥ 0, with zero objective.
func NewProblem(nVars int) *Problem {
	if nVars <= 0 {
		panic(fmt.Sprintf("lp: non-positive variable count %d", nVars))
	}
	return &Problem{nVars: nVars, obj: make([]float64, nVars)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nVars }

// NumConstraints returns the number of rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(j int, c float64) error {
	if j < 0 || j >= p.nVars {
		return fmt.Errorf("lp: variable %d out of range [0,%d)", j, p.nVars)
	}
	p.obj[j] = c
	return nil
}

// AddConstraint appends the row Σ coef[k]·x_{idx[k]} (op) rhs. Indices may
// repeat (coefficients are summed). The slices are copied.
func (p *Problem) AddConstraint(idx []int, coef []float64, op Op, rhs float64) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("lp: %d indices but %d coefficients", len(idx), len(coef))
	}
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: invalid op %v", op)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: invalid rhs %v", rhs)
	}
	for k, j := range idx {
		if j < 0 || j >= p.nVars {
			return fmt.Errorf("lp: variable %d out of range [0,%d)", j, p.nVars)
		}
		if math.IsNaN(coef[k]) || math.IsInf(coef[k], 0) {
			return fmt.Errorf("lp: invalid coefficient %v for variable %d", coef[k], j)
		}
	}
	row := conRow{
		idx:  append([]int(nil), idx...),
		coef: append([]float64(nil), coef...),
		op:   op,
		rhs:  rhs,
	}
	p.rows = append(p.rows, row)
	p.ws = nil // column structure changed; rebuild on next solve
	return nil
}

// AddColumn appends a new structural variable x_j ≥ 0 with the given
// objective coefficient and one entry per listed constraint row:
// row rows[k] gains coefficient coef[k]·x_j. Row indices may repeat
// (coefficients are summed). It returns the new variable's index.
//
// This is the growth operation of column generation: solve a restricted
// master, price out absent columns against Solution.Duals, append the
// winners, and re-solve. The workspace is rebuilt on the next solve, but
// a Basis taken before the AddColumn remains a valid warm start for
// Solve on the grown problem — basic slack/surplus columns are encoded
// relative to their row, not by absolute column index, so they survive
// the renumber.
// Since the right-hand sides are unchanged, that basis is still primal
// feasible and the re-solve continues with primal pivots only.
func (p *Problem) AddColumn(cost float64, rows []int, coef []float64) (int, error) {
	if len(rows) != len(coef) {
		return 0, fmt.Errorf("lp: %d row indices but %d coefficients", len(rows), len(coef))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("lp: invalid column cost %v", cost)
	}
	for k, i := range rows {
		if i < 0 || i >= len(p.rows) {
			return 0, fmt.Errorf("lp: row %d out of range [0,%d)", i, len(p.rows))
		}
		if math.IsNaN(coef[k]) || math.IsInf(coef[k], 0) {
			return 0, fmt.Errorf("lp: invalid coefficient %v for row %d", coef[k], i)
		}
	}
	j := p.nVars
	p.nVars++
	p.obj = append(p.obj, cost)
	for k, i := range rows {
		r := &p.rows[i]
		r.idx = append(r.idx, j)
		r.coef = append(r.coef, coef[k])
	}
	p.ws = nil // column structure changed; rebuild on next solve
	return j, nil
}

// SetRHS replaces the right-hand side of row i (in the order the rows
// were added), leaving its coefficients and operator untouched. This is
// the mutation capacity sweeps perform between solves: combined with a
// warm Solve it re-solves without reassembling any column storage.
func (p *Problem) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.rows) {
		return fmt.Errorf("lp: row %d out of range [0,%d)", i, len(p.rows))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: invalid rhs %v", rhs)
	}
	old := p.rows[i].rhs
	p.rows[i].rhs = rhs
	if (rhs < 0) != (old < 0) {
		// The sign normalization flips the row, changing column signs and
		// the slack/artificial layout: the workspace must be rebuilt.
		p.ws = nil
	} else if p.ws != nil {
		p.ws.b[i] = rhs * p.ws.rowSign[i]
	}
	return nil
}

// Basis identifies the set of basic columns of a vertex solution:
// Basis[i] is the column basic in row i. Structural variables are
// recorded by index; basic slack/surplus columns are encoded relative to
// their row (as negative values), so a Basis survives AddColumn — the
// mechanism column generation relies on to warm-start the grown master.
// It is opaque to callers beyond being passed back to Solve on the same
// Problem after RHS-only edits or AddColumn; adding rows or other
// structural change invalidates it (Solve then simply solves cold).
type Basis []int

// Method values reported in Solution.Method: how the solver reached the
// optimum.
const (
	// MethodCold is a full two-phase solve from the all-slack basis.
	MethodCold = "cold"
	// MethodWarmPrimal is a warm re-solve whose starting basis was still
	// primal feasible (e.g. after relaxing right-hand sides).
	MethodWarmPrimal = "warm-primal"
	// MethodWarmDual is a warm re-solve whose starting basis was primal
	// infeasible but dual feasible (e.g. after tightening right-hand
	// sides), repaired by dual-simplex pivots instead of a cold restart.
	MethodWarmDual = "warm-dual"
)

// Solution is the result of a successful solve.
type Solution struct {
	// X holds the optimal values of the structural variables.
	X []float64
	// Objective is the optimal objective value.
	Objective float64
	// Duals holds the dual value (shadow price) of each constraint row,
	// in the order the rows were added. For a minimization, relaxing the
	// rhs of row i by one unit changes the optimum by approximately
	// -Duals[i] for ≤ rows (and +Duals[i] for ≥ rows under the sign
	// convention y = c_B B⁻¹ on the sign-normalized rows; see the duality
	// tests for the exact contract).
	Duals []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
	// Basis is the optimal basis, suitable for warm-starting a re-solve
	// of the same Problem after RHS-only changes (see Solve). It may
	// reference leftover artificial columns when the constraint rows are
	// linearly dependent; Solve detects that and solves cold.
	Basis Basis
	// Method reports how the optimum was reached: MethodCold,
	// MethodWarmPrimal, or MethodWarmDual. Diagnostic only — capacity
	// sweeps use it to verify that tightening re-solves stay on the warm
	// path.
	Method string
}

// Pricing selects how the simplex chooses entering columns.
type Pricing int

const (
	// PricingDantzig scans every column and enters the most negative
	// reduced cost, breaking ties toward the lowest index. It is the
	// default: fully deterministic and pivot-for-pivot compatible with
	// the original solver, so results (including the particular optimal
	// vertex reached on degenerate problems) are reproducible.
	PricingDantzig Pricing = iota
	// PricingPartial prices a rotating block of columns per pivot and
	// enters the block's most negative reduced cost, falling back to
	// scanning further blocks (a full pass in the worst case) before
	// declaring optimality. Much cheaper per pivot on wide problems; on
	// degenerate problems it may reach a different — equally optimal —
	// vertex than Dantzig pricing.
	PricingPartial
)

// Tol is the solver's feasibility/optimality tolerance.
const Tol = 1e-9

// Options tunes the solver. The zero value selects sensible defaults.
// The pivot limit is automatic, proportional to problem size.
type Options struct {
	// Pricing selects the entering-column rule (default PricingDantzig).
	Pricing Pricing
}

// OptionsFor translates a caller's reproducibility setting into solver
// options: reproducible runs take the defaults (Dantzig pricing, whose
// pivot sequence — and so the vertex reached — is fixed), every other
// run the cheaper partial pricing.
func OptionsFor(reproducible bool) Options {
	if reproducible {
		return Options{}
	}
	return Options{Pricing: PricingPartial}
}
