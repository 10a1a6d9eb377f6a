package lp

import (
	"errors"
	"fmt"
	"math"
)

// simplex is the solver workspace for one Problem. Columns are stored in
// compressed sparse column (CSC) form; the basis inverse is dense (m×m,
// flattened row-major into one contiguous slice), maintained by pivoting
// and periodically refactorized from scratch to shed accumulated
// floating-point error.
//
// The workspace is cached on the Problem and reused across solves: a
// warm-started re-solve after an RHS-only change (SetRHS) touches no
// column storage and allocates nothing on the pivot path.
type simplex struct {
	m    int // rows
	n    int // total columns: structural + slack/surplus + artificial
	nStr int // structural columns
	nAux int // slack/surplus columns

	// CSC column storage: column j's entries are
	// (rowInd[t], vals[t]) for t in [colPtr[j], colPtr[j+1]).
	colPtr []int
	rowInd []int
	vals   []float64

	b       []float64 // rhs, non-negative after row normalization
	rowSign []float64 // ±1 applied to each input row during normalization

	costPh1 []float64 // phase-1 costs (1 on artificials)
	costPh2 []float64 // phase-2 costs (structural only; aux/artificial = 0)

	firstArtificial int
	initBasis       []int // the all-slack/artificial starting basis

	basis    []int     // basis[i] = column basic in row i
	isBasic  []bool    // by column
	binv     []float64 // m×m row-major basis inverse
	xB       []float64 // current basic values
	maxIters int

	iters      int
	degenerate int // consecutive degenerate pivots, triggers Bland's rule
	pricing    Pricing

	// Scratch buffers reused across pivots (and across solves).
	y   []float64 // dual estimate c_B B⁻¹
	dir []float64 // pivot direction B⁻¹ A_enter
	aug []float64 // m×2m refactorization workspace, allocated on first use

	priceStart int // rotating start of the partial-pricing scan
}

const (
	refactorEvery  = 200
	blandThreshold = 64
	// priceBlockMin is the smallest candidate block scanned by partial
	// pricing; larger problems scan n/8 columns per block.
	priceBlockMin = 128
)

// Solve minimizes the objective with the given options. A nil warm basis
// runs the cold two-phase solve from the all-slack/artificial basis.
//
// Otherwise phase 2 starts from warm, typically Solution.Basis from an
// earlier solve of the same Problem after only right-hand sides changed
// (SetRHS) or columns were added (AddColumn). A basis left primal
// infeasible by the edit (RHS tightening) but still dual feasible — the
// optimal basis of the previous solve always is, since reduced costs do
// not depend on the right-hand sides — is repaired in place by
// dual-simplex pivots. If the basis no longer applies at all — wrong
// shape, contains artificials, singular, or dual infeasible because the
// objective changed too — it falls back to a cold two-phase solve, so any
// basis is safe to pass. Solution.Method reports which path ran.
func (p *Problem) Solve(opts Options, warm Basis) (*Solution, error) {
	if len(p.rows) == 0 {
		// Unconstrained non-negative minimization: each variable sits at 0
		// unless its cost is negative, in which case the LP is unbounded.
		for j, c := range p.obj {
			if c < -Tol {
				return nil, fmt.Errorf("variable %d has negative cost and no constraints: %w", j, ErrUnbounded)
			}
		}
		return &Solution{X: make([]float64, p.nVars), Method: MethodCold}, nil
	}
	s := p.workspace()
	s.applyOptions(p, opts)
	if warm != nil {
		if sol, err := s.solveWarm(p, warm); sol != nil || err != nil {
			return sol, err
		}
	}
	return s.solveCold(p)
}

// solveWarm runs phase 2 from the warm basis, repairing primal
// infeasibility by dual-simplex pivots first. It returns (nil, nil) when
// the basis does not apply and the caller must solve cold.
func (s *simplex) solveWarm(p *Problem, warm Basis) (*Solution, error) {
	if !s.tryWarmBasis(warm) {
		return nil, nil
	}
	method := MethodWarmPrimal
	if !s.primalFeasible() {
		if !s.dualFeasible(s.costPh2) {
			return nil, nil
		}
		if err := s.runDual(s.costPh2); err != nil {
			if err == errDualStuck {
				// The dual ratio test found no pivot, which signals primal
				// infeasibility — but leave that verdict to a cold phase 1
				// so tolerance corner cases cannot misreport ErrInfeasible.
				return nil, nil
			}
			if errors.Is(err, ErrIterationLimit) {
				s.resetCounters()
				return nil, nil
			}
			return nil, err
		}
		method = MethodWarmDual
	}
	if err := s.run(s.costPh2, s.firstArtificial, false); err != nil {
		if err == errUnboundedInternal {
			return nil, ErrUnbounded
		}
		if errors.Is(err, ErrIterationLimit) {
			// Numeric trouble along the warm path (stall or a singular
			// basis during refactorization): retry from scratch with a
			// fresh pivot budget.
			s.resetCounters()
			return nil, nil
		}
		return nil, err
	}
	return s.extract(p, method), nil
}

// workspace returns the cached solver workspace, building it if the
// problem structure changed since the last solve.
func (p *Problem) workspace() *simplex {
	if p.ws == nil {
		p.ws = newSimplex(p)
	}
	return p.ws
}

// applyOptions refreshes per-solve tunables and the phase-2 costs (the
// objective may have been edited between solves).
func (s *simplex) applyOptions(p *Problem, opts Options) {
	s.maxIters = max(200*(s.m+s.n), 20000)
	copy(s.costPh2, p.obj)
	for j := s.nStr; j < s.n; j++ {
		s.costPh2[j] = 0
	}
	s.resetCounters()
	s.pricing = opts.Pricing
}

// resetCounters gives the next run a fresh pivot budget, leaves Bland's
// rule and restarts the partial-pricing scan at column 0.
func (s *simplex) resetCounters() {
	s.iters = 0
	s.degenerate = 0
	s.priceStart = 0
}

// newSimplex builds the canonical-form column storage for the problem:
// sign-normalized rows, structural columns assembled without maps, then
// slack/surplus and artificial columns.
func newSimplex(p *Problem) *simplex {
	m := len(p.rows)
	s := &simplex{m: m, nStr: p.nVars}

	s.b = make([]float64, m)
	s.rowSign = make([]float64, m)
	nnz := 0
	for i, r := range p.rows {
		s.rowSign[i] = 1
		if r.rhs < 0 {
			s.rowSign[i] = -1
		}
		s.b[i] = r.rhs * s.rowSign[i]
		nnz += len(r.idx)
	}

	// Structural columns via counting sort over the (col, row, val)
	// triples of the row-wise input: count entries per column, place each
	// row's entries at its column cursor, then merge duplicates. Rows are
	// scanned in order, so every column comes out sorted by row with
	// duplicate rows adjacent — no maps, no comparison sort.
	colPtr := make([]int, p.nVars+2)
	counts := colPtr[1:] // counts[j] accumulates into colPtr[j+1]
	for _, r := range p.rows {
		for _, j := range r.idx {
			counts[j+1]++
		}
	}
	for j := 1; j <= p.nVars; j++ {
		counts[j] += counts[j-1]
	}
	// counts[j] is now the cursor for column j; colPtr[j] the final start.
	rowInd := make([]int, nnz, nnz+3*m)
	vals := make([]float64, nnz, nnz+3*m)
	for i, r := range p.rows {
		sign := s.rowSign[i]
		for k, j := range r.idx {
			t := counts[j]
			counts[j] = t + 1
			rowInd[t] = i
			vals[t] = r.coef[k] * sign
		}
	}
	// Merge duplicate rows within each column and drop exact zeros,
	// compacting in place.
	w := 0
	start := 0
	for j := 0; j < p.nVars; j++ {
		end := counts[j] // one past column j's last entry
		cstart := w
		for t := start; t < end; {
			row := rowInd[t]
			v := vals[t]
			t++
			for t < end && rowInd[t] == row {
				v += vals[t]
				t++
			}
			if v != 0 {
				rowInd[w] = row
				vals[w] = v
				w++
			}
		}
		start = end
		colPtr[j] = cstart
	}
	colPtr[p.nVars] = w
	rowInd = rowInd[:w]
	vals = vals[:w]
	s.colPtr = colPtr[:p.nVars+1]

	// Slack/surplus columns, then artificials where needed. A row's op
	// flips when its sign was normalized.
	s.initBasis = make([]int, m)
	needArtificial := make([]bool, m)
	nCols := p.nVars
	appendUnit := func(row int, v float64) int {
		s.colPtr = append(s.colPtr, len(rowInd)+1)
		rowInd = append(rowInd, row)
		vals = append(vals, v)
		nCols++
		return nCols - 1
	}
	for i, r := range p.rows {
		op := r.op
		if s.rowSign[i] < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			s.initBasis[i] = appendUnit(i, 1)
		case GE:
			appendUnit(i, -1)
			needArtificial[i] = true
		case EQ:
			needArtificial[i] = true
		}
	}
	s.nAux = nCols - s.nStr
	s.firstArtificial = nCols
	for i := 0; i < m; i++ {
		if needArtificial[i] {
			s.initBasis[i] = appendUnit(i, 1)
		}
	}
	s.n = nCols
	s.rowInd = rowInd
	s.vals = vals

	s.basis = make([]int, m)
	s.isBasic = make([]bool, s.n)
	s.binv = make([]float64, m*m)
	s.xB = make([]float64, m)
	s.costPh2 = make([]float64, s.n)
	if s.firstArtificial < s.n {
		s.costPh1 = make([]float64, s.n)
		for j := s.firstArtificial; j < s.n; j++ {
			s.costPh1[j] = 1
		}
	}
	s.y = make([]float64, m)
	s.dir = make([]float64, m)
	return s
}

// solveCold runs the two-phase simplex from the all-slack/artificial
// starting basis.
func (s *simplex) solveCold(p *Problem) (*Solution, error) {
	copy(s.basis, s.initBasis)
	for j := range s.isBasic {
		s.isBasic[j] = false
	}
	for _, j := range s.basis {
		s.isBasic[j] = true
	}
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < s.m; i++ {
		s.binv[i*s.m+i] = 1
	}
	copy(s.xB, s.b)

	// Phase 1: minimize the sum of artificials.
	if s.firstArtificial < s.n {
		if err := s.run(s.costPh1, s.firstArtificial, true); err != nil {
			if err == errUnboundedInternal {
				// Phase 1 is bounded below by 0; this indicates numeric
				// trouble, surface as iteration trouble.
				return nil, ErrIterationLimit
			}
			return nil, err
		}
		if obj := s.objective(s.costPh1); obj > 1e-7 {
			return nil, &infeasibleError{ray: s.dualRay()}
		}
		s.pivotOutArtificials()
	}

	// Phase 2.
	if err := s.run(s.costPh2, s.firstArtificial, false); err != nil {
		if err == errUnboundedInternal {
			return nil, ErrUnbounded
		}
		return nil, err
	}
	return s.extract(p, MethodCold), nil
}

// tryWarmBasis installs a prior basis and reports whether it is
// structurally usable: right shape, decodable, no artificial columns,
// non-singular. Feasibility under the current right-hand sides is checked
// separately (primalFeasible / dualFeasible) so the caller can pick the
// repair path.
//
// Basis entries use the encoding of extract: structural columns by index,
// slack/surplus columns as ^ordinal (see extract). Decoding resolves the
// ordinal against the current aux layout, so a basis recorded before an
// AddColumn still lands on the same slack columns after the renumber.
// Encoded artificials (ordinal ≥ nAux) decode past firstArtificial and
// are rejected here, preserving the contract that warm starts never
// resurrect artificial columns.
func (s *simplex) tryWarmBasis(basis Basis) bool {
	if len(basis) != s.m {
		return false
	}
	for j := range s.isBasic {
		s.isBasic[j] = false
	}
	for i, enc := range basis {
		j := enc
		if enc < 0 {
			j = s.nStr + ^enc
		} else if enc >= s.nStr {
			// A raw aux index from a workspace with a different structural
			// count; its identity is ambiguous, so fall back to cold.
			return false
		}
		if j >= s.firstArtificial || s.isBasic[j] {
			return false
		}
		s.isBasic[j] = true
		s.basis[i] = j
	}
	return s.refactorize() == nil
}

// primalFeasible reports whether the installed basis satisfies the current
// right-hand sides, clamping tiny negatives to zero when it does.
func (s *simplex) primalFeasible() bool {
	for _, v := range s.xB {
		if v < -1e-7 {
			return false
		}
	}
	for i, v := range s.xB {
		if v < 0 {
			s.xB[i] = 0
		}
	}
	return true
}

// dualFeasible reports whether every non-artificial column prices out
// non-negative under the installed basis, i.e. the basis is optimal for
// the cost vector on its own rows and only the right-hand sides moved.
// The optimal basis of a previous solve always passes when only SetRHS
// ran in between, since reduced costs do not depend on b; an objective
// edit can fail it, in which case the caller must solve cold.
func (s *simplex) dualFeasible(cost []float64) bool {
	s.multipliers(cost, s.y)
	for j := 0; j < s.firstArtificial; j++ {
		if s.isBasic[j] {
			continue
		}
		if cost[j]-s.reduceDot(j, s.y) < -1e-7 {
			return false
		}
	}
	return true
}

// errDualStuck marks a dual-simplex iteration where a basic variable is
// negative but no column can enter: the LP looks primal infeasible, but
// the verdict is left to a cold phase 1 to keep ErrInfeasible authoritative.
var errDualStuck = errors.New("lp: dual simplex found no entering column")

// runDual restores primal feasibility by dual-simplex pivots, starting
// from a dual-feasible basis: pick the most negative basic value as the
// leaving row, then the entering column by the dual ratio test
// min d_j / (−α_j) over columns with α_j < 0 in the leaving row (which
// keeps reduced costs non-negative). Each pivot uses the same direction
// and basis update as run; on success xB ≥ 0 and the basis is still dual
// feasible, so a follow-up primal phase 2 terminates immediately or
// cheaply.
func (s *simplex) runDual(cost []float64) error {
	m := s.m
	sinceRefactor := 0
	for {
		if s.iters >= s.maxIters {
			return ErrIterationLimit
		}
		if sinceRefactor >= refactorEvery {
			if err := s.refactorize(); err != nil {
				return err
			}
			sinceRefactor = 0
		}

		// Leaving row: most negative basic value (Dantzig's dual rule),
		// ties to the lowest row index.
		leave := -1
		worst := -Tol
		for i := 0; i < m; i++ {
			if v := s.xB[i]; v < worst {
				worst = v
				leave = i
			}
		}
		if leave < 0 {
			for i, v := range s.xB {
				if v < 0 {
					s.xB[i] = 0
				}
			}
			return nil // primal feasible again
		}

		// Reduced costs of the ratio test price against y = c_B·B⁻¹.
		s.multipliers(cost, s.y)

		// Dual ratio test over the leaving row of B⁻¹A: only columns with
		// α_j < 0 can enter (they raise xB[leave] toward feasibility).
		rowL := s.binv[leave*m : leave*m+m]
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.firstArtificial; j++ {
			if s.isBasic[j] {
				continue
			}
			alpha := s.reduceDot(j, rowL)
			if alpha >= -Tol {
				continue
			}
			d := cost[j] - s.reduceDot(j, s.y)
			if d < 0 {
				d = 0 // dual feasibility holds up to tolerance
			}
			ratio := d / -alpha
			if ratio < bestRatio-Tol || (ratio < bestRatio+Tol && (enter == -1 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return errDualStuck
		}

		// The pivot element dir[leave] is the α computed above (negative),
		// so θ = xB[leave]/dir[leave] > 0.
		dir := s.direction(enter)
		theta := s.xB[leave] / dir[leave]
		for i := 0; i < m; i++ {
			if i != leave {
				s.xB[i] -= theta * dir[i]
			}
		}
		s.xB[leave] = theta
		s.pivot(leave, enter)
		s.iters++
		sinceRefactor++
	}
}

// extract assembles the Solution from the optimal workspace state,
// tagged with the method that reached it.
func (s *simplex) extract(p *Problem, method string) *Solution {
	x := make([]float64, s.nStr)
	for i, j := range s.basis {
		if j < s.nStr {
			x[j] = s.xB[i]
			if x[j] < 0 && x[j] > -1e-7 {
				x[j] = 0
			}
		}
	}
	obj := 0.0
	for j := 0; j < s.nStr; j++ {
		obj += p.obj[j] * x[j]
	}

	// Dual values: y = c_B B⁻¹ on the sign-normalized system, mapped back
	// to the original row orientation.
	duals := make([]float64, s.m)
	s.multipliers(s.costPh2, duals)
	for i := range duals {
		duals[i] *= s.rowSign[i]
	}

	// Encode the basis so it survives column growth: structural columns
	// by index, aux (slack/surplus) and artificial columns as the bitwise
	// complement of their creation ordinal (^0 = -1 for the first aux
	// column, and so on). The ordinal depends only on the row layout, so
	// an AddColumn — which renumbers every aux column — leaves the
	// encoding's meaning intact; tryWarmBasis decodes against the current
	// layout.
	enc := make(Basis, s.m)
	for i, j := range s.basis {
		if j < s.nStr {
			enc[i] = j
		} else {
			enc[i] = ^(j - s.nStr)
		}
	}

	return &Solution{
		X:          x,
		Objective:  obj,
		Duals:      duals,
		Iterations: s.iters,
		Basis:      enc,
		Method:     method,
	}
}

// dualRay computes the phase-1 dual vector y = c_B^{ph1} B⁻¹ mapped back
// to original row orientation. At a phase-1 optimum with positive
// objective it is a Farkas certificate of infeasibility: y·b equals the
// residual infeasibility (> 0) while every column — structural and
// slack/surplus alike — prices out y·A_j ≤ tol (otherwise phase 1 would
// have pivoted it in to reduce the objective further).
func (s *simplex) dualRay() []float64 {
	ray := make([]float64, s.m)
	s.multipliers(s.costPh1, ray)
	for i := range ray {
		ray[i] *= s.rowSign[i]
	}
	return ray
}

var errUnboundedInternal = fmt.Errorf("lp: internal unbounded marker")

// run performs simplex iterations with the given cost vector until
// optimality. Columns ≥ banFrom are never chosen to enter (used to keep
// artificials out in phase 2).
func (s *simplex) run(cost []float64, banFrom int, phase1 bool) error {
	if phase1 {
		banFrom = s.n // artificials may move during phase 1
	}
	m := s.m
	sinceRefactor := 0
	for {
		if s.iters >= s.maxIters {
			return ErrIterationLimit
		}
		if sinceRefactor >= refactorEvery {
			if err := s.refactorize(); err != nil {
				return err
			}
			sinceRefactor = 0
		}

		s.multipliers(cost, s.y)
		enter := s.price(cost, banFrom, s.y)
		if enter < 0 {
			return nil // optimal for this cost vector
		}
		dir := s.direction(enter)

		// Ratio test. Basic artificials must never rise above zero: if the
		// pivot would increase one (dir < 0 for a zero-valued artificial),
		// it blocks at θ = 0 and leaves the basis instead.
		leave := -1
		theta := math.Inf(1)
		for i := 0; i < m; i++ {
			bj := s.basis[i]
			if dir[i] > Tol {
				r := s.xB[i] / dir[i]
				if r < theta-Tol || (r < theta+Tol && (leave == -1 || bj < s.basis[leave])) {
					theta = r
					leave = i
				}
			} else if !phase1 && bj >= banFrom && dir[i] < -Tol && s.xB[i] <= Tol {
				// Zero-valued artificial would grow; force it out now.
				theta = 0
				leave = i
				break
			}
		}
		if leave < 0 {
			return errUnboundedInternal
		}
		if theta < 0 {
			theta = 0
		}

		if theta <= Tol {
			s.degenerate++
		} else {
			s.degenerate = 0
		}

		// Update basic values and basis inverse.
		for i := 0; i < m; i++ {
			if i != leave {
				s.xB[i] -= theta * dir[i]
				if s.xB[i] < 0 && s.xB[i] > -1e-9 {
					s.xB[i] = 0
				}
			}
		}
		s.xB[leave] = theta
		s.pivot(leave, enter)
		s.iters++
		sinceRefactor++
	}
}

// price selects the entering column, or -1 at optimality.
//
// With PricingDantzig it scans every column and takes the most negative
// reduced cost (ties to the lowest index — the original solver's exact
// behavior). With PricingPartial it scans a rotating block of candidates
// and takes the block's most negative reduced cost; blocks are scanned
// in sequence (wrapping) until one yields a candidate, so a full pass is
// always completed before optimality is declared. Under prolonged
// degeneracy both degrade to Bland's rule (first eligible column by
// index), which guarantees termination.
func (s *simplex) price(cost []float64, banFrom int, y []float64) int {
	limit := banFrom
	if limit > s.n {
		limit = s.n
	}
	if limit == 0 {
		return -1
	}
	if s.degenerate >= blandThreshold {
		for j := 0; j < limit; j++ {
			if s.isBasic[j] {
				continue
			}
			if cost[j]-s.reduceDot(j, y) < -Tol {
				return j
			}
		}
		return -1
	}
	if s.pricing == PricingDantzig {
		// One fused pass over the CSC arrays. The dot accumulates in row
		// order exactly as the sparse columns are stored, so the computed
		// reduced costs — and therefore the pivot sequence — are
		// bit-identical to the straightforward per-column evaluation.
		bestJ := -1
		best := -Tol
		colPtr, rowInd, vals, isBasic := s.colPtr, s.rowInd, s.vals, s.isBasic
		start := colPtr[0]
		for j := 0; j < limit; j++ {
			end := colPtr[j+1]
			if isBasic[j] {
				start = end
				continue
			}
			sum := 0.0
			for t := start; t < end; t++ {
				sum += y[rowInd[t]] * vals[t]
			}
			start = end
			if d := cost[j] - sum; d < best {
				best = d
				bestJ = j
			}
		}
		return bestJ
	}
	block := limit / 8
	if block < priceBlockMin {
		block = priceBlockMin
	}
	j := s.priceStart
	if j >= limit {
		j = 0
	}
	scanned := 0
	bestJ := -1
	best := -Tol
	for scanned < limit {
		blockEnd := scanned + block
		if blockEnd > limit {
			blockEnd = limit
		}
		for ; scanned < blockEnd; scanned++ {
			if !s.isBasic[j] {
				if d := cost[j] - s.reduceDot(j, y); d < best {
					best = d
					bestJ = j
				}
			}
			j++
			if j >= limit {
				j = 0
			}
		}
		if bestJ >= 0 {
			s.priceStart = j
			return bestJ
		}
	}
	return -1
}

// reduceDot is y · A_j over column j's sparse entries.
func (s *simplex) reduceDot(j int, y []float64) float64 {
	sum := 0.0
	for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
		sum += y[s.rowInd[t]] * s.vals[t]
	}
	return sum
}

// multipliers sets y = c_B·B⁻¹ for the given cost vector: the prices
// that reduced costs c_j − y·A_j are taken against and, at an optimum,
// the row duals of the sign-normalized system.
func (s *simplex) multipliers(cost, y []float64) {
	m := s.m
	for k := range y {
		y[k] = 0
	}
	for i := 0; i < m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m]
		for k, rv := range row {
			y[k] += cb * rv
		}
	}
}

// direction sets and returns s.dir = B⁻¹A_j, the change in the basic
// values per unit of column j entering.
func (s *simplex) direction(j int) []float64 {
	m := s.m
	dir := s.dir
	cs, ce := s.colPtr[j], s.colPtr[j+1]
	for i := 0; i < m; i++ {
		row := s.binv[i*m : i*m+m]
		sum := 0.0
		for t := cs; t < ce; t++ {
			sum += row[s.rowInd[t]] * s.vals[t]
		}
		dir[i] = sum
	}
	return dir
}

// pivot makes column enter basic in row leave: it updates B⁻¹ by the row
// operations that turn s.dir (B⁻¹A_enter, from direction) into the unit
// vector of row leave, and swaps the basis. The caller updates xB.
func (s *simplex) pivot(leave, enter int) {
	m := s.m
	dir := s.dir
	rowL := s.binv[leave*m : leave*m+m]
	inv := 1 / dir[leave]
	for k := range rowL {
		rowL[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := dir[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m]
		for k, rv := range rowL {
			row[k] -= f * rv
		}
	}
	s.isBasic[s.basis[leave]] = false
	s.isBasic[enter] = true
	s.basis[leave] = enter
}

// pivotOutArtificials removes zero-valued artificial variables from the
// basis where possible by degenerate pivots on non-artificial columns.
// Rows whose artificial cannot be pivoted out are linearly dependent; the
// artificial stays basic at zero and the phase-2 ratio-test guard keeps it
// there.
func (s *simplex) pivotOutArtificials() {
	m := s.m
	for i := 0; i < m; i++ {
		if s.basis[i] < s.firstArtificial {
			continue
		}
		row := s.binv[i*m : i*m+m]
		for j := 0; j < s.firstArtificial; j++ {
			if s.isBasic[j] || math.Abs(s.reduceDot(j, row)) <= 1e-7 {
				continue
			}
			// Degenerate pivot: xB[i] is ~0, so values do not change.
			s.direction(j)
			s.pivot(i, j)
			s.xB[i] = 0
			break
		}
	}
}

// refactorize rebuilds binv from the basis columns by Gauss–Jordan
// elimination with partial pivoting and recomputes xB, discarding drift.
func (s *simplex) refactorize() error {
	m := s.m
	// Assemble dense B augmented with I, rows flattened to width 2m.
	w := 2 * m
	if s.aug == nil {
		s.aug = make([]float64, m*w)
	}
	aug := s.aug
	for i := range aug {
		aug[i] = 0
	}
	for i := 0; i < m; i++ {
		aug[i*w+m+i] = 1
	}
	for colPos, j := range s.basis {
		for t := s.colPtr[j]; t < s.colPtr[j+1]; t++ {
			aug[s.rowInd[t]*w+colPos] = s.vals[t]
		}
	}
	for c := 0; c < m; c++ {
		// Partial pivot.
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(aug[r*w+c]) > math.Abs(aug[p*w+c]) {
				p = r
			}
		}
		if math.Abs(aug[p*w+c]) < 1e-12 {
			return fmt.Errorf("lp: singular basis during refactorization: %w", ErrIterationLimit)
		}
		if p != c {
			rc, rp := aug[c*w:c*w+w], aug[p*w:p*w+w]
			for k := range rc {
				rc[k], rp[k] = rp[k], rc[k]
			}
		}
		rc := aug[c*w : c*w+w]
		inv := 1 / rc[c]
		for k := c; k < w; k++ {
			rc[k] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := aug[r*w+c]
			if f == 0 {
				continue
			}
			rr := aug[r*w : r*w+w]
			for k := c; k < w; k++ {
				rr[k] -= f * rc[k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i*m:i*m+m], aug[i*w+m:i*w+w])
	}
	// xB = B^{-1} b
	for i := 0; i < m; i++ {
		sum := 0.0
		row := s.binv[i*m : i*m+m]
		for k, rv := range row {
			sum += rv * s.b[k]
		}
		if sum < 0 && sum > -1e-9 {
			sum = 0
		}
		s.xB[i] = sum
	}
	return nil
}

func (s *simplex) objective(cost []float64) float64 {
	sum := 0.0
	for i, j := range s.basis {
		sum += cost[j] * s.xB[i]
	}
	return sum
}
