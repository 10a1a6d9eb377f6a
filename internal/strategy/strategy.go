// Package strategy implements §4.2's access-strategy optimization: the
// linear program (4.3)–(4.6) that, for a fixed placement, chooses each
// client's distribution over quorums to minimize average network delay
// subject to per-node capacity (load) constraints — plus the capacity
// sweep (7.7) and the non-uniform capacity heuristic of §7 built on it.
//
// The capacity sweeps re-solve a sequence of LPs that differ only in the
// capacity right-hand sides. An Optimizer builds the LP skeleton (delay
// coefficients, per-quorum node loads, constraint rows) once per
// evaluation and mutates only those right-hand sides between solves,
// optionally warm-starting each solve from the previous optimal basis.
// Sweeps additionally run independent capacity points in parallel,
// chunked so results do not depend on the pool width.
package strategy

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/par"
)

// Result is an optimized set of client access strategies.
type Result struct {
	// Strategy holds the per-client quorum distributions.
	Strategy *core.ExplicitStrategy
	// AvgNetDelay is the LP objective: avg_v Σ_i p_vi · δ_f(v, Q_i).
	AvgNetDelay float64
	// Iterations is the simplex pivot count (diagnostics); on the colgen
	// path it sums the pivots of every master re-solve.
	Iterations int
	// LPMethod reports how the solver reached the optimum (lp.MethodCold,
	// lp.MethodWarmPrimal, or lp.MethodWarmDual) — the observable that
	// capacity sweeps and the planner use to confirm tightening deltas
	// stay on the warm path. Column-generation solves prefix it with
	// "colgen-", reporting the first master solve's method (the later
	// re-solves of one Optimize call are always warm).
	LPMethod string
	// Colgen carries column-generation diagnostics; nil on the dense path.
	Colgen *ColgenStats `json:"colgen,omitempty"`
}

// Solver selects the algorithm behind the access LP.
type Solver string

// Solver values for Config.Solver.
const (
	// SolverAuto (the zero value) picks dense below
	// DefaultColgenThreshold client×quorum variables and column
	// generation at or above it — every paper-scale problem stays on the
	// bit-reproducible dense path.
	SolverAuto Solver = ""
	// SolverDense always builds and solves the full nc·m-variable LP.
	SolverDense Solver = "dense"
	// SolverColgen always uses the column-generation path: exact client
	// aggregation plus a restricted master grown by per-client pricing.
	SolverColgen Solver = "colgen"
)

// DefaultColgenThreshold is the nc·m size at which SolverAuto switches
// from the dense simplex to column generation. All paper-scale LPs
// (≤ 161 clients × ≤ 200 quorums) fall well below it, so auto never
// changes existing outputs; the measured crossover on AS-graph
// topologies is around this size (see DESIGN.md §14).
const DefaultColgenThreshold = 200000

// resolveSolver applies the auto rule for a problem of nc·m variables.
func resolveSolver(s Solver, size int) Solver {
	switch {
	case s != SolverAuto:
		return s
	case size >= DefaultColgenThreshold:
		return SolverColgen
	default:
		return SolverDense
	}
}

// Config tunes an Optimizer.
type Config struct {
	// LP passes solver options through (notably lp.Options.Pricing).
	// The zero value — cold Dantzig pricing — reproduces the original
	// solver's pivot sequence exactly.
	LP lp.Options
	// WarmStart re-starts each solve from the previous call's optimal
	// basis (falling back to a cold solve when it no longer applies).
	// Much faster across a capacity sweep; on degenerate problems it may
	// settle on a different — equally optimal — vertex than a cold
	// solve, so leave it off when bit-reproducibility matters. On the
	// colgen path it additionally carries the master basis (and the
	// generated columns, which persist regardless) across Optimize calls.
	WarmStart bool
	// Solver pins the LP algorithm; the zero value, SolverAuto, chooses
	// by problem size. Only the colgen ≡ dense tests pin it: the dense
	// LP is column generation's reference.
	Solver Solver
	// NoAggregate disables exact client aggregation on the colgen path,
	// giving every client its own super-client. Diagnostic: aggregation
	// is provably exact, and tests use this knob to verify that.
	NoAggregate bool
}

// ConfigFor is the one translation from a caller's solver profile to
// an Optimizer Config. The reproducible profile is cold solves with
// Dantzig pricing; every other run takes partial pricing and warm
// re-solves. Both leave the algorithm to SolverAuto, which chooses by
// problem size alone.
func ConfigFor(reproducible bool) Config {
	return Config{LP: lp.OptionsFor(reproducible), WarmStart: !reproducible}
}

// Optimizer solves the access-strategy LP repeatedly for one evaluation
// under varying capacities. It builds the expensive invariants — the
// per-client/per-quorum delay matrix δ_f(v, Q_i), the per-quorum node
// loads, and the LP skeleton — once, and re-solves after mutating only
// the capacity right-hand sides. An Optimizer is not safe for concurrent
// use; sweeps give each chunk its own.
type Optimizer struct {
	e   *core.Eval
	cfg Config

	m     int                 // quorums
	nc    int                 // clients
	hosts [][]core.QuorumHost // e.QuorumHosts(), the same across Rebind

	prob *lp.Problem
	// weight is each client's objective and load scale: its normalized
	// demand share times the client count.
	weight []float64
	// capRows maps the capacity constraint rows to their nodes:
	// capRows[r] is the node whose capacity row is row nc+r.
	capRows []int

	basis lp.Basis // last optimal basis when WarmStart is set, else nil

	// cg is the column-generation engine; non-nil iff the resolved solver
	// is SolverColgen, in which case the dense fields above stay unused.
	cg *colgen
}

// NewOptimizer validates the evaluation and builds the LP skeleton (or,
// when the resolved solver is colgen, the restricted master's seed).
func NewOptimizer(e *core.Eval, cfg Config) (*Optimizer, error) {
	if !e.Sys.Enumerable() {
		return nil, fmt.Errorf("strategy: %s is not enumerable; the LP needs explicit quorums", e.Sys.Name())
	}
	m := e.Sys.NumQuorums()
	nc := len(e.Clients)
	nVars := nc * m
	o := &Optimizer{e: e, cfg: cfg, m: m, nc: nc, hosts: e.QuorumHosts()}

	if resolveSolver(cfg.Solver, nVars) == SolverColgen {
		cg, err := newColgen(e, cfg)
		if err != nil {
			return nil, err
		}
		o.cg = cg
		return o, nil
	}

	prob := lp.NewProblem(nVars)
	o.prob = prob
	varOf := func(k, i int) int { return k*m + i }
	// Client weights scale both the objective contribution and the load a
	// client's accesses impose; with uniform weights this reduces to the
	// paper's 1/|V| averages (scaled through by |V|, which changes
	// neither the optimum nor the constraint set).
	weight := make([]float64, nc)
	for k := range weight {
		weight[k] = e.ClientWeight(k) * float64(nc)
	}
	o.weight = weight
	if err := o.setObjective(); err != nil {
		return nil, err
	}
	// Convexity: Σ_i p_vi = 1 per client.
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	idxBuf := make([]int, m)
	for k := 0; k < nc; k++ {
		for i := 0; i < m; i++ {
			idxBuf[i] = varOf(k, i)
		}
		if err := prob.AddConstraint(idxBuf, ones, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// Capacity: Σ_v weight_v Σ_i p_vi·mult(i, w) ≤ |clients|·cap(w) for
	// support nodes (both sides scaled by |clients| relative to (4.4)).
	// The rhs is a positive placeholder here; Optimize sets the actual
	// capacities before every solve.
	support := e.F.Support()
	for _, w := range support {
		var idx []int
		var coef []float64
		for i, hs := range o.hosts {
			var l float64
			for _, h := range hs {
				if h.Node == w {
					l = h.Load(e.Mode)
					break
				}
			}
			if l == 0 {
				continue
			}
			for k := 0; k < nc; k++ {
				idx = append(idx, varOf(k, i))
				coef = append(coef, weight[k]*l)
			}
		}
		if len(idx) == 0 {
			continue
		}
		if err := prob.AddConstraint(idx, coef, lp.LE, 1); err != nil {
			return nil, err
		}
		o.capRows = append(o.capRows, w)
	}
	return o, nil
}

// setObjective writes the objective from the bound evaluation's RTT rows:
// weight_v · δ_f(v, Q_i), the client's delay to the farthest host of the
// quorum, per client and quorum.
func (o *Optimizer) setObjective() error {
	e := o.e
	for k, v := range e.Clients {
		row := e.Topo.RTTRow(v)
		for i, hs := range o.hosts {
			maxD := 0.0
			for _, h := range hs {
				if d := row[h.Node]; d > maxD {
					maxD = d
				}
			}
			if err := o.prob.SetObjectiveCoeff(k*o.m+i, o.weight[k]*maxD); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rebind moves the optimizer onto an evaluation that differs from the one
// it was built for in its RTTs only — same system, placement targets,
// client set, client weights and load mode, which is checked — and
// rewrites the objective from the new RTT rows. No constraint involves an
// RTT, so the skeleton stands and the retained basis is still primal
// feasible: with WarmStart the next Optimize re-enters phase 2 from it,
// and shares WarmStart's caveat about which optimal vertex it settles on.
// Column-generation optimizers cannot be re-bound (their client
// aggregation is keyed by RTT rows); callers build a new one.
func (o *Optimizer) Rebind(e *core.Eval) error {
	old := o.e
	switch {
	case o.cg != nil:
		return fmt.Errorf("strategy: a column-generation optimizer cannot be re-bound")
	case e.Sys.Name() != old.Sys.Name() || e.Sys.NumQuorums() != o.m:
		return fmt.Errorf("strategy: re-bind changes the system from %s to %s", old.Sys.Name(), e.Sys.Name())
	case e.Topo.Size() != old.Topo.Size() || !e.F.Equal(old.F):
		return fmt.Errorf("strategy: re-bind changes the placement")
	case !slices.Equal(e.Clients, old.Clients):
		return fmt.Errorf("strategy: re-bind changes the client set")
	case e.Mode != old.Mode:
		return fmt.Errorf("strategy: re-bind changes the load mode")
	}
	for k, w := range o.weight {
		if e.ClientWeight(k)*float64(o.nc) != w {
			return fmt.Errorf("strategy: re-bind changes the weight of client %d", k)
		}
	}
	o.e = e
	return o.setObjective()
}

// Optimize solves the access-strategy LP for the given per-node
// capacities (length Topo.Size()), reusing the skeleton and — when
// configured — the previous solve's basis. Returns lp.ErrInfeasible
// (wrapped) when the capacities cannot absorb one unit of demand per
// client.
func (o *Optimizer) Optimize(caps []float64) (*Result, error) {
	e := o.e
	if len(caps) != e.Topo.Size() {
		return nil, fmt.Errorf("strategy: %d capacities for %d nodes", len(caps), e.Topo.Size())
	}
	if o.cg != nil {
		return o.cg.optimize(caps)
	}
	for r, w := range o.capRows {
		if err := o.prob.SetRHS(o.nc+r, float64(o.nc)*caps[w]); err != nil {
			return nil, err
		}
	}
	sol, err := o.prob.Solve(o.cfg.LP, o.basis)
	if err != nil {
		return nil, fmt.Errorf("strategy: access LP (%d vars, %d rows): %w",
			o.prob.NumVars(), o.prob.NumConstraints(), err)
	}
	if o.cfg.WarmStart {
		o.basis = sol.Basis
	}

	// Each client's row is its positive variables, renormalized away
	// from solver tolerance drift. A basic optimum has no more positive
	// variables than the LP has rows.
	m, nc := o.m, o.nc
	entries := make([]core.Access, 0, nc+len(o.capRows))
	rows := make([][]core.Access, nc)
	for k := range rows {
		start := len(entries)
		for i, x := range sol.X[k*m : (k+1)*m] {
			if x > 0 {
				entries = append(entries, core.Access{Q: i, P: x})
			}
		}
		rows[k], _ = core.NormalizeRow(entries[start:len(entries):len(entries)])
	}
	st := &core.ExplicitStrategy{Rows: rows, Label: "lp-optimized"}
	if err := st.Validate(e); err != nil {
		return nil, fmt.Errorf("strategy: LP produced invalid strategy: %w", err)
	}
	// The objective was scaled by |clients|·weights; dividing by nc
	// recovers the weighted-average network delay.
	return &Result{
		Strategy:    st,
		AvgNetDelay: sol.Objective / float64(nc),
		Iterations:  sol.Iterations,
		LPMethod:    sol.Method,
	}, nil
}

// Optimize solves LP (4.3)–(4.6) for the evaluation's placement: find
// {p_v} minimizing average network delay such that the average load on
// each node w stays within caps[w]. caps must have length Topo.Size();
// nodes outside the placement's support never receive load, so their
// capacities are ignored. Returns lp.ErrInfeasible (wrapped) when the
// capacities cannot absorb one unit of demand per client.
//
// The load coefficients follow the evaluation's LoadMode: multiplicity
// (the paper's definition) charges a node once per hosted element in the
// accessed quorum; dedup charges it once per access.
//
// Optimize solves cold with the default (Dantzig) pricing, bit-for-bit
// reproducing the original solver at paper scale (the auto solver stays
// dense below DefaultColgenThreshold); build an Optimizer directly for
// warm-started or alternatively-priced solves.
func Optimize(e *core.Eval, caps []float64) (*Result, error) {
	o, err := NewOptimizer(e, Config{})
	if err != nil {
		return nil, err
	}
	return o.Optimize(caps)
}

// SweepValues returns the paper's capacity grid (7.7):
// c_i = Lopt + i·(1−Lopt)/count for i = 1..count.
func SweepValues(lopt float64, count int) []float64 {
	if count <= 0 {
		panic(fmt.Sprintf("strategy: non-positive sweep count %d", count))
	}
	lambda := (1 - lopt) / float64(count)
	out := make([]float64, count)
	for i := 1; i <= count; i++ {
		out[i-1] = lopt + float64(i)*lambda
	}
	return out
}

// SweepPoint is one capacity setting's outcome.
type SweepPoint struct {
	// Cap is the uniform capacity value c_i (or the upper end γ of the
	// non-uniform interval).
	Cap float64
	// NetDelay is the optimized average network delay.
	NetDelay float64
	// Response is the average response time of the optimized strategy
	// under the evaluation's alpha.
	Response float64
	// Result carries the strategy.
	Result *Result
	// Infeasible marks capacity values the LP could not satisfy.
	Infeasible bool
}

// SweepChunkSize fixes the warm-start chain length. Chunk boundaries
// must not depend on pool width, or results would change with
// parallelism: each chunk always starts with a cold solve and
// warm-starts the points after it. The scenario engine partitions
// sweeps at these boundaries, so sharded execution reproduces the
// exact warm-start chains of an unsharded run.
const SweepChunkSize = 4

// ChunkBounds returns the half-open value range [lo, hi) of warm-start
// chunk ci in an n-value sweep — the single source of the boundary
// arithmetic the sweeps, the scenario partitioner, and the sharded
// executor must agree on for byte-identical output.
func ChunkBounds(ci, n int) (lo, hi int) {
	lo = ci * SweepChunkSize
	hi = lo + SweepChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// UniformSweep runs Optimize for each uniform capacity value and
// evaluates response time, reproducing the technique of Figure 7.6. Each
// chunk of points gets its own Optimizer built with cfg, as ConfigFor
// resolves it: ConfigFor(false) chains warm, partially priced solves
// through a chunk, ConfigFor(true) solves every point cold with Dantzig
// pricing. Chunks run in parallel, and their boundaries depend only on
// the number of points, so results are identical at every pool width.
func UniformSweep(e *core.Eval, values []float64, cfg Config) ([]SweepPoint, error) {
	return runSweep(e, values, cfg, func(c float64, caps []float64) ([]float64, error) {
		if caps == nil {
			caps = make([]float64, e.Topo.Size())
		}
		for w := range caps {
			caps[w] = c
		}
		return caps, nil
	})
}

// NonUniformCaps implements the §7 heuristic: capacities inversely
// proportional to each support node's average distance s_i from the
// clients, scaled into [beta, gamma]:
//
//	cap(v_i) = (1/s_i − le)/(re − le) · (γ − β) + β
//
// Nodes outside the support get capacity gamma (they carry no load).
func NonUniformCaps(e *core.Eval, beta, gamma float64) ([]float64, error) {
	if beta <= 0 || gamma < beta || gamma > 1 {
		return nil, fmt.Errorf("strategy: invalid capacity interval [%v, %v]", beta, gamma)
	}
	support := e.F.Support()
	inv := make([]float64, len(support))
	le, re := math.Inf(1), math.Inf(-1)
	for i, w := range support {
		s := 0.0
		for _, v := range e.Clients {
			s += e.Topo.RTT(v, w)
		}
		s /= float64(len(e.Clients))
		if s <= 0 {
			return nil, fmt.Errorf("strategy: support node %d has zero average client distance", w)
		}
		inv[i] = 1 / s
		le = math.Min(le, inv[i])
		re = math.Max(re, inv[i])
	}
	caps := make([]float64, e.Topo.Size())
	for w := range caps {
		caps[w] = gamma
	}
	for i, w := range support {
		if re == le {
			caps[w] = beta
			continue
		}
		caps[w] = (inv[i]-le)/(re-le)*(gamma-beta) + beta
	}
	return caps, nil
}

// NonUniformSweep mirrors UniformSweep but sets capacities with the
// non-uniform heuristic over intervals [β, γ] = [lopt, c] for each c,
// reproducing Figures 7.7/7.8.
func NonUniformSweep(e *core.Eval, lopt float64, values []float64, cfg Config) ([]SweepPoint, error) {
	return runSweep(e, values, cfg, func(c float64, _ []float64) ([]float64, error) {
		return NonUniformCaps(e, lopt, c)
	})
}

// runSweep evaluates every capacity value in parallel. capsFor produces
// the capacity vector for one value; it may reuse the scratch slice it is
// handed (which is nil on a chunk's first point). Points are partitioned
// into fixed chunks processed in any order by par.For; within a chunk
// one Optimizer carries warm-start state from point to point, so the
// outcome depends only on the chunk partition — never on scheduling —
// and parallel output is identical to serial.
func runSweep(e *core.Eval, values []float64, cfg Config,
	capsFor func(c float64, scratch []float64) ([]float64, error)) ([]SweepPoint, error) {
	n := len(values)
	out := make([]SweepPoint, n)
	if n == 0 {
		return out, nil
	}
	// Populate the evaluator's lazy caches before sharing it.
	e.Prewarm()

	nChunks := (n + SweepChunkSize - 1) / SweepChunkSize
	errs := make([]error, nChunks)
	par.For(nChunks, func(ci int) {
		lo, hi := ChunkBounds(ci, n)
		errs[ci] = sweepChunk(e, values[lo:hi], out[lo:hi], cfg, capsFor)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepChunk solves one contiguous run of sweep points with a dedicated
// Optimizer, chaining warm starts when cfg.WarmStart is set.
func sweepChunk(e *core.Eval, values []float64, out []SweepPoint, cfg Config,
	capsFor func(c float64, scratch []float64) ([]float64, error)) error {
	opt, err := NewOptimizer(e, cfg)
	if err != nil {
		return err
	}
	var caps []float64
	for i, c := range values {
		caps, err = capsFor(c, caps)
		if err != nil {
			return err
		}
		res, err := opt.Optimize(caps)
		if err != nil {
			if isInfeasible(err) {
				out[i] = SweepPoint{Cap: c, Infeasible: true}
				continue
			}
			return err
		}
		out[i] = SweepPoint{
			Cap:      c,
			NetDelay: res.AvgNetDelay,
			Response: e.AvgResponseTime(res.Strategy),
			Result:   res,
		}
	}
	return nil
}

// Best returns the feasible sweep point with the lowest response time, or
// an error if none is feasible. This is the paper's "pick the value c_i
// that minimizes the response time".
func Best(points []SweepPoint) (SweepPoint, error) {
	best := SweepPoint{Response: math.Inf(1), Infeasible: true}
	for _, p := range points {
		if !p.Infeasible && p.Response < best.Response {
			best = p
		}
	}
	if best.Infeasible {
		return SweepPoint{}, fmt.Errorf("strategy: no feasible capacity in sweep: %w", lp.ErrInfeasible)
	}
	return best, nil
}

func isInfeasible(err error) bool { return errors.Is(err, lp.ErrInfeasible) }
