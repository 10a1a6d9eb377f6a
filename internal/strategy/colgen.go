package strategy

import (
	"fmt"
	"slices"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/par"
)

// ColgenStats reports what the column-generation solver did during one
// Optimize call. Columns is cumulative across calls (generated columns
// persist in the master); the round counters are per call.
type ColgenStats struct {
	// SuperClients is the number of aggregated client groups (the
	// master's convexity rows). Equals the client count with aggregation
	// disabled or when no two clients share a delay signature.
	SuperClients int `json:"super_clients"`
	// Columns is the master's current column count: one seed column per
	// super-client plus every column generated by pricing so far.
	Columns int `json:"columns"`
	// PricingRounds counts reduced-cost pricing passes, including the
	// final pass that found nothing and certified optimality.
	PricingRounds int `json:"pricing_rounds"`
	// MasterSolves counts LP solves of the restricted master (the first
	// may be cold; growth re-solves are warm).
	MasterSolves int `json:"master_solves"`
	// FarkasRounds counts feasibility-pricing passes run when the
	// restricted master was infeasible under the requested capacities.
	FarkasRounds int `json:"farkas_rounds,omitempty"`
}

// colgen solves the access LP by column generation: a restricted master
// over weighted super-clients, seeded with each group's closest quorum,
// grown by pricing passes until no absent column has negative reduced
// cost — at which point the restricted optimum is optimal for the full
// nc·m-variable LP (every absent column prices ≥ −tol, the dense
// solver's own optimality test).
//
// The master mirrors the dense LP's layout group-for-client: convexity
// rows 0..ng−1 (Σ_i p_gi = 1), then one ≤-capacity row per loaded
// support node, with coefficient weight_g·load_i(w) and right-hand side
// nc·cap(w) set per solve. Objective coefficients are weight_g·δ_g(Q_i),
// so the master's objective equals the dense LP's on the fanned-out
// strategy and AvgNetDelay = objective/nc exactly as on the dense path.
type colgen struct {
	e    *core.Eval
	cfg  Config
	mode core.LoadMode // e.Mode when built: the load coefficients' mode

	m  int // quorums
	nc int // original clients (capacity rhs scale)
	ng int // super-clients

	groups *clientGroups

	prob    *lp.Problem
	capRows []int // capRows[r]: node of capacity row ng+r
	rowOf   []int // node -> capacity row ordinal r, -1 if no row

	hosts [][]core.QuorumHost // e.QuorumHosts(): each quorum's nodes

	// Column directory: structural column j of the master is quorum
	// colQuorum[j] for group colGroup[j].
	colGroup  []int32
	colQuorum []int32
	// have marks (group, quorum) pairs already present, bit g·m+i.
	have []uint64

	basis lp.Basis // master basis carried across Optimize calls (WarmStart)

	// Pricing scratch, allocated once; the per-group pricing loop itself
	// is allocation-free.
	lamNode []float64 // per-node capacity dual (or Farkas ray) value
	qcap    []float64 // per-quorum Σ_v λ_v·load_i(v)
	bestQ   []int32   // per-group winning quorum this round, -1 none
	bestD   []float64 // per-group δ of the winning quorum
	idxBuf  []int     // AddColumn row-index scratch
	coefBuf []float64 // AddColumn coefficient scratch

	stats ColgenStats
}

// newColgen aggregates clients and builds the seeded restricted master
// over the system's enumerated quorums.
func newColgen(e *core.Eval, cfg Config) (*colgen, error) {
	c := &colgen{
		e:     e,
		cfg:   cfg,
		mode:  e.Mode,
		hosts: e.QuorumHosts(),
		nc:    len(e.Clients),
	}
	c.m = len(c.hosts)
	support := e.F.Support()
	c.groups = groupClients(e, support, !cfg.NoAggregate)
	c.ng = len(c.groups.members)

	// Capacity rows for exactly the nodes some quorum loads — the same
	// rows, in the same support order, as the dense LP builds.
	used := make([]bool, e.Topo.Size())
	for _, hs := range c.hosts {
		for _, h := range hs {
			used[h.Node] = true
		}
	}
	c.rowOf = slices.Repeat([]int{-1}, e.Topo.Size())
	for _, w := range support {
		if !used[w] {
			continue
		}
		c.rowOf[w] = len(c.capRows)
		c.capRows = append(c.capRows, w)
	}

	// Seed: each group's closest quorum (min δ, ties to the lowest
	// quorum index — deterministic).
	seeds := make([]int32, c.ng)
	seedD := make([]float64, c.ng)
	for g := 0; g < c.ng; g++ {
		row := e.Topo.RTTRow(c.groups.site[g])
		best, bestD := -1, 0.0
		for i, hs := range c.hosts {
			d := 0.0
			for _, h := range hs {
				if v := row[h.Node]; v > d {
					d = v
				}
			}
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		seeds[g] = int32(best)
		seedD[g] = bestD
	}

	// Restricted master: variable g is group g's seed column.
	prob := lp.NewProblem(c.ng)
	for g := 0; g < c.ng; g++ {
		if err := prob.SetObjectiveCoeff(g, c.groups.weight[g]*seedD[g]); err != nil {
			return nil, err
		}
	}
	for g := 0; g < c.ng; g++ {
		if err := prob.AddConstraint([]int{g}, []float64{1}, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// Capacity rows, assembled from the seed columns. The rhs is a
	// positive placeholder; optimize sets real capacities per solve.
	rowIdx := make([][]int, len(c.capRows))
	rowCoef := make([][]float64, len(c.capRows))
	for g := 0; g < c.ng; g++ {
		w := c.groups.weight[g]
		for _, h := range c.hosts[seeds[g]] {
			r := c.rowOf[h.Node]
			rowIdx[r] = append(rowIdx[r], g)
			rowCoef[r] = append(rowCoef[r], w*h.Load(c.mode))
		}
	}
	for r := range c.capRows {
		if err := prob.AddConstraint(rowIdx[r], rowCoef[r], lp.LE, 1); err != nil {
			return nil, err
		}
	}
	c.prob = prob

	c.colGroup = make([]int32, c.ng, 2*c.ng)
	c.colQuorum = make([]int32, c.ng, 2*c.ng)
	for g := 0; g < c.ng; g++ {
		c.colGroup[g] = int32(g)
		c.colQuorum[g] = seeds[g]
	}
	c.have = make([]uint64, (c.ng*c.m+63)/64)
	for g := 0; g < c.ng; g++ {
		c.setHave(g, int(seeds[g]))
	}

	c.lamNode = make([]float64, e.Topo.Size())
	c.qcap = make([]float64, c.m)
	c.bestQ = make([]int32, c.ng)
	c.bestD = make([]float64, c.ng)
	c.idxBuf = make([]int, 0, 1+len(c.capRows))
	c.coefBuf = make([]float64, 0, 1+len(c.capRows))
	c.stats = ColgenStats{SuperClients: c.ng}
	return c, nil
}

func (c *colgen) setHave(g, i int) {
	bit := g*c.m + i
	c.have[bit>>6] |= 1 << (bit & 63)
}

func (c *colgen) has(g, i int) bool {
	bit := g*c.m + i
	return c.have[bit>>6]&(1<<(bit&63)) != 0
}

// optimize runs the column-generation loop for one capacity vector.
func (c *colgen) optimize(caps []float64) (*Result, error) {
	for r, w := range c.capRows {
		if err := c.prob.SetRHS(c.ng+r, float64(c.nc)*caps[w]); err != nil {
			return nil, err
		}
	}
	c.stats.PricingRounds = 0
	c.stats.MasterSolves = 0
	c.stats.FarkasRounds = 0

	basis := c.basis // nil unless WarmStart kept the last optimum
	var sol *lp.Solution
	method := ""
	iters := 0
	for {
		var err error
		sol, err = c.prob.Solve(c.cfg.LP, basis)
		c.stats.MasterSolves++
		if err != nil {
			ray := lp.InfeasibleRay(err)
			if ray == nil {
				return nil, fmt.Errorf("strategy: colgen master (%d cols, %d rows): %w",
					c.prob.NumVars(), c.prob.NumConstraints(), err)
			}
			// The restricted master is infeasible under these capacities.
			// That does not condemn the full LP: an absent column may
			// relieve the overloaded rows. Price against the Farkas ray —
			// only columns with y·a > tol can reduce the phase-1
			// infeasibility — and re-solve if any were added; if none
			// exist anywhere, the full LP is infeasible too.
			c.stats.FarkasRounds++
			if c.priceRound(ray, true) == 0 {
				return nil, fmt.Errorf("strategy: access LP (colgen, %d super-clients, %d cols): %w",
					c.ng, c.prob.NumVars(), lp.ErrInfeasible)
			}
			basis = nil
			continue
		}
		iters += sol.Iterations
		if method == "" {
			method = sol.Method
		}
		basis = sol.Basis
		c.stats.PricingRounds++
		if c.priceRound(sol.Duals, false) == 0 {
			break // no column prices negative: optimal for the full LP
		}
	}
	if c.cfg.WarmStart {
		c.basis = sol.Basis
	}
	c.stats.Columns = c.prob.NumVars()

	// Per-group rows from the master's positive columns (one per group
	// and quorum), renormalized against solver tolerance drift. A group's
	// members share its row.
	grows := make([][]core.Access, c.ng)
	for j, x := range sol.X {
		if x > 0 {
			g := c.colGroup[j]
			grows[g] = append(grows[g], core.Access{Q: int(c.colQuorum[j]), P: x})
		}
	}
	rows := make([][]core.Access, c.nc)
	for g, members := range c.groups.members {
		row, _ := core.NormalizeRow(grows[g])
		for _, k := range members {
			rows[k] = row
		}
	}
	st := &core.ExplicitStrategy{Rows: rows, Label: "lp-optimized"}
	if err := st.Validate(c.e); err != nil {
		return nil, fmt.Errorf("strategy: colgen produced invalid strategy: %w", err)
	}
	stats := c.stats
	return &Result{
		Strategy:    st,
		AvgNetDelay: sol.Objective / float64(c.nc),
		Iterations:  iters,
		LPMethod:    "colgen-" + method,
		Colgen:      &stats,
	}, nil
}

// priceRound scans, for every group, all m quorums for the best absent
// column and appends one column per group that qualifies, returning how
// many were added. The scan fans groups out with par.For; each
// group's inner loop reads only shared precomputed state (the quorum hosts,
// the per-quorum dual load term, the topology's RTT row) and writes only
// its own bestQ/bestD slot, so the pass is allocation-free and
// deterministic regardless of pool width.
//
// With farkas=false, y is the master's dual vector and the criterion is
// the reduced cost w_g·δ_g(Q_i) − μ_g − w_g·Σ_{v∈Q_i} λ_v·load_i(v) of
// LP (4.3)–(4.6)'s column, entering the most negative per group if it is
// below −tol. With farkas=true, y is a phase-1 infeasibility ray and the
// criterion is y·a_gi = y_g + w_g·Σ_v y_{cap(v)}·load_i(v) > tol, the
// columns that can reduce the master's infeasibility.
func (c *colgen) priceRound(y []float64, farkas bool) int {
	for i := range c.lamNode {
		c.lamNode[i] = 0
	}
	for r, w := range c.capRows {
		c.lamNode[w] = y[c.ng+r]
	}
	for i, hs := range c.hosts {
		s := 0.0
		for _, h := range hs {
			s += h.Load(c.mode) * c.lamNode[h.Node]
		}
		c.qcap[i] = s
	}
	par.For(c.ng, func(g int) {
		row := c.e.Topo.RTTRow(c.groups.site[g])
		w := c.groups.weight[g]
		yg := y[g]
		best := int32(-1)
		bestScore := lp.Tol // farkas: need > tol
		if !farkas {
			bestScore = -lp.Tol // reduced cost: need < -tol
		}
		bestD := 0.0
		for i, hs := range c.hosts {
			if c.has(g, i) {
				continue
			}
			d := 0.0
			for _, h := range hs {
				if v := row[h.Node]; v > d {
					d = v
				}
			}
			if farkas {
				if score := yg + w*c.qcap[i]; score > bestScore {
					bestScore, best, bestD = score, int32(i), d
				}
			} else {
				if rc := w*(d-c.qcap[i]) - yg; rc < bestScore {
					bestScore, best, bestD = rc, int32(i), d
				}
			}
		}
		c.bestQ[g] = best
		c.bestD[g] = bestD
	})
	added := 0
	for g := 0; g < c.ng; g++ {
		q := c.bestQ[g]
		if q < 0 {
			continue
		}
		if err := c.addColumn(g, int(q), c.bestD[g]); err != nil {
			// Row indices and coefficients are internally generated and
			// finite; AddColumn cannot fail here.
			panic(err)
		}
		added++
	}
	return added
}

// addColumn appends the master column for (group g, quorum q) with delay
// coefficient d: convexity entry 1 in row g, capacity entry
// weight_g·load_q(w) in each loaded support node's row, objective cost
// weight_g·d.
func (c *colgen) addColumn(g, q int, d float64) error {
	w := c.groups.weight[g]
	idx := append(c.idxBuf[:0], g)
	coef := append(c.coefBuf[:0], 1)
	for _, h := range c.hosts[q] {
		if r := c.rowOf[h.Node]; r >= 0 {
			idx = append(idx, c.ng+r)
			coef = append(coef, w*h.Load(c.mode))
		}
	}
	if _, err := c.prob.AddColumn(w*d, idx, coef); err != nil {
		return err
	}
	c.idxBuf, c.coefBuf = idx[:0], coef[:0]
	c.colGroup = append(c.colGroup, int32(g))
	c.colQuorum = append(c.colQuorum, int32(q))
	c.setHave(g, q)
	return nil
}
