// Package gap solves the generalized assignment problem instances arising
// in the paper's many-to-one quorum placement (§4.1.2): assign each job
// (universe element) to one machine (network node) minimizing total cost,
// subject to machine capacities, allowing the bounded capacity violation
// of the Shmoys–Tardos approximation.
//
// The pipeline mirrors the paper's description:
//
//  1. solve the LP relaxation (package lp),
//  2. apply Lin–Vitter filtering so no job stays fractionally assigned to
//     a machine much costlier than its fractional average, and
//  3. round via the Shmoys–Tardos slot construction: split each machine
//     into unit-capacity slots ordered by decreasing job size and solve
//     the resulting bipartite matching LP, whose vertices are integral.
//
// The rounded assignment's cost never exceeds the filtered LP cost, and
// each machine's load exceeds its filtered fractional load by at most one
// maximal job size — the "capacity exceeded by a small constant factor"
// the paper reports.
package gap

import (
	"fmt"
	"math"
	"sort"

	"github.com/quorumnet/quorumnet/internal/lp"
)

// Instance is a GAP instance. Cost[u][w] is the cost of placing job u on
// machine w; math.Inf(1) forbids the pair.
type Instance struct {
	Sizes      []float64   // job sizes (load), length = #jobs
	Capacities []float64   // machine capacities, length = #machines
	Cost       [][]float64 // #jobs × #machines
}

// Validate checks dimensions and value ranges.
func (ins *Instance) Validate() error {
	nj, nm := len(ins.Sizes), len(ins.Capacities)
	if nj == 0 || nm == 0 {
		return fmt.Errorf("gap: empty instance (%d jobs, %d machines)", nj, nm)
	}
	if len(ins.Cost) != nj {
		return fmt.Errorf("gap: cost has %d rows, want %d", len(ins.Cost), nj)
	}
	for u, row := range ins.Cost {
		if len(row) != nm {
			return fmt.Errorf("gap: cost row %d has %d entries, want %d", u, len(row), nm)
		}
		for w, c := range row {
			if math.IsNaN(c) || c < 0 {
				return fmt.Errorf("gap: invalid cost %v at (%d,%d)", c, u, w)
			}
		}
	}
	for u, s := range ins.Sizes {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("gap: invalid size %v for job %d", s, u)
		}
	}
	for w, c := range ins.Capacities {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("gap: invalid capacity %v for machine %d", c, w)
		}
	}
	return nil
}

// Fractional is a fractional assignment: x[u][w] is the fraction of job u
// on machine w (rows sum to 1 over finite-cost machines).
type Fractional [][]float64

// SolveLPWith solves the LP relaxation with the given solver options:
//
//	min  Σ cost[u][w]·x[u][w]
//	s.t. Σ_w x[u][w] = 1          for every job u
//	     Σ_u size[u]·x[u][w] ≤ cap[w]  for every machine w
//	     x ≥ 0, x[u][w] = 0 where cost is infinite
//
// It returns lp.ErrInfeasible (wrapped) when capacities cannot host the
// jobs.
func SolveLPWith(ins *Instance, opts lp.Options) (Fractional, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	nj, nm := len(ins.Sizes), len(ins.Capacities)

	// Map finite-cost pairs to LP variables.
	varID := make([][]int, nj)
	nVars := 0
	for u := 0; u < nj; u++ {
		varID[u] = make([]int, nm)
		for w := 0; w < nm; w++ {
			if math.IsInf(ins.Cost[u][w], 1) {
				varID[u][w] = -1
				continue
			}
			varID[u][w] = nVars
			nVars++
		}
	}
	if nVars == 0 {
		return nil, fmt.Errorf("gap: no admissible job-machine pairs: %w", lp.ErrInfeasible)
	}

	p := lp.NewProblem(nVars)
	for u := 0; u < nj; u++ {
		var idx []int
		var coef []float64
		for w := 0; w < nm; w++ {
			if id := varID[u][w]; id >= 0 {
				if err := p.SetObjectiveCoeff(id, ins.Cost[u][w]); err != nil {
					return nil, err
				}
				idx = append(idx, id)
				coef = append(coef, 1)
			}
		}
		if len(idx) == 0 {
			return nil, fmt.Errorf("gap: job %d has no admissible machine: %w", u, lp.ErrInfeasible)
		}
		if err := p.AddConstraint(idx, coef, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	for w := 0; w < nm; w++ {
		var idx []int
		var coef []float64
		for u := 0; u < nj; u++ {
			if id := varID[u][w]; id >= 0 && ins.Sizes[u] > 0 {
				idx = append(idx, id)
				coef = append(coef, ins.Sizes[u])
			}
		}
		if len(idx) == 0 {
			continue
		}
		if err := p.AddConstraint(idx, coef, lp.LE, ins.Capacities[w]); err != nil {
			return nil, err
		}
	}

	sol, err := p.Solve(opts, nil)
	if err != nil {
		return nil, fmt.Errorf("gap: LP relaxation: %w", err)
	}

	x := make(Fractional, nj)
	for u := 0; u < nj; u++ {
		x[u] = make([]float64, nm)
		for w := 0; w < nm; w++ {
			if id := varID[u][w]; id >= 0 {
				v := sol.X[id]
				if v < 1e-9 {
					v = 0
				}
				x[u][w] = v
			}
		}
	}
	return x, nil
}

// Filter applies Lin–Vitter filtering with parameter eps > 0: for each
// job u with fractional average cost C_u, assignments to machines costing
// more than (1+eps)·C_u are dropped and the remainder renormalized. At
// least an eps/(1+eps) fraction of the mass survives, so renormalization
// inflates machine loads by at most (1+eps)/eps.
func Filter(ins *Instance, x Fractional, eps float64) (Fractional, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("gap: filter eps %v must be positive", eps)
	}
	nj, nm := len(ins.Sizes), len(ins.Capacities)
	out := make(Fractional, nj)
	for u := 0; u < nj; u++ {
		cu := 0.0
		for w := 0; w < nm; w++ {
			if x[u][w] > 0 {
				cu += x[u][w] * ins.Cost[u][w]
			}
		}
		limit := (1 + eps) * cu
		out[u] = make([]float64, nm)
		mass := 0.0
		for w := 0; w < nm; w++ {
			if x[u][w] > 0 && ins.Cost[u][w] <= limit+1e-12 {
				out[u][w] = x[u][w]
				mass += x[u][w]
			}
		}
		if mass <= 0 {
			return nil, fmt.Errorf("gap: filtering removed all assignments for job %d", u)
		}
		for w := 0; w < nm; w++ {
			out[u][w] /= mass
		}
	}
	return out, nil
}

// RoundWith converts a fractional assignment into an integral one using
// the Shmoys–Tardos slot construction. The returned slice maps each job
// to its machine. Machine loads exceed the fractional loads of x by at
// most the largest job size assigned fractionally to that machine.
func RoundWith(ins *Instance, x Fractional, opts lp.Options) ([]int, error) {
	nj, nm := len(ins.Sizes), len(ins.Capacities)

	type slotRef struct {
		machine int
		slot    int
	}
	// Build slots per machine: jobs sorted by decreasing size are packed
	// into consecutive unit-capacity slots; a job-slot edge exists for
	// every slot its interval overlaps.
	type edge struct {
		job  int
		slot int // global slot id
		cost float64
	}
	var edges []edge
	var slots []slotRef
	for w := 0; w < nm; w++ {
		var jobs []int
		for u := 0; u < nj; u++ {
			if x[u][w] > 1e-12 {
				jobs = append(jobs, u)
			}
		}
		sort.Slice(jobs, func(a, b int) bool {
			if ins.Sizes[jobs[a]] != ins.Sizes[jobs[b]] {
				return ins.Sizes[jobs[a]] > ins.Sizes[jobs[b]]
			}
			return jobs[a] < jobs[b]
		})
		pos := 0.0
		base := len(slots)
		slotCount := 0
		ensure := func(s int) {
			for slotCount <= s {
				slots = append(slots, slotRef{machine: w, slot: slotCount})
				slotCount++
			}
		}
		for _, u := range jobs {
			f := x[u][w]
			start := pos
			end := pos + f
			firstSlot := int(start + 1e-12)
			lastSlot := int(end - 1e-12)
			if lastSlot < firstSlot {
				lastSlot = firstSlot
			}
			ensure(lastSlot)
			for s := firstSlot; s <= lastSlot; s++ {
				edges = append(edges, edge{job: u, slot: base + s, cost: ins.Cost[u][w]})
			}
			pos = end
		}
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("gap: fractional assignment has empty support: %w", lp.ErrInfeasible)
	}

	// Bipartite matching LP: integral at vertices, so simplex yields a
	// 0/1 solution.
	p := lp.NewProblem(len(edges))
	jobEdges := make([][]int, nj)
	slotEdges := make([][]int, len(slots))
	for id, e := range edges {
		if err := p.SetObjectiveCoeff(id, e.cost); err != nil {
			return nil, err
		}
		jobEdges[e.job] = append(jobEdges[e.job], id)
		slotEdges[e.slot] = append(slotEdges[e.slot], id)
	}
	ones := func(k int) []float64 {
		o := make([]float64, k)
		for i := range o {
			o[i] = 1
		}
		return o
	}
	for u := 0; u < nj; u++ {
		if len(jobEdges[u]) == 0 {
			return nil, fmt.Errorf("gap: job %d lost all assignments during rounding", u)
		}
		if err := p.AddConstraint(jobEdges[u], ones(len(jobEdges[u])), lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	for s := range slots {
		if len(slotEdges[s]) == 0 {
			continue
		}
		if err := p.AddConstraint(slotEdges[s], ones(len(slotEdges[s])), lp.LE, 1); err != nil {
			return nil, err
		}
	}
	sol, err := p.Solve(opts, nil)
	if err != nil {
		return nil, fmt.Errorf("gap: matching LP: %w", err)
	}

	assign := make([]int, nj)
	for u := range assign {
		assign[u] = -1
	}
	for id, e := range edges {
		if sol.X[id] > 0.5 {
			if assign[e.job] != -1 && assign[e.job] != slots[e.slot].machine {
				return nil, fmt.Errorf("gap: job %d matched to two machines (non-integral vertex?)", e.job)
			}
			assign[e.job] = slots[e.slot].machine
		}
	}
	for u, w := range assign {
		if w == -1 {
			return nil, fmt.Errorf("gap: job %d unassigned after rounding", u)
		}
	}
	return assign, nil
}

// Assignment is the result of the full pipeline.
type Assignment struct {
	// MachineOf maps each job to its machine.
	MachineOf []int
	// Cost is the total assignment cost.
	Cost float64
	// Loads is the per-machine load of the integral assignment.
	Loads []float64
	// LPCost is the cost of the (unfiltered) LP relaxation, a lower bound
	// on the optimal integral cost.
	LPCost float64
}

// SolveWith runs LP → filter(eps) → round and summarizes the result,
// threading the solver options through both the relaxation and the
// matching LP.
func SolveWith(ins *Instance, eps float64, opts lp.Options) (*Assignment, error) {
	x, err := SolveLPWith(ins, opts)
	if err != nil {
		return nil, err
	}
	lpCost := 0.0
	for u := range x {
		for w, v := range x[u] {
			if v > 0 {
				lpCost += v * ins.Cost[u][w]
			}
		}
	}
	filtered, err := Filter(ins, x, eps)
	if err != nil {
		return nil, err
	}
	assign, err := RoundWith(ins, filtered, opts)
	if err != nil {
		return nil, err
	}
	out := &Assignment{
		MachineOf: assign,
		Loads:     make([]float64, len(ins.Capacities)),
		LPCost:    lpCost,
	}
	for u, w := range assign {
		out.Cost += ins.Cost[u][w]
		out.Loads[w] += ins.Sizes[u]
	}
	return out, nil
}
