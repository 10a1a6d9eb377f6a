package faults

import (
	"fmt"
	"slices"
	"sort"

	"github.com/quorumnet/quorumnet/internal/core"
)

// Unreplanned evaluates a deployment that does NOT re-plan around a node
// failure: the placement stays where it was (elements on failed nodes
// simply die), and each surviving client keeps its access strategy,
// renormalized over the quorums that survive. This is the counterfactual
// the planner-level fault comparison reports: the response time a
// deployment pays for keeping its pre-failure plan, side by side with
// the re-planned one.
//
// The closest and balanced strategies adapt to the survivor system by
// definition and pass through unchanged; an explicit (LP-optimized)
// strategy is projected: each client's probability mass on dead quorums
// is redistributed proportionally over its surviving quorums, and a
// client whose entire mass died falls back to the balanced strategy over
// the survivors. Client demand weights carry over to the surviving
// clients. Returns quorum.ErrNoQuorumSurvives (wrapped) when the failure
// kills every quorum.
func Unreplanned(e *core.Eval, s core.Strategy, failedNodes []int) (*core.Eval, core.Strategy, error) {
	fe, err := Apply(e, failedNodes)
	if err != nil {
		return nil, nil, err
	}

	// Apply keeps the surviving clients in order, so survivor client j is
	// pre-failure client orig[j]. Carry their demand weights over (Apply
	// resets the client set, which drops positional weights).
	failed := make([]bool, e.Topo.Size())
	for _, n := range failedNodes {
		failed[n] = true
	}
	orig := make([]int, 0, len(fe.Clients))
	w := make([]float64, 0, len(fe.Clients))
	for k, v := range e.Clients {
		if !failed[v] {
			orig = append(orig, k)
			w = append(w, e.ClientWeight(k))
		}
	}
	if err := fe.SetClientWeights(w); err != nil {
		return nil, nil, err
	}

	es, ok := s.(*core.ExplicitStrategy)
	if !ok {
		return fe, s, nil
	}
	rs, err := restrictExplicit(e, es, fe, failed, orig)
	if err != nil {
		return nil, nil, err
	}
	return fe, rs, nil
}

// restrictExplicit projects an explicit strategy from e onto the
// survivor evaluation fe, whose client j is e's client orig[j]. Quorums
// are matched by element identity (the survivor system re-indexes its
// universe), so the projection is independent of enumeration order.
func restrictExplicit(e *core.Eval, s *core.ExplicitStrategy, fe *core.Eval, failed []bool, orig []int) (*core.ExplicitStrategy, error) {
	if !e.Sys.Enumerable() || !fe.Sys.Enumerable() {
		return nil, fmt.Errorf("faults: cannot project an explicit strategy over non-enumerable system %s", e.Sys.Name())
	}
	deadElem := make([]bool, e.F.UniverseSize())
	var alive []int // survivor element id → original element id
	for u := 0; u < e.F.UniverseSize(); u++ {
		if failed[e.F.Node(u)] {
			deadElem[u] = true
		} else {
			alive = append(alive, u)
		}
	}

	// Index the original system's surviving quorums by their (sorted)
	// original element sets.
	key := func(elems []int) string {
		sorted := append([]int(nil), elems...)
		sort.Ints(sorted)
		return fmt.Sprint(sorted)
	}
	origIdx := make(map[string]int)
	for i := 0; i < e.Sys.NumQuorums(); i++ {
		q := e.Sys.Quorum(i)
		ok := true
		for _, u := range q {
			if deadElem[u] {
				ok = false
				break
			}
		}
		if ok {
			origIdx[key(q)] = i
		}
	}

	// Map each surviving original quorum to its survivor index.
	m := fe.Sys.NumQuorums()
	survivor := slices.Repeat([]int{-1}, e.Sys.NumQuorums())
	for j := 0; j < m; j++ {
		q := fe.Sys.Quorum(j)
		orig := make([]int, len(q))
		for t, u := range q {
			orig[t] = alive[u]
		}
		i, ok := origIdx[key(orig)]
		if !ok {
			return nil, fmt.Errorf("faults: survivor quorum %v has no pre-failure counterpart", orig)
		}
		survivor[i] = j
	}

	// Project each surviving client's row and renormalize.
	uniform := make([]core.Access, m)
	for j := range uniform {
		uniform[j] = core.Access{Q: j, P: 1 / float64(m)}
	}
	rows := make([][]core.Access, len(orig))
	for k, ki := range orig {
		var row []core.Access
		for _, a := range s.Rows[ki] {
			if j := survivor[a.Q]; j >= 0 {
				row = append(row, core.Access{Q: j, P: a.P})
			}
		}
		row, sum := core.NormalizeRow(row)
		if sum <= 1e-12 {
			// The client's entire mass died with the failure: balanced
			// fallback over the survivors.
			row = uniform
		}
		rows[k] = row
	}
	label := s.Name()
	if label == "" {
		label = "explicit"
	}
	return &core.ExplicitStrategy{Rows: rows, Label: label + "-unreplanned"}, nil
}
