package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// LoadMode selects how a node hosting several universe elements is
// charged when a quorum touches more than one of them.
type LoadMode int

const (
	// LoadMultiplicity is the paper's model: a node's load counts each
	// hosted element separately (load_{v,f}(w) = Σ_{u: f(u)=w} load_v(u)).
	LoadMultiplicity LoadMode = iota + 1
	// LoadDedup is the §8 future-work variant: a node executes a request
	// once no matter how many of its elements the quorum contains.
	LoadDedup
)

func (m LoadMode) String() string {
	switch m {
	case LoadMultiplicity:
		return "multiplicity"
	case LoadDedup:
		return "dedup"
	default:
		return fmt.Sprintf("LoadMode(%d)", int(m))
	}
}

// Strategy is a family of per-client access strategies {p_v}: for each
// client, a distribution over the quorums of the evaluation's system.
// Implementations exploit structure so that non-enumerable threshold
// systems remain exactly evaluable.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// ClientNodeLoads writes load_{v,f}(w) into loads[w] for every node
	// w: the expected per-request demand client k (node v = e.Clients[k])
	// places on node w under e.Mode. loads is the caller's buffer, zeroed
	// and Topo.Size() long: fill it, do not keep it.
	ClientNodeLoads(e *Eval, k int, loads []float64)
	// ExpectedMax returns Σ_Q p_v(Q)·max_{u ∈ Q} elemCost[u] for client
	// k, the inner expectation of (4.2) with an arbitrary per-element
	// cost vector. elemCost is the caller's scratch: read it, do not keep
	// it.
	ExpectedMax(e *Eval, k int, elemCost []float64) float64
}

// ClosestStrategy is §6's "closest quorum access strategy": every client
// deterministically uses the quorum minimizing its network delay
// max_{w∈f(Q)} d(v, w). Selection ignores load even when the evaluation
// charges it (§7 evaluates exactly this behaviour), so the evaluation
// chooses each client's quorum once and both methods read that choice.
type ClosestStrategy struct{}

var _ Strategy = ClosestStrategy{}

// Name implements Strategy.
func (ClosestStrategy) Name() string { return "closest" }

// ClientNodeLoads implements Strategy.
func (ClosestStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	switch e.Mode {
	case LoadDedup:
		for _, u := range e.closestQuorum(k) {
			loads[e.F.Node(u)] = 1
		}
	default:
		for _, u := range e.closestQuorum(k) {
			loads[e.F.Node(u)]++
		}
	}
}

// ExpectedMax implements Strategy.
func (ClosestStrategy) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	maxC := math.Inf(-1)
	for _, u := range e.closestQuorum(k) {
		if elemCost[u] > maxC {
			maxC = elemCost[u]
		}
	}
	return maxC
}

// BalancedStrategy is the uniform access strategy: every client samples a
// quorum uniformly at random, dispersing demand evenly (the paper's
// "balanced" strategy).
type BalancedStrategy struct{}

var _ Strategy = BalancedStrategy{}

// Name implements Strategy.
func (BalancedStrategy) Name() string { return "balanced" }

// ClientNodeLoads implements Strategy.
func (BalancedStrategy) ClientNodeLoads(e *Eval, _ int, loads []float64) {
	switch e.Mode {
	case LoadDedup:
		for _, w := range e.F.Support() {
			loads[w] = e.Sys.UniformTouchProbability(e.F.ElementsOn(w))
		}
	default:
		per := e.Sys.UniformElementLoad()
		for u := 0; u < e.F.UniverseSize(); u++ {
			loads[e.F.Node(u)] += per
		}
	}
}

// ExpectedMax implements Strategy.
func (BalancedStrategy) ExpectedMax(e *Eval, _ int, elemCost []float64) float64 {
	return e.Sys.ExpectedMaxUniform(elemCost)
}

// Access is one entry of an access row: the client uses quorum Q, an
// index into the system's enumeration, with probability P.
type Access struct {
	Q int
	P float64
}

// ExplicitStrategy holds an explicit per-client distribution over the
// enumerated quorums of the system — the output of the access-strategy LP
// (4.3)–(4.6) — as its support. A basic optimum of that LP has at most
// one nonzero per convexity and capacity row, so a row holds about one
// quorum, not all of them.
type ExplicitStrategy struct {
	// Rows[k] is the access row of client k (node Eval.Clients[k]): the
	// quorums it uses, each with P > 0, in ascending Q. Clients may share
	// one row; treat rows as immutable.
	Rows [][]Access
	// Label names the strategy in reports (defaults to "explicit").
	Label string
}

var _ Strategy = (*ExplicitStrategy)(nil)

// NormalizeRow makes an access row of (quorum, weight) entries in place:
// it sorts them by quorum, drops those with P ≤ 0, and divides the rest
// by their sum, added in ascending quorum order (a zero sum divides
// nothing). It returns the row and the sum. A dense loop over every
// quorum that skips zeros adds the same operands in the same order, so
// the row has the bits such a loop gave.
func NormalizeRow(row []Access) ([]Access, float64) {
	slices.SortFunc(row, func(a, b Access) int { return cmp.Compare(a.Q, b.Q) })
	row = slices.DeleteFunc(row, func(a Access) bool { return !(a.P > 0) })
	sum := 0.0
	for _, a := range row {
		sum += a.P
	}
	if sum > 0 {
		for t := range row {
			row[t].P /= sum
		}
	}
	return row, sum
}

// Name implements Strategy.
func (s *ExplicitStrategy) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "explicit"
}

// Validate checks that there is one row per client of the evaluation and
// that each is a distribution over valid quorum indices, listed once each
// in ascending order with positive probabilities.
func (s *ExplicitStrategy) Validate(e *Eval) error {
	if !e.Sys.Enumerable() {
		return fmt.Errorf("core: explicit strategy requires an enumerable system, got %s", e.Sys.Name())
	}
	if len(s.Rows) != len(e.Clients) {
		return fmt.Errorf("core: %d strategy rows for %d clients", len(s.Rows), len(e.Clients))
	}
	m := e.Sys.NumQuorums()
	for k, row := range s.Rows {
		sum := 0.0
		for t, a := range row {
			switch {
			case a.Q < 0 || a.Q >= m:
				return fmt.Errorf("core: client %d accesses quorum %d of %d", k, a.Q, m)
			case t > 0 && a.Q <= row[t-1].Q:
				return fmt.Errorf("core: client %d lists quorum %d after quorum %d", k, a.Q, row[t-1].Q)
			case !(a.P > 0):
				return fmt.Errorf("core: client %d has invalid probability %v for quorum %d", k, a.P, a.Q)
			}
			sum += a.P
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: client %d probabilities sum to %v, want 1", k, sum)
		}
	}
	return nil
}

// ClientNodeLoads implements Strategy. Under multiplicity it adds p once
// per element, not p times the host's count: x+p+p and x+2p round
// differently.
func (s *ExplicitStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	for _, a := range s.Rows[k] {
		if e.Mode == LoadDedup {
			for _, h := range e.QuorumHosts()[a.Q] {
				loads[h.Node] += a.P
			}
			continue
		}
		for _, u := range e.quorumElems(a.Q) {
			loads[e.F.Node(u)] += a.P
		}
	}
}

// ExpectedMax implements Strategy.
func (s *ExplicitStrategy) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	sum := 0.0
	for _, a := range s.Rows[k] {
		maxC := math.Inf(-1)
		for _, u := range e.quorumElems(a.Q) {
			if elemCost[u] > maxC {
				maxC = elemCost[u]
			}
		}
		sum += a.P * maxC
	}
	return sum
}
