package core

import (
	"fmt"
	"math"
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
// charges it (§7 evaluates exactly this behaviour).
type ClosestStrategy struct{}

var _ Strategy = ClosestStrategy{}

// Name implements Strategy.
func (ClosestStrategy) Name() string { return "closest" }

// ClientNodeLoads implements Strategy.
func (ClosestStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	elems, _ := e.Sys.ClosestQuorum(e.elementNetCosts(e.Clients[k]))
	switch e.Mode {
	case LoadDedup:
		for _, w := range e.F.QuorumNodes(elems) {
			loads[w] = 1
		}
	default:
		for _, u := range elems {
			loads[e.F.Node(u)]++
		}
	}
}

// ExpectedMax implements Strategy.
func (ClosestStrategy) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	elems, _ := e.Sys.ClosestQuorum(e.elementNetCosts(e.Clients[k]))
	maxC := math.Inf(-1)
	for _, u := range elems {
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

// ExplicitStrategy holds an explicit per-client distribution over the
// enumerated quorums of the system — the output of the access-strategy LP
// (4.3)–(4.6).
type ExplicitStrategy struct {
	// Probs[k][i] is the probability that client k (node
	// Eval.Clients[k]) accesses quorum i.
	Probs [][]float64
	// Label names the strategy in reports (defaults to "explicit").
	Label string
}

var _ Strategy = (*ExplicitStrategy)(nil)

// Name implements Strategy.
func (s *ExplicitStrategy) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "explicit"
}

// Validate checks dimensions against the evaluation and that each row is
// a distribution.
func (s *ExplicitStrategy) Validate(e *Eval) error {
	if !e.Sys.Enumerable() {
		return fmt.Errorf("core: explicit strategy requires an enumerable system, got %s", e.Sys.Name())
	}
	if len(s.Probs) != len(e.Clients) {
		return fmt.Errorf("core: %d strategy rows for %d clients", len(s.Probs), len(e.Clients))
	}
	m := e.Sys.NumQuorums()
	for k, row := range s.Probs {
		if len(row) != m {
			return fmt.Errorf("core: client %d has %d quorum probabilities, want %d", k, len(row), m)
		}
		sum := 0.0
		for i, p := range row {
			if p < -1e-9 || math.IsNaN(p) {
				return fmt.Errorf("core: client %d has invalid probability %v for quorum %d", k, p, i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: client %d probabilities sum to %v, want 1", k, sum)
		}
	}
	return nil
}

// ClientNodeLoads implements Strategy.
func (s *ExplicitStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	for i, p := range s.Probs[k] {
		if p <= 0 {
			continue
		}
		elems := e.quorumElems(i)
		switch e.Mode {
		case LoadDedup:
			for _, w := range e.F.QuorumNodes(elems) {
				loads[w] += p
			}
		default:
			for _, u := range elems {
				loads[e.F.Node(u)] += p
			}
		}
	}
}

// ExpectedMax implements Strategy.
func (s *ExplicitStrategy) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	sum := 0.0
	for i, p := range s.Probs[k] {
		if p <= 0 {
			continue
		}
		maxC := math.Inf(-1)
		for _, u := range e.quorumElems(i) {
			if elemCost[u] > maxC {
				maxC = elemCost[u]
			}
		}
		sum += p * maxC
	}
	return sum
}
