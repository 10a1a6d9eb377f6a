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
	// ClientNodeLoads returns load_{v,f}(w) for every node w: the
	// expected per-request demand client v places on node w under the
	// given load mode.
	ClientNodeLoads(e *Eval, v int, mode LoadMode) []float64
	// ExpectedMax returns Σ_Q p_v(Q)·max_{u ∈ Q} elemCost[u] for client
	// v, the inner expectation of (4.2) with an arbitrary per-element
	// cost vector. elemCost is the caller's scratch: read it, do not keep
	// it.
	ExpectedMax(e *Eval, v int, elemCost []float64) float64
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
func (ClosestStrategy) ClientNodeLoads(e *Eval, v int, mode LoadMode) []float64 {
	loads := make([]float64, e.Topo.Size())
	elems, _ := e.Sys.ClosestQuorum(e.elementNetCosts(v))
	switch mode {
	case LoadDedup:
		for _, w := range e.F.QuorumNodes(elems) {
			loads[w] = 1
		}
	default:
		for _, u := range elems {
			loads[e.F.Node(u)]++
		}
	}
	return loads
}

// ExpectedMax implements Strategy.
func (ClosestStrategy) ExpectedMax(e *Eval, v int, elemCost []float64) float64 {
	elems, _ := e.Sys.ClosestQuorum(e.elementNetCosts(v))
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
func (BalancedStrategy) ClientNodeLoads(e *Eval, v int, mode LoadMode) []float64 {
	loads := make([]float64, e.Topo.Size())
	switch mode {
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
	return loads
}

// ExpectedMax implements Strategy.
func (BalancedStrategy) ExpectedMax(e *Eval, v int, elemCost []float64) float64 {
	return e.Sys.ExpectedMaxUniform(elemCost)
}

// ExplicitStrategy holds an explicit per-client distribution over the
// enumerated quorums of the system — the output of the access-strategy LP
// (4.3)–(4.6). Probs[v][i] is p_v(Q_i) for client index v (aligned with
// Eval.Clients ordering: Probs[k] corresponds to the k-th client).
type ExplicitStrategy struct {
	// Probs[k][i] is the probability that the k-th client accesses
	// quorum i.
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
func (s *ExplicitStrategy) ClientNodeLoads(e *Eval, v int, mode LoadMode) []float64 {
	k := e.clientIndex(v)
	loads := make([]float64, e.Topo.Size())
	for i, p := range s.Probs[k] {
		if p <= 0 {
			continue
		}
		elems := e.quorumElems(i)
		switch mode {
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
	return loads
}

// ExpectedMax implements Strategy.
func (s *ExplicitStrategy) ExpectedMax(e *Eval, v int, elemCost []float64) float64 {
	k := e.clientIndex(v)
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
