// Package placement implements the paper's quorum-placement algorithms
// (§4.1): the optimal single-client one-to-one constructions for Majority
// (distance balls) and Grid (the shell construction), lifted to
// all-clients placements by anchoring at every candidate node; the
// singleton (graph median) placement; the many-to-one almost-capacity-
// respecting placement built on the GAP pipeline; and the iterative
// placement/strategy algorithm of §4.2.
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/gap"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Options tunes the placement search.
type Options struct {
	// ScoreBy is the access strategy used to score candidate placements
	// by average network delay over all clients. The paper anchors on the
	// uniform strategy (§4.1); nil defaults to core.BalancedStrategy.
	ScoreBy core.Strategy
	// Candidates restricts the anchor nodes v0 tried; nil tries every
	// node.
	Candidates []int
	// Search selects the anchor-search algorithm for the ball-based
	// one-to-one constructions. SearchAuto (the default) switches to the
	// probe-and-prune search on large candidate sets; SearchExhaustive
	// scores every anchor; SearchPruned forces pruning. All modes return
	// the identical placement — pruning only skips anchors whose score
	// lower bound strictly exceeds an already-scored candidate.
	Search SearchMode
}

func (o Options) scoreBy() core.Strategy {
	if o.ScoreBy == nil {
		return core.BalancedStrategy{}
	}
	return o.ScoreBy
}

func (o Options) candidates(topo *topology.Topology) []int {
	if o.Candidates != nil {
		return o.Candidates
	}
	all := make([]int, topo.Size())
	for i := range all {
		all[i] = i
	}
	return all
}

// Singleton places all elements of an n-element universe on the median of
// the graph — the 2-approximation baseline (Lin).
func Singleton(topo *topology.Topology, n int) (core.Placement, error) {
	node, _ := topo.Median()
	return core.SingletonPlacement(n, node, topo)
}

// newScorer returns the score of one search's candidate placements:
// their average network delay under the scoring strategy. Every anchor's
// evaluator shares one base's client list and weight vector
// (core.Eval.WithPlacement), so scoring an anchor allocates nothing
// sites-sized.
func newScorer(topo *topology.Topology, sys quorum.System, opts Options) (func(core.Placement) float64, error) {
	// The base's own placement is never scored: each anchor replaces it.
	f, err := core.SingletonPlacement(sys.UniverseSize(), 0, topo)
	if err != nil {
		return nil, err
	}
	base, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		return nil, err
	}
	by := opts.scoreBy()
	return func(f core.Placement) float64 { return base.WithPlacement(f).AvgNetworkDelay(by) }, nil
}

// gridShellRanks returns the shell construction's element→ball-rank map:
// element u of the k×k grid is hosted on the gridShellRanks(k)[u]-th
// closest ball node. The ball is filled in L-shaped shells from the
// top-left in decreasing-distance order, so the bottom-right row+column
// quorum consists of the 2k−1 closest nodes.
func gridShellRanks(k int) []int {
	n := k * k
	perm := make([]int, n)
	rank := 0
	assign := func(row, col int) {
		perm[row*k+col] = n - 1 - rank
		rank++
	}
	assign(0, 0)
	for s := 1; s < k; s++ {
		for row := 0; row < s; row++ {
			assign(row, s)
		}
		for col := 0; col <= s; col++ {
			assign(s, col)
		}
	}
	return perm
}

// OneToOne runs the construction matching the system's type: one Place
// call on a fresh Search. A threshold system maps onto the ball
// B(v0, n) of the n nodes closest to each anchor v0 whose capacity
// covers the uniform per-element load (Gupta et al. showed any
// one-to-one map onto a fixed ball has the same single-client delay); a
// k×k grid fills that ball in L-shaped shells (gridShellRanks), so the
// bottom-right row+column quorum consists of the 2k−1 closest nodes.
// The anchor with the lowest all-clients average delay wins.
func OneToOne(topo *topology.Topology, sys quorum.System, opts Options) (core.Placement, error) {
	s, err := NewSearch(sys, opts)
	if err != nil {
		return core.Placement{}, err
	}
	return s.Place(topo, nil)
}

// capacityBall returns the n nodes closest to v0 whose capacity is at
// least minCap, per the paper's requirement cap(v) ≥ load_f(u), in
// topology.Ball's order: increasing distance, ties by node id. A size-n
// max-heap under that order selects them in O(sites·log n) instead of
// sorting every site.
func capacityBall(topo *topology.Topology, v0, n int, minCap float64) ([]int, error) {
	row := topo.RTTRow(v0)
	order := func(a, b int) int {
		if c := cmp.Compare(row[a], row[b]); c != 0 {
			return c
		}
		return a - b
	}
	after := func(a, b int) bool { return order(a, b) > 0 }
	h := make([]int, 0, n)
	for w := range row {
		if topo.Capacity(w) < minCap-1e-12 {
			continue
		}
		if len(h) < n {
			h = append(h, w)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !after(h[i], h[p]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		} else if n > 0 && after(h[0], w) {
			h[0] = w
			for i := 0; ; {
				m := i
				if l := 2*i + 1; l < n && after(h[l], h[m]) {
					m = l
				}
				if r := 2*i + 2; r < n && after(h[r], h[m]) {
					m = r
				}
				if m == i {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
	}
	if len(h) < n {
		return nil, fmt.Errorf("placement: only %d of %d nodes have capacity ≥ %v", len(h), n, minCap)
	}
	slices.SortFunc(h, order)
	return h, nil
}

// ManyToOneConfig parameterizes the §4.1.2 almost-capacity-respecting
// placement.
type ManyToOneConfig struct {
	// ElementLoads gives load_p(u) for the shared access strategy p. Nil
	// defaults to the uniform strategy's loads.
	ElementLoads []float64
	// ScoreBy scores candidate placements (defaults to the balanced
	// strategy, matching ElementLoads' default).
	ScoreBy core.Strategy
	// Candidates as in Options.
	Candidates []int
	// LP passes solver options through to the GAP pipeline's LPs. The
	// zero value reproduces the original solver's pivot sequence;
	// lp.PricingPartial trades that bit-reproducibility for speed.
	LP lp.Options
}

// linVitterEps is the Lin–Vitter filtering parameter of ManyToOne's GAP
// pipeline.
const linVitterEps = 1

// ManyToOne computes the almost-capacity-respecting many-to-one placement:
// for each anchor v0 it solves the GAP LP relaxation with costs
// load_p(u)·d(v0, w), filters (Lin–Vitter), rounds (Shmoys–Tardos), and
// returns the anchor whose placement minimizes the all-clients average
// network delay. Node capacities come from the topology and may be
// exceeded by the bounded rounding violation.
func ManyToOne(topo *topology.Topology, sys quorum.System, cfg ManyToOneConfig) (core.Placement, error) {
	n := sys.UniverseSize()
	loads := cfg.ElementLoads
	if loads == nil {
		loads = make([]float64, n)
		for u := range loads {
			loads[u] = sys.UniformElementLoad()
		}
	}
	if len(loads) != n {
		return core.Placement{}, fmt.Errorf("placement: %d element loads for universe %d", len(loads), n)
	}
	opts := Options{ScoreBy: cfg.ScoreBy, Candidates: cfg.Candidates}

	caps := topo.Capacities()
	return searchAnchors(topo, sys, opts, func(v0 int) (core.Placement, error) {
		row := topo.RTTRow(v0)
		cost := make([][]float64, n)
		for u := 0; u < n; u++ {
			cost[u] = make([]float64, topo.Size())
			for w := range cost[u] {
				cost[u][w] = loads[u] * row[w]
			}
		}
		ins := &gap.Instance{Sizes: loads, Capacities: caps, Cost: cost}
		a, err := gap.SolveWith(ins, linVitterEps, cfg.LP)
		if err != nil {
			return core.Placement{}, fmt.Errorf("placement: anchor %d: %w", v0, err)
		}
		return core.NewPlacement(a.MachineOf, topo)
	})
}
