package placement

import (
	"fmt"
	"math"
	"slices"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/par"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// SearchMode selects the anchor-search algorithm for the one-to-one
// constructions.
type SearchMode int

const (
	// SearchAuto uses the pruned search when a score lower bound is
	// available and the candidate set is large enough to pay for the bound
	// computation; small searches stay exhaustive.
	SearchAuto SearchMode = iota
	// SearchExhaustive builds and scores every candidate anchor.
	SearchExhaustive
	// SearchPruned forces the probe-and-prune search whenever a bound is
	// available (ManyToOne has none and always searches exhaustively).
	SearchPruned
)

// Below this many candidates a search is too small for the bound
// computation to pay.
const prunedMinCandidates = 64

// Probe at least this many anchors before pruning, so a bad first probe
// cannot neutralize the bound for the whole search.
const minProbes = 8

// Resolution of the tier-2 bound's Lipschitz grid over the client distance
// range: the bound loses at most (distance range)/boundGridSteps/2 of
// tightness versus evaluating every client exactly.
const boundGridSteps = 256

// boundPayoff is how many times cheaper than scoring an anchor its bound
// must be before SearchAuto prunes. Scoring costs one ExpectedMaxUniform
// per client and the tier-2 bound one per grid point, whether or not it
// prunes the anchor, so the bound pays only when it rules out more than
// 1/boundPayoff of the anchors. Measured on AS graphs with one worker
// (pruned vs exhaustive): at 300 sites the pruned search is slower for
// grid:5 (68 vs 47 ms) and majority(8,15) (67 vs 54 ms), and at 500 still
// slower (131 vs 108, 144 vs 130 ms); at 1000 it wins (463 vs 520,
// 337 vs 725 ms), and from there up.
const boundPayoff = 2

// anchorResult records one candidate anchor's outcome.
type anchorResult struct {
	f        core.Placement
	d        float64
	lb       float64 // admissible lower bound on the score, when pruned
	buildErr error   // build or bound error: anchor skipped
	done     bool    // built and scored
	pruned   bool    // skipped: lb strictly exceeded a scored anchor
}

// Search is the anchor search of one ball-based one-to-one construction
// (OneToOne's threshold ball or grid shells) for one system and one set
// of options, keeping each anchor's exact score, or the bound that
// pruned it, from one Place call to the next. Told which sites' RTT rows changed in
// between, the next call re-evaluates only the anchors those sites can
// affect and still returns exactly the placement a search from scratch
// returns. A Search is not safe for concurrent use.
type Search struct {
	sys  quorum.System
	opts Options
	perm []int // element → ball rank of its host; nil is the identity

	// What the retained results are for: the site count and which sites
	// were eligible hosts. A Place call on anything else starts over.
	eligible []bool
	results  []anchorResult // per candidate, in candidate order

	scored int // anchors scored by the last Place call
}

// NewSearch returns the search behind OneToOne for the system: threshold
// and grid systems have a ball construction; a singleton system has one
// element and no anchors, and Place puts it on the median.
func NewSearch(sys quorum.System, opts Options) (*Search, error) {
	s := &Search{sys: sys, opts: opts}
	switch g := sys.(type) {
	case quorum.Threshold:
		// Elements map onto the ball in increasing-distance order.
	case quorum.Singleton:
	case quorum.Grid:
		s.perm = gridShellRanks(g.Dim())
	default:
		return nil, fmt.Errorf("placement: no one-to-one construction for %s", sys.Name())
	}
	return s, nil
}

// Scored reports how many anchors the last Place call built and scored,
// and how many candidates it chose among.
func (s *Search) Scored() (scored, candidates int) { return s.scored, len(s.results) }

// build maps the universe onto the capacity ball around v0, element u on
// the ball's perm[u]-th closest node.
func (s *Search) build(topo *topology.Topology, v0 int) (core.Placement, error) {
	nodes, err := capacityBall(topo, v0, s.sys.UniverseSize(), s.sys.UniformElementLoad())
	if err != nil {
		return core.Placement{}, err
	}
	if s.perm != nil {
		target := make([]int, len(nodes))
		for u, p := range s.perm {
			target[u] = nodes[p]
		}
		nodes = target
	}
	return core.NewPlacement(nodes, topo)
}

// Place returns the placement of the anchor with the lowest score on
// topo, the earliest such candidate on ties. changed lists the sites
// whose RTT rows differ from the topology of the previous call; it is
// ignored on the first call and whenever the site count or the set of
// eligible hosts differs, which start the search over. Callers whose
// site set changed in any other way must use a new Search.
//
// A retained score is reused unless the anchor or a node of its ball is
// in changed: the score reads only the anchor's row, to pick the ball,
// and the rows of the ball's nodes. A retained bound reads only the
// anchor's row. Anchors that lost their result go through the same
// pipeline as a search from scratch — probe, bound, score what the bound
// cannot rule out — with the incumbent seeded from the retained scores,
// and a retained bound that no longer exceeds the final incumbent is
// replaced by the anchor's score. The pruned search skips an anchor only
// when its score provably exceeds the minimum, and anchors tying the
// minimum are never skipped (their bound cannot strictly exceed it), so
// the merge — a scan in candidate order with a strict improvement test —
// returns what the exhaustive scan would.
func (s *Search) Place(topo *topology.Topology, changed []int) (core.Placement, error) {
	if _, ok := s.sys.(quorum.Singleton); ok {
		return Singleton(topo, 1)
	}
	opts := s.opts
	candidates := opts.candidates(topo)
	minCap := s.sys.UniformElementLoad() - 1e-12
	eligible := make([]bool, topo.Size())
	for w := range eligible {
		eligible[w] = topo.Capacity(w) >= minCap
	}
	if len(s.results) != len(candidates) || !slices.Equal(s.eligible, eligible) {
		s.results = make([]anchorResult, len(candidates))
		changed = nil
	}
	s.eligible = eligible
	results := s.results

	moved := make([]bool, topo.Size())
	for _, v := range changed {
		moved[v] = true
	}
	var rescore, fresh []int
	for i := range results {
		r := &results[i]
		stale := moved[candidates[i]]
		for u := 0; r.done && !stale && u < r.f.UniverseSize(); u++ {
			stale = moved[r.f.Node(u)]
		}
		switch {
		case (r.done || r.pruned) && !stale:
			continue
		case r.done:
			rescore = append(rescore, i)
		default:
			fresh = append(fresh, i)
		}
		*r = anchorResult{}
	}

	s.scored = 0
	scoreOf, err := newScorer(topo, s.sys, opts)
	if err != nil {
		return core.Placement{}, err
	}
	build := func(v0 int) (core.Placement, error) { return s.build(topo, v0) }
	score := func(idx []int) {
		s.scored += len(idx)
		par.For(len(idx), func(k int) {
			results[idx[k]] = evalAnchor(scoreOf, build, candidates[idx[k]])
		})
	}
	incumbent := func() float64 {
		best := math.Inf(1)
		for i := range results {
			if r := &results[i]; r.done && r.d < best {
				best = r.d
			}
		}
		return best
	}

	if !s.usePruned(topo, len(candidates)) {
		score(append(rescore, fresh...))
		return mergeAnchors(results)
	}

	// Anchors that had a score were competitive; scoring them again first
	// sets the incumbent. A search with nothing to go on probes a
	// spread-out subset instead.
	score(rescore)
	best := incumbent()
	if math.IsInf(best, 1) {
		var probes []int
		for _, i := range probeOrder(topo, candidates) {
			if !results[i].done {
				probes = append(probes, i)
			}
		}
		score(probes)
		best = incumbent()
	}

	// Bound phase: an O(n) bound per remaining anchor, in parallel. If
	// every probe was infeasible the incumbent is +Inf and nothing is
	// pruned, which degrades to the exhaustive scan.
	bound := ballBound(topo, s.sys, s.perm, opts)
	var survivors []int
	fresh = slices.DeleteFunc(fresh, func(i int) bool { return results[i].done || results[i].buildErr != nil })
	par.For(len(fresh), func(k int) {
		i := fresh[k]
		lb, err := bound(candidates[i], best)
		if err != nil {
			results[i].buildErr = err
			return
		}
		results[i] = anchorResult{lb: lb, pruned: lb > best}
	})
	for _, i := range fresh {
		if r := &results[i]; r.buildErr == nil && !r.pruned {
			survivors = append(survivors, i)
		}
	}
	score(survivors)

	// A retained bound was set against an earlier incumbent; if the
	// anchors that beat it have since got worse it decides nothing.
	best = incumbent()
	var reopened []int
	for i := range results {
		if r := &results[i]; r.pruned && r.lb <= best {
			reopened = append(reopened, i)
		}
	}
	score(reopened)
	return mergeAnchors(results)
}

// usePruned applies the search mode: SearchAuto prunes when the search is
// large enough and the bound is boundPayoff times cheaper than the
// scoring it can save.
func (s *Search) usePruned(topo *topology.Topology, candidates int) bool {
	switch s.opts.Search {
	case SearchExhaustive:
		return false
	case SearchPruned:
		return true
	}
	if candidates < prunedMinCandidates {
		return false
	}
	if _, balanced := s.opts.scoreBy().(core.BalancedStrategy); !balanced {
		return true // tier 1 alone: one pass over the anchor's row
	}
	return topo.Size() >= boundPayoff*(boundGridSteps+1)
}

// evalAnchor builds and scores one candidate anchor.
func evalAnchor(score func(core.Placement) float64, build func(v0 int) (core.Placement, error), v0 int) anchorResult {
	f, err := build(v0)
	if err != nil {
		return anchorResult{buildErr: err} // e.g. not enough capacity around this anchor
	}
	return anchorResult{f: f, d: score(f), done: true}
}

// searchAnchors builds and scores one candidate placement per anchor and
// keeps the best: the exhaustive search of constructions that have no
// score bound (ManyToOne). Anchors are independent, so they are evaluated
// with par.For; the results are merged in
// candidate order afterwards, which makes the outcome identical to the
// serial scan (ties keep the earliest candidate) regardless of
// scheduling.
func searchAnchors(topo *topology.Topology, sys quorum.System, opts Options,
	build func(v0 int) (core.Placement, error)) (core.Placement, error) {
	scoreOf, err := newScorer(topo, sys, opts)
	if err != nil {
		return core.Placement{}, err
	}
	candidates := opts.candidates(topo)
	results := make([]anchorResult, len(candidates))
	par.For(len(candidates), func(i int) {
		results[i] = evalAnchor(scoreOf, build, candidates[i])
	})
	return mergeAnchors(results)
}

// mergeAnchors folds per-anchor results in candidate order with a strict
// improvement test, so ties keep the earliest candidate regardless of how
// the parallel phases were scheduled.
func mergeAnchors(results []anchorResult) (core.Placement, error) {
	bestDelay := math.Inf(1)
	var best core.Placement
	found := false
	var lastErr error
	for i := range results {
		r := &results[i]
		if r.buildErr != nil {
			lastErr = r.buildErr
			continue
		}
		if !r.done {
			continue // pruned: its score provably exceeds the minimum
		}
		if r.d < bestDelay {
			bestDelay = r.d
			best = r.f
			found = true
		}
	}
	if !found {
		if lastErr != nil {
			return core.Placement{}, fmt.Errorf("placement: no feasible anchor: %w", lastErr)
		}
		return core.Placement{}, fmt.Errorf("placement: no candidate anchors")
	}
	return best, nil
}

// probeOrder returns the indices (into candidates) to score before pruning
// starts: the candidate nearest the topology median first — per the paper,
// the optimum clusters around the median, so this probe usually sets a
// near-final incumbent — then greedy farthest-point traversal so the rest
// of the probes cover the metric. ~√n probes keep the phase cheap while
// giving the k-center guarantee that every anchor is within the covering
// radius of some probe.
func probeOrder(topo *topology.Topology, candidates []int) []int {
	n := len(candidates)
	k := int(math.Sqrt(float64(n)))
	if k < minProbes {
		k = minProbes
	}
	if k > n {
		k = n
	}
	med, _ := topo.Median()
	medRow := topo.RTTRow(med)
	pick := 0
	for i, c := range candidates {
		if medRow[c] < medRow[candidates[pick]] {
			pick = i
		}
	}
	probes := make([]int, 0, k)
	chosen := make([]bool, n)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(probes) < k {
		probes = append(probes, pick)
		chosen[pick] = true
		row := topo.RTTRow(candidates[pick])
		next, nextD := -1, math.Inf(-1)
		for i, c := range candidates {
			if d := row[c]; d < minDist[i] {
				minDist[i] = d
			}
			if !chosen[i] && minDist[i] > nextD {
				next, nextD = i, minDist[i]
			}
		}
		if next < 0 {
			break // k > distinct candidates; duplicates need no probing
		}
		pick = next
	}
	return probes
}

// ballBound builds the admissible score lower bound for the ball-based
// one-to-one constructions. perm maps element u to the ball rank of its
// host node (nil means identity, as in the Majority construction); it must
// match what the construction's build function assigns.
//
// Tier 1 (any strategy, O(sites)): every element of anchor v0's placement
// lies in the capacity ball of radius r(v0) around v0, so by the triangle
// inequality any quorum access from client v costs at least
// d(v,v0) − r(v0), and the average network delay is at least
// avg_v max(0, d(v,v0) − r(v0)).
//
// Tier 2 (balanced scoring only): with the uniform strategy the score is
// avg_v ExpectedMaxUniform(cost_v), and ExpectedMaxUniform — an
// expectation of maxima over a fixed quorum distribution — is
// coordinate-wise monotone. Element u sits on the ball node with shell
// distance s[perm[u]], so both triangle bounds give
// cost_v[u] ≥ |d(v,v0) − s[perm[u]]|, and feeding that pointwise floor
// through ExpectedMaxUniform lower-bounds the true score. This is the
// bound that bites on small-world metrics (AS graphs), where tier 1's
// worst-case-quorum floor is far below the uniform strategy's
// expected max. Tier 2 runs only when tier 1 failed to prune.
//
// The floor vector depends on the client only through t = d(v,v0), so
// tier 2 is really a scalar function φ(t) — and φ is 1-Lipschitz (each
// coordinate of the floor is 1-Lipschitz in t, and an expectation of
// maxima preserves that). Instead of paying an ExpectedMaxUniform per
// client, φ is evaluated on a boundGridSteps-point grid over the client
// distance range and extended downward by Lipschitz continuity
// (φ(t) ≥ φ(x) − |t−x|), keeping the per-anchor cost at
// O(grid·universe·log universe + sites) while giving up at most half a
// grid step of bound tightness.
func ballBound(topo *topology.Topology, sys quorum.System, perm []int, opts Options) func(int, float64) (float64, error) {
	nUniv := sys.UniverseSize()
	minCap := sys.UniformElementLoad()
	_, balanced := opts.scoreBy().(core.BalancedStrategy)
	return func(v0 int, incumbent float64) (float64, error) {
		shell, err := ballShell(topo, v0, nUniv, minCap)
		if err != nil {
			return 0, err
		}
		r := shell[len(shell)-1]
		row := topo.RTTRow(v0)
		nc := float64(len(row))

		sum := 0.0
		for _, t := range row {
			if t > r {
				sum += t - r
			}
		}
		lb := sum / nc
		if !balanced || lb > incumbent {
			return lb, nil
		}

		maxT := 0.0
		for _, t := range row {
			if t > maxT {
				maxT = t
			}
		}
		if maxT <= 0 {
			return lb, nil
		}
		h := maxT / boundGridSteps
		floor := make([]float64, nUniv)
		phi := make([]float64, boundGridSteps+1)
		for g := range phi {
			t := float64(g) * h
			for u := range floor {
				s := shell[u]
				if perm != nil {
					s = shell[perm[u]]
				}
				if t >= s {
					floor[u] = t - s
				} else {
					floor[u] = s - t
				}
			}
			phi[g] = sys.ExpectedMaxUniform(floor)
		}
		sum = 0
		for _, t := range row {
			g := int(t / h)
			if g >= boundGridSteps {
				g = boundGridSteps - 1
			}
			lo := phi[g] - (t - float64(g)*h)
			if hi := phi[g+1] - (float64(g+1)*h - t); hi > lo {
				lo = hi
			}
			if lo > 0 {
				sum += lo
			}
		}
		if lb2 := sum / nc; lb2 > lb {
			lb = lb2
		}
		return lb, nil
	}
}

// ballShell returns the distances from v0 to the members of
// capacityBall(topo, v0, n, minCap), in increasing order.
func ballShell(topo *topology.Topology, v0, n int, minCap float64) ([]float64, error) {
	ball, err := capacityBall(topo, v0, n, minCap)
	if err != nil {
		return nil, err
	}
	row := topo.RTTRow(v0)
	shell := make([]float64, len(ball))
	for i, w := range ball {
		shell[i] = row[w]
	}
	return shell, nil
}
