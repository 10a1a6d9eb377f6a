package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func testTopo(t *testing.T, n int, seed int64) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1+rng.Float64()*99)
		}
	}
	m.MetricClosure()
	tp, err := topology.New("test", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func mustGrid(t *testing.T, k int) quorum.Grid {
	t.Helper()
	s, err := quorum.NewGrid(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustThreshold(t *testing.T, q, n int) quorum.Threshold {
	t.Helper()
	s, err := quorum.NewThreshold(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingletonAtMedian(t *testing.T) {
	topo := testTopo(t, 12, 1)
	f, err := Singleton(topo, 5)
	if err != nil {
		t.Fatal(err)
	}
	median, _ := topo.Median()
	for u := 0; u < 5; u++ {
		if f.Node(u) != median {
			t.Errorf("element %d on node %d, want median %d", u, f.Node(u), median)
		}
	}
}

func TestMajorityOneToOneIsOneToOne(t *testing.T) {
	topo := testTopo(t, 15, 2)
	sys := mustThreshold(t, 4, 7)
	f, err := OneToOne(topo, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !oneToOne(f) {
		t.Error("majority placement is not one-to-one")
	}
	if f.UniverseSize() != 7 {
		t.Errorf("universe = %d, want 7", f.UniverseSize())
	}
}

// TestMajoritySingleClientOptimal: anchored and evaluated at one client,
// the closest-quorum delay must equal the q-th smallest distance from
// that client — the information-theoretic optimum for one-to-one
// placements.
func TestMajoritySingleClientOptimal(t *testing.T) {
	topo := testTopo(t, 15, 3)
	sys := mustThreshold(t, 4, 7)
	const v0 = 3
	f, err := OneToOne(topo, sys, Options{
		Candidates: []int{v0},
		ScoreBy:    core.ClosestStrategy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients([]int{v0}); err != nil {
		t.Fatal(err)
	}
	got := e.AvgNetworkDelay(core.ClosestStrategy{})

	dists := topo.Distances().Row(v0)
	sort.Float64s(dists)
	want := dists[sys.QuorumSize()-1] // q-th smallest including self (0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("single-client majority delay = %v, want %v", got, want)
	}
}

// TestGridSingleClientOptimal: the shell construction's closest quorum
// for the anchor consists of the 2k−1 nearest nodes.
func TestGridSingleClientOptimal(t *testing.T) {
	topo := testTopo(t, 30, 4)
	sys := mustGrid(t, 4)
	const v0 = 7
	f, err := OneToOne(topo, sys, Options{
		Candidates: []int{v0},
		ScoreBy:    core.ClosestStrategy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients([]int{v0}); err != nil {
		t.Fatal(err)
	}
	got := e.AvgNetworkDelay(core.ClosestStrategy{})

	dists := topo.Distances().Row(v0)
	sort.Float64s(dists)
	want := dists[sys.QuorumSize()-1]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("single-client grid delay = %v, want %v (2k-1-th smallest)", got, want)
	}
}

// TestGridShellBeatsReversed: the paper's shell order (big distances in
// the top-left) must beat the reversed order for the anchor client under
// the uniform strategy.
func TestGridShellBeatsReversed(t *testing.T) {
	topo := testTopo(t, 30, 5)
	sys := mustGrid(t, 4)
	const v0 = 0
	f, err := OneToOne(topo, sys, Options{Candidates: []int{v0}})
	if err != nil {
		t.Fatal(err)
	}
	// Reversed: same ball, but big distances in the bottom-right.
	targets := f.Targets()
	rev := make([]int, len(targets))
	for i := range targets {
		rev[i] = targets[len(targets)-1-i]
	}
	fr, err := core.NewPlacement(rev, topo)
	if err != nil {
		t.Fatal(err)
	}
	delay := func(p core.Placement) float64 {
		e, err := core.NewEval(topo, sys, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetClients([]int{v0}); err != nil {
			t.Fatal(err)
		}
		return e.AvgNetworkDelay(core.BalancedStrategy{})
	}
	if ds, dr := delay(f), delay(fr); ds > dr+1e-9 {
		t.Errorf("shell placement delay %v worse than reversed %v", ds, dr)
	}
}

func TestOneToOneDispatch(t *testing.T) {
	topo := testTopo(t, 12, 6)
	for _, sys := range []quorum.System{mustThreshold(t, 3, 5), mustGrid(t, 3), quorum.Singleton{}} {
		f, err := OneToOne(topo, sys, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if f.UniverseSize() != sys.UniverseSize() {
			t.Errorf("%s: placed %d elements, want %d", sys.Name(), f.UniverseSize(), sys.UniverseSize())
		}
	}
}

func TestCapacityFilterExcludesSmallNodes(t *testing.T) {
	topo := testTopo(t, 10, 7)
	sys := mustThreshold(t, 3, 5) // uniform element load 0.6
	// Nodes 0..4 get capacity below the element load.
	for w := 0; w < 5; w++ {
		if err := topo.SetCapacity(w, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	f, err := OneToOne(topo, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Support() {
		if w < 5 {
			t.Errorf("support includes low-capacity node %d", w)
		}
	}
}

func TestCapacityFilterInfeasible(t *testing.T) {
	topo := testTopo(t, 6, 8)
	sys := mustThreshold(t, 3, 5)
	for w := 0; w < 6; w++ {
		if err := topo.SetCapacity(w, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OneToOne(topo, sys, Options{}); err == nil {
		t.Error("placement succeeded with insufficient capacities")
	}
}

// sortedCapacityBall is the reference for capacityBall's selection: every
// site in topology.Ball order, filtered by capacity.
func sortedCapacityBall(topo *topology.Topology, v0, n int, minCap float64) ([]int, error) {
	out := make([]int, 0, n)
	for _, w := range topo.Ball(v0, topo.Size()) {
		if topo.Capacity(w) >= minCap-1e-12 {
			out = append(out, w)
			if len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("placement: only %d of %d nodes have capacity ≥ %v", len(out), n, minCap)
}

// TestCapacityBallMatchesSortedBall checks the bounded-heap selection
// against the full sort on metrics full of tied distances, with
// ineligible sites (one just inside the capacity tolerance) and ball
// sizes up to one more than the eligible count.
func TestCapacityBallMatchesSortedBall(t *testing.T) {
	const minCap = 0.5
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		size := 2 + rng.Intn(40)
		m := graph.NewMatrix(size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				m.Set(i, j, float64(1+rng.Intn(3)))
			}
		}
		m.MetricClosure()
		topo, err := topology.New("ties", make([]topology.Site, size), m)
		if err != nil {
			t.Fatal(err)
		}
		eligible := 0
		for w := 0; w < size; w++ {
			c := []float64{1, 0.01, minCap - 5e-13}[rng.Intn(3)]
			if err := topo.SetCapacity(w, c); err != nil {
				t.Fatal(err)
			}
			if c > 0.1 {
				eligible++
			}
		}
		for v0 := 0; v0 < size; v0++ {
			for _, n := range []int{1, 3, 8, eligible, eligible + 1} {
				if n < 1 {
					continue
				}
				got, errGot := capacityBall(topo, v0, n, minCap)
				want, errWant := sortedCapacityBall(topo, v0, n, minCap)
				if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !slices.Equal(got, want) {
					t.Fatalf("trial %d v0=%d n=%d: capacityBall = %v (err %v), sorted ball %v (err %v)",
						trial, v0, n, got, errGot, want, errWant)
				}
			}
		}
	}
}

func TestManyToOneReducesDelay(t *testing.T) {
	topo := testTopo(t, 16, 9)
	sys := mustGrid(t, 3)
	oto, err := OneToOne(topo, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mto, err := ManyToOne(topo, sys, ManyToOneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	delay := func(f core.Placement) float64 {
		e, err := core.NewEval(topo, sys, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e.AvgNetworkDelay(core.BalancedStrategy{})
	}
	if dm, do := delay(mto), delay(oto); dm > do+1e-9 {
		t.Errorf("many-to-one delay %v worse than one-to-one %v", dm, do)
	}
}

func TestManyToOneRespectsCapacityBound(t *testing.T) {
	topo := testTopo(t, 12, 10)
	sys := mustGrid(t, 3)
	// Tight-ish capacities: uniform element load is 5/9; universe 9.
	if err := topo.SetUniformCapacity(0.9); err != nil {
		t.Fatal(err)
	}
	f, err := ManyToOne(topo, sys, ManyToOneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := e.NodeLoads(core.BalancedStrategy{})
	maxElem := sys.UniformElementLoad()
	for w, l := range loads {
		// Lin–Vitter (eps=1) inflation ≤ 2 plus one element of rounding
		// slack.
		if l > 2*topo.Capacity(w)+maxElem+1e-6 {
			t.Errorf("node %d load %v exceeds violation bound (cap %v)", w, l, topo.Capacity(w))
		}
	}
}

func TestIterateImprovesOrHalts(t *testing.T) {
	topo := testTopo(t, 12, 11)
	sys := mustGrid(t, 3)
	res, err := Iterate(topo, sys, IterateConfig{Alpha: 10, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("empty history")
	}
	// Phase 2 never hurts network delay relative to phase 1.
	for _, rec := range res.History {
		if rec.Phase2NetDelay > rec.Phase1NetDelay+1e-6 {
			t.Errorf("iteration %d: phase 2 delay %v > phase 1 %v",
				rec.Iteration, rec.Phase2NetDelay, rec.Phase1NetDelay)
		}
	}
	// Accepted responses are strictly decreasing except possibly the last
	// (rejected) record.
	for i := 1; i < len(res.History)-1; i++ {
		if res.History[i].Response >= res.History[i-1].Response {
			t.Errorf("iteration %d response %v did not improve on %v",
				res.History[i].Iteration, res.History[i].Response, res.History[i-1].Response)
		}
	}
	if res.Strategy == nil {
		t.Error("nil strategy in result")
	}
}

func TestIterateBeatsOneToOneOnNetworkDelay(t *testing.T) {
	// §7: "Since this approach creates many-to-one placements, network
	// delay will necessarily decrease" vs one-to-one.
	topo := testTopo(t, 12, 12)
	sys := mustGrid(t, 3)
	res, err := Iterate(topo, sys, IterateConfig{Alpha: 0, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	oto, err := OneToOne(topo, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, oto, 0)
	if err != nil {
		t.Fatal(err)
	}
	otoDelay := e.AvgNetworkDelay(core.BalancedStrategy{})
	final := res.History[len(res.History)-1]
	if final.Phase2NetDelay > otoDelay+1e-6 {
		t.Errorf("iterative delay %v worse than one-to-one %v", final.Phase2NetDelay, otoDelay)
	}
}

func TestIterateRejectsNonEnumerable(t *testing.T) {
	topo := testTopo(t, 60, 13)
	sys := mustThreshold(t, 26, 51)
	if _, err := Iterate(topo, sys, IterateConfig{}); err == nil {
		t.Error("Iterate accepted a non-enumerable system")
	}
}

func TestManyToOneElementLoadValidation(t *testing.T) {
	topo := testTopo(t, 8, 14)
	sys := mustGrid(t, 2)
	_, err := ManyToOne(topo, sys, ManyToOneConfig{ElementLoads: []float64{1, 2}})
	if err == nil {
		t.Error("wrong-length element loads accepted")
	}
}

func TestRandomPlacement(t *testing.T) {
	topo := testTopo(t, 12, 20)
	sys := mustGrid(t, 3)
	f, err := Random(topo, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !oneToOne(f) {
		t.Error("random placement not one-to-one")
	}
	g, err := Random(topo, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 9; u++ {
		if f.Node(u) != g.Node(u) {
			t.Fatal("same seed produced different random placements")
		}
	}
	if _, err := Random(topo, mustGrid(t, 4), 1); err == nil {
		t.Error("oversized universe accepted")
	}
}

// oneToOne reports whether no two elements of f share a node.
func oneToOne(f core.Placement) bool { return len(f.Support()) == f.UniverseSize() }

// avgDistanceTo is the average distance from every site to w.
func avgDistanceTo(topo *topology.Topology, w int) float64 {
	sum := 0.0
	for v := 0; v < topo.Size(); v++ {
		sum += topo.RTT(v, w)
	}
	return sum / float64(topo.Size())
}

func TestGreedyMedianPicksBestNodes(t *testing.T) {
	topo := testTopo(t, 12, 21)
	sys := mustThreshold(t, 2, 3)
	f, err := GreedyMedian(topo, sys)
	if err != nil {
		t.Fatal(err)
	}
	if !oneToOne(f) {
		t.Error("greedy placement not one-to-one")
	}
	// Every unused node must have average distance >= the worst used one.
	worstUsed := 0.0
	used := map[int]bool{}
	for _, w := range f.Support() {
		used[w] = true
		if d := avgDistanceTo(topo, w); d > worstUsed {
			worstUsed = d
		}
	}
	for w := 0; w < topo.Size(); w++ {
		if !used[w] && avgDistanceTo(topo, w) < worstUsed-1e-9 {
			t.Errorf("node %d (avg %v) unused but better than worst used (%v)",
				w, avgDistanceTo(topo, w), worstUsed)
		}
	}
}

func TestPaperConstructionsBeatBaselines(t *testing.T) {
	// The ball/shell constructions must beat random placement on average
	// network delay under the closest strategy, and should beat
	// greedy-median for systems with large quorums (where co-location
	// matters).
	topo := testTopo(t, 20, 22)
	for _, sys := range []quorum.System{mustGrid(t, 4), mustThreshold(t, 9, 16)} {
		delay := func(f core.Placement) float64 {
			e, err := core.NewEval(topo, sys, f, 0)
			if err != nil {
				t.Fatal(err)
			}
			return e.AvgNetworkDelay(core.ClosestStrategy{})
		}
		paper, err := OneToOne(topo, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := Random(topo, sys, 99)
		if err != nil {
			t.Fatal(err)
		}
		if dp, dr := delay(paper), delay(rnd); dp > dr+1e-9 {
			t.Errorf("%s: paper construction %v worse than random %v", sys.Name(), dp, dr)
		}
	}
}
