package placement

import (
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// retopo returns topo's sites and capacities over another metric.
func retopo(t *testing.T, topo *topology.Topology, dist *graph.Matrix) *topology.Topology {
	t.Helper()
	sites := make([]topology.Site, topo.Size())
	for i := range sites {
		sites[i] = topo.Site(i)
	}
	out, err := topology.NewMetric(topo.Name(), sites, dist)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < topo.Size(); v++ {
		if err := out.SetCapacity(v, topo.Capacity(v)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRetainedSearchMatchesCold is the retained search's equivalence
// property: a Search carried through a chain of metric changes, told only
// which sites' rows changed, returns after every change exactly the
// placement a search from scratch on that topology returns — in every
// search mode, for both constructions, at one pool width and several, and
// across an eligibility change, which it must notice by itself.
func TestRetainedSearchMatchesCold(t *testing.T) {
	for _, topo := range prunedTopos(t) {
		for _, sys := range []quorum.System{mustThreshold(t, 8, 15), mustGrid(t, 4)} {
			for _, tc := range []struct {
				search SearchMode
				width  int
			}{
				{SearchAuto, 1},
				{SearchExhaustive, 3},
				{SearchPruned, 1},
				{SearchPruned, 4},
			} {
				partest.SetGOMAXPROCS(t, tc.width)
				opts := Options{Search: tc.search}
				rng := rand.New(rand.NewSource(11))
				s, err := NewSearch(sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				raw := topo.Distances().Clone()
				cur := topo.Clone()
				var changed []int
				rescored, total := 0, 0
				for round := 0; round < 10; round++ {
					got, err := s.Place(cur, changed)
					if err != nil {
						t.Fatal(err)
					}
					want, err := OneToOne(cur, sys, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !placementsEqual(got, want) {
						t.Fatalf("%s %s mode %d round %d: retained search placed %v, cold search %v (changed %v)",
							topo.Name(), sys.Name(), opts.Search, round, got.Targets(), want.Targets(), changed)
					}
					if round > 0 {
						k, n := s.Scored()
						rescored, total = rescored+k, total+n
					}

					// One to three link edits, folded into the metric; every
					// fourth round also pushes a site across the eligibility
					// threshold.
					var edits []graph.Edit
					for k := 1 + rng.Intn(3); k > 0; k-- {
						u := rng.Intn(raw.Size())
						v := (u + 1 + rng.Intn(raw.Size()-1)) % raw.Size()
						old := raw.At(u, v)
						val := old * (0.5 + rng.Float64())
						raw.Set(u, v, val)
						edits = append(edits, graph.Edit{U: u, V: v, Old: old, New: val})
					}
					dist, moved, _ := cur.Distances().Reclose(raw, edits)
					next := retopo(t, cur, dist)
					if round%4 == 3 {
						v := rng.Intn(next.Size())
						c := 0.001
						if next.Capacity(v) < 0.5 {
							c = 1
						}
						if err := next.SetCapacity(v, c); err != nil {
							t.Fatal(err)
						}
					}
					cur, changed = next, moved
				}
				if rescored >= total {
					t.Errorf("%s %s mode %d: retained search scored %d of %d anchors over the chain: nothing was retained",
						topo.Name(), sys.Name(), opts.Search, rescored, total)
				}
			}
		}
	}
}

// TestRetainedSearchReopensPrunedAnchor changes the metric so that an
// anchor the previous search pruned becomes the winner while its own row,
// and so its retained bound, stays as it was: every distance between two
// sites outside that anchor's ball grows fifty-fold, which ruins every
// anchor whose ball reaches outside it. The retained bound no longer
// exceeds anything scored, and the search has to replace it by the score.
func TestRetainedSearchReopensPrunedAnchor(t *testing.T) {
	topo := prunedTopos(t)[2] // the AS graph
	sys := mustGrid(t, 4)
	partest.SetGOMAXPROCS(t, 1)
	opts := Options{Search: SearchPruned}
	s, err := NewSearch(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Place(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pruned anchor farthest from the winner's first element.
	v0 := -1
	for i := range s.results {
		if s.results[i].pruned && (v0 < 0 || topo.RTT(first.Node(0), i) > topo.RTT(first.Node(0), v0)) {
			v0 = i
		}
	}
	if v0 < 0 {
		t.Fatal("the first search pruned nothing")
	}
	ball, err := capacityBall(topo, v0, sys.UniverseSize(), sys.UniformElementLoad())
	if err != nil {
		t.Fatal(err)
	}
	inBall := make([]bool, topo.Size())
	for _, w := range ball {
		inBall[w] = true
	}
	dist := topo.Distances().Clone()
	var changed []int
	for i := 0; i < dist.Size(); i++ {
		if inBall[i] {
			continue
		}
		changed = append(changed, i)
		for j := i + 1; j < dist.Size(); j++ {
			if !inBall[j] {
				dist.Set(i, j, 50*dist.At(i, j))
			}
		}
	}
	next := retopo(t, topo, dist)

	got, err := s.Place(next, changed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := OneToOne(next, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(got, want) {
		t.Fatalf("retained search placed %v, cold search %v", got.Targets(), want.Targets())
	}
	if !placementsEqual(got, s.results[v0].f) {
		t.Fatalf("the winner is not the previously pruned anchor %d", v0)
	}
}
