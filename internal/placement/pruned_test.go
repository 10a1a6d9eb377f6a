package placement

import (
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// prunedTopos returns the seed-table topologies the equivalence property is
// checked on: both paper stand-ins plus a sparse-closure AS graph, since
// pruning effectiveness (and any tie structure) differs between the
// geographic metrics and the power-law shortest-path metric.
func prunedTopos(t *testing.T) []*topology.Topology {
	t.Helper()
	as, err := topology.Generate(topology.GenConfig{
		Name: "as-pruned-test",
		AS:   &topology.ASGraphSpec{Sites: 150},
	}, topology.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Topology{
		topology.PlanetLab50(topology.DefaultSeed),
		topology.Daxlist161(topology.DefaultSeed),
		as,
	}
}

func placementsEqual(a, b core.Placement) bool {
	if a.UniverseSize() != b.UniverseSize() {
		return false
	}
	for u := 0; u < a.UniverseSize(); u++ {
		if a.Node(u) != b.Node(u) {
			return false
		}
	}
	return true
}

// TestPrunedMatchesExhaustive is the tentpole equivalence property: for
// every topology, system shape, capacity profile, and candidate/client
// restriction tried, the pruned search must return exactly the placement
// the exhaustive scan returns — same anchor, same node map — because
// pruning only ever skips anchors whose lower bound strictly exceeds a
// scored candidate.
func TestPrunedMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, topo := range prunedTopos(t) {
		n := topo.Size()

		// A capacity dip over a random third of the sites exercises the
		// eligibility filter inside the ball radius (and, on the smaller
		// topologies, infeasible anchors near the dip).
		constrained := topo.Clone()
		for i := 0; i < n/3; i++ {
			if err := constrained.SetCapacity(rng.Intn(n), 0.01); err != nil {
				t.Fatal(err)
			}
		}

		someCandidates := make([]int, 0, n/2)
		for i := n - 1; i >= 0; i -= 2 { // reversed: order must not matter
			someCandidates = append(someCandidates, i)
		}

		cases := []struct {
			name  string
			topo  *topology.Topology
			opts  Options
			width int
		}{
			{"all", topo, Options{}, 1},
			{"capacity-dip", constrained, Options{}, 1},
			{"candidates-subset", topo, Options{Candidates: someCandidates}, 1},
			{"parallel", topo, Options{}, 4},
		}
		for _, tc := range cases {
			partest.SetGOMAXPROCS(t, tc.width)
			ex, pr := tc.opts, tc.opts
			ex.Search = SearchExhaustive
			pr.Search = SearchPruned

			maj := mustThreshold(t, 8, 15)
			fEx, errEx := OneToOne(tc.topo, maj, ex)
			fPr, errPr := OneToOne(tc.topo, maj, pr)
			if (errEx == nil) != (errPr == nil) {
				t.Fatalf("%s/%s majority: exhaustive err=%v, pruned err=%v", tc.topo.Name(), tc.name, errEx, errPr)
			}
			if errEx == nil && !placementsEqual(fEx, fPr) {
				t.Errorf("%s/%s majority: pruned placement differs from exhaustive", tc.topo.Name(), tc.name)
			}

			grid := mustGrid(t, 4)
			gEx, errEx := OneToOne(tc.topo, grid, ex)
			gPr, errPr := OneToOne(tc.topo, grid, pr)
			if (errEx == nil) != (errPr == nil) {
				t.Fatalf("%s/%s grid: exhaustive err=%v, pruned err=%v", tc.topo.Name(), tc.name, errEx, errPr)
			}
			if errEx == nil && !placementsEqual(gEx, gPr) {
				t.Errorf("%s/%s grid: pruned placement differs from exhaustive", tc.topo.Name(), tc.name)
			}
		}
	}
}

// TestPrunedMatchesExhaustiveRandomCaps fuzzes heterogeneous capacities:
// random per-site capacities change both the ball radii (the bound) and
// the feasible anchor set, and the equivalence must survive all of it.
func TestPrunedMatchesExhaustiveRandomCaps(t *testing.T) {
	topo := topology.Daxlist161(topology.DefaultSeed)
	sys := mustThreshold(t, 5, 9)
	partest.SetGOMAXPROCS(t, 1)
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		tp := topo.Clone()
		for i := 0; i < tp.Size(); i++ {
			if err := tp.SetCapacity(i, 0.02+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		fEx, errEx := OneToOne(tp, sys, Options{Search: SearchExhaustive})
		fPr, errPr := OneToOne(tp, sys, Options{Search: SearchPruned})
		if (errEx == nil) != (errPr == nil) {
			t.Fatalf("trial %d: exhaustive err=%v, pruned err=%v", trial, errEx, errPr)
		}
		if errEx == nil && !placementsEqual(fEx, fPr) {
			t.Errorf("trial %d: pruned placement differs from exhaustive", trial)
		}
	}
}

// TestPrunedInfeasible: when no anchor has enough capacity, both searches
// must report the no-feasible-anchor error.
func TestPrunedInfeasible(t *testing.T) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	tp := topo.Clone()
	if err := tp.SetUniformCapacity(0.001); err != nil {
		t.Fatal(err)
	}
	sys := mustThreshold(t, 8, 15) // uniform element load 1/15 >> 0.001
	partest.SetGOMAXPROCS(t, 1)
	for _, mode := range []SearchMode{SearchExhaustive, SearchPruned} {
		if _, err := OneToOne(tp, sys, Options{Search: mode}); err == nil {
			t.Errorf("mode %d: expected no-feasible-anchor error", mode)
		}
	}
}

// TestBallShellMatchesCapacityBall pins the shell shortcut to the ball
// construction it must agree with: the heap-selected distances equal the
// distances to the materialized ball's members, in order.
func TestBallShellMatchesCapacityBall(t *testing.T) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	tp := topo.Clone()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < tp.Size(); i++ {
		if err := tp.SetCapacity(i, 0.05+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	const minCap = 0.5
	for v0 := 0; v0 < tp.Size(); v0++ {
		for _, n := range []int{1, 5, 15} {
			ball, errBall := capacityBall(tp, v0, n, minCap)
			shell, errShell := ballShell(tp, v0, n, minCap)
			if (errBall == nil) != (errShell == nil) {
				t.Fatalf("v0=%d n=%d: ball err=%v, shell err=%v", v0, n, errBall, errShell)
			}
			if errBall != nil {
				continue
			}
			if len(shell) != len(ball) {
				t.Fatalf("v0=%d n=%d: shell has %d entries, ball %d", v0, n, len(shell), len(ball))
			}
			for j, w := range ball {
				if shell[j] != tp.RTT(v0, w) {
					t.Fatalf("v0=%d n=%d rank %d: shell %v, ball member at %v", v0, n, j, shell[j], tp.RTT(v0, w))
				}
			}
		}
	}
}

// TestProbeOrderCoversAndDedups: probes must be distinct indices, start at
// the candidate nearest the median, and never exceed the candidate count.
func TestProbeOrderCoversAndDedups(t *testing.T) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	cands := []int{9, 3, 3, 41, 17, 9, 5, 28, 0, 1, 2, 33} // duplicates on purpose
	probes := probeOrder(topo, cands)
	if len(probes) > len(cands) {
		t.Fatalf("%d probes for %d candidates", len(probes), len(cands))
	}
	seen := map[int]bool{}
	for _, p := range probes {
		if seen[p] {
			t.Fatalf("probe index %d repeated", p)
		}
		seen[p] = true
	}
	med, _ := topo.Median()
	first := probes[0]
	for i, c := range cands {
		if topo.RTT(med, c) < topo.RTT(med, cands[first]) {
			t.Fatalf("probe 0 is candidate %d (d=%v) but %d is nearer the median (d=%v)",
				cands[first], topo.RTT(med, cands[first]), c, topo.RTT(med, c))
		}
		_ = i
	}
}

// TestAnchorScoreAllocationsFlatInSites: every anchor of a search shares
// the search's client list and weight vector, so scoring one allocates
// its evaluator and one element-cost buffer at any site count — nothing
// sites-sized.
func TestAnchorScoreAllocationsFlatInSites(t *testing.T) {
	sys := mustGrid(t, 3)
	for _, n := range []int{25, 100, 200} {
		topo := testTopo(t, n, 27)
		s, err := NewSearch(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.build(topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		score, err := newScorer(topo, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { score(f) }); a > 2 {
			t.Errorf("%d sites: %v allocations per anchor score, want at most 2", n, a)
		}
	}
}
