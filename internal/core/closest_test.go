package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/quorumnet/quorumnet/internal/par"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/quorum"
)

// perCallClosest is the closest strategy as it was before the evaluation
// kept each client's choice: every call copies the client's net-delay row
// and asks the system for a fresh closest quorum. It is the reference the
// compiled table must reproduce bit for bit.
type perCallClosest struct{}

func (perCallClosest) Name() string { return "closest per call" }

func (perCallClosest) quorum(e *Eval, k int) []int {
	return e.Sys.ClosestQuorum(e.elementCosts(make([]float64, e.F.UniverseSize()), e.Clients[k], nil, 0))
}

func (s perCallClosest) ClientNodeLoads(e *Eval, k int, loads []float64) {
	elems := s.quorum(e, k)
	switch e.Mode {
	case LoadDedup:
		for _, u := range elems {
			loads[e.F.Node(u)] = 1
		}
	default:
		for _, u := range elems {
			loads[e.F.Node(u)]++
		}
	}
}

func (s perCallClosest) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	maxC := math.Inf(-1)
	for _, u := range s.quorum(e, k) {
		if elemCost[u] > maxC {
			maxC = elemCost[u]
		}
	}
	return maxC
}

// countingStrategy counts the ClientNodeLoads calls it forwards.
type countingStrategy struct {
	Strategy
	loadCalls int
}

func (s *countingStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	s.loadCalls++
	s.Strategy.ClientNodeLoads(e, k, loads)
}

// checkClosestBits compares every measure of the compiled closest
// strategy with the per-call reference at e's current settings.
func checkClosestBits(t *testing.T, what string, e *Eval) {
	t.Helper()
	c, ref := ClosestStrategy{}, perCallClosest{}
	sameBits(t, what+" NodeLoads", e.NodeLoads(c), e.NodeLoads(ref))
	sameBits(t, what+" AvgResponseTime", []float64{e.AvgResponseTime(c)}, []float64{e.AvgResponseTime(ref)})
	sameBits(t, what+" AvgNetworkDelay", []float64{e.AvgNetworkDelay(c)}, []float64{e.AvgNetworkDelay(ref)})
	for k := range e.Clients {
		sameBits(t, what+" ClientResponseTime", []float64{e.ClientResponseTime(c, k)}, []float64{e.ClientResponseTime(ref, k)})
		if got, want := e.closestQuorum(k), ref.quorum(e, k); !equalInts(got, want) {
			t.Errorf("%s client %d: table holds %v, per-call choice %v", what, k, got, want)
		}
	}
}

// TestClosestTableMatchesPerCallBits: the quorum each client's table
// entry holds is the one the per-call path picked, so every measure keeps
// its bits, in both load modes, at alpha 0 and above, with weighted
// clients, one of them listed twice, and placements that put several
// elements of one quorum on one node.
func TestClosestTableMatchesPerCallBits(t *testing.T) {
	for _, c := range []struct {
		name   string
		sys    quorum.System
		target []int
	}{
		{"grid3 four on one", mustGrid(t, 3), []int{4, 4, 4, 4, 1, 2, 3, 5, 4}},
		{"grid4 many-to-one", mustGrid(t, 4), []int{0, 0, 0, 1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 0, 8, 2}},
		{"3-of-5 three on one", mustThreshold(t, 3, 5), []int{2, 2, 2, 6, 7}},
		{"singleton", quorum.Singleton{}, []int{6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := testTopo(t, 10, 42)
			f, err := NewPlacement(c.target, topo)
			if err != nil {
				t.Fatal(err)
			}
			// A fresh evaluation per setting, so each one builds its
			// own table.
			for _, alpha := range []float64{0, 37} {
				for _, mode := range []LoadMode{LoadMultiplicity, LoadDedup} {
					e, err := NewEval(topo, c.sys, f, alpha)
					if err != nil {
						t.Fatal(err)
					}
					e.Mode = mode
					if err := e.SetClients([]int{0, 3, 3, 9, 4, 7, 1}); err != nil {
						t.Fatal(err)
					}
					if err := e.SetClientWeights([]float64{0.5, 1, 3, 2.25, 0.75, 1.5, 4}); err != nil {
						t.Fatal(err)
					}
					checkClosestBits(t, fmt.Sprintf("%s alpha %v", mode, alpha), e)
				}
			}
		})
	}
}

// TestClosestTableLifetime: the table is built once per evaluation and
// depends on the placement and the client list only. WithPlacement and
// SetClients start a new one; Alpha, the weights and the load mode,
// which the choice does not read, keep it.
func TestClosestTableLifetime(t *testing.T) {
	topo := testTopo(t, 10, 43)
	sys := mustGrid(t, 3)
	e, err := NewEval(topo, sys, identityPlacement(t, 9, topo), 0)
	if err != nil {
		t.Fatal(err)
	}
	e.AvgNetworkDelay(ClosestStrategy{})
	table := &e.closest[0]

	e.Alpha = 12
	e.Mode = LoadDedup
	if err := e.SetClientWeights([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	e.AvgResponseTime(ClosestStrategy{})
	if &e.closest[0] != table {
		t.Error("changing alpha, weights or load mode rebuilt the closest table")
	}

	g, err := NewPlacement([]int{9, 8, 7, 6, 5, 4, 3, 2, 1}, topo)
	if err != nil {
		t.Fatal(err)
	}
	moved := e.WithPlacement(g)
	if moved.closest != nil {
		t.Fatal("WithPlacement kept the old placement's closest table")
	}
	checkClosestBits(t, "WithPlacement", moved)
	if &e.closest[0] != table {
		t.Error("measuring the copy rebuilt the original's closest table")
	}

	if err := e.SetClients([]int{5, 2, 8}); err != nil {
		t.Fatal(err)
	}
	if e.closest != nil {
		t.Fatal("SetClients kept the old clients' closest table")
	}
	checkClosestBits(t, "SetClients", e)
	if len(e.closest) != 3 {
		t.Errorf("table has %d entries for 3 clients", len(e.closest))
	}
}

// TestClientResponseTimeSkipsLoadsAtZeroAlpha: at alpha 0 the element
// costs never read the node loads, so one client's response time asks
// the strategy for none.
func TestClientResponseTimeSkipsLoadsAtZeroAlpha(t *testing.T) {
	topo := testTopo(t, 9, 44)
	e, err := NewEval(topo, mustGrid(t, 3), identityPlacement(t, 9, topo), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &countingStrategy{Strategy: ClosestStrategy{}}
	for k := range e.Clients {
		e.ClientResponseTime(s, k)
	}
	if s.loadCalls != 0 {
		t.Errorf("%d ClientNodeLoads calls for %d clients at alpha 0, want 0", s.loadCalls, len(e.Clients))
	}
	e.Alpha = 20
	e.ClientResponseTime(s, 0)
	if s.loadCalls != len(e.Clients) {
		t.Errorf("%d ClientNodeLoads calls at alpha 20, want one per client (%d)", s.loadCalls, len(e.Clients))
	}
}

// TestPrewarmedClosestIsReadOnly: Prewarm fills the closest table, so a
// prewarmed evaluation measured by par.For workers under the closest
// strategy only reads: the race detector sees no write and every worker
// gets the bits of a serial evaluation.
func TestPrewarmedClosestIsReadOnly(t *testing.T) {
	partest.SetGOMAXPROCS(t, 4)
	topo := testTopo(t, 40, 45)
	for _, sys := range []quorum.System{mustGrid(t, 4), mustThreshold(t, 5, 9)} {
		f := identityPlacement(t, sys.UniverseSize(), topo)
		serial, err := NewEval(topo, sys, f, 15)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{serial.AvgResponseTime(ClosestStrategy{}), serial.AvgNetworkDelay(ClosestStrategy{}), serial.MaxNodeLoad(ClosestStrategy{})}
		e := serial.WithPlacement(f)
		e.Prewarm()
		if e.closest == nil {
			t.Fatal("Prewarm left the closest table unbuilt")
		}
		got := make([][]float64, 16)
		par.For(len(got), func(i int) {
			got[i] = []float64{e.AvgResponseTime(ClosestStrategy{}), e.AvgNetworkDelay(ClosestStrategy{}),
				e.MaxNodeLoad(ClosestStrategy{}), e.ClientResponseTime(ClosestStrategy{}, i)}
		})
		for i := range got {
			sameBits(t, sys.Name()+" concurrent measure", got[i][:3], want)
			sameBits(t, sys.Name()+" concurrent ClientResponseTime", got[i][3:], []float64{serial.ClientResponseTime(ClosestStrategy{}, i)})
		}
	}
}
