package plan

import (
	"fmt"
	"testing"

	"github.com/quorumnet/quorumnet/internal/topology"
)

// relationTol is the stated tolerance of the relations below: their two
// sides are averages over the same clients reached by different
// arithmetic, so they may differ in the last bits.
const relationTol = 1e-9

// relation is a metamorphic relation of the model: a property that ties
// the plans of related inputs together and so needs no second solver to
// check. Each one runs on every world and system of TestRelations.
type relation struct {
	name  string
	check func(t *testing.T, topo *topology.Topology, sys SystemSpec)
}

var relations = []relation{
	{"lp net delay at least closest", lpNetDelayAtLeastClosest},
}

// TestRelations checks each relation on PlanetLab-50 with grid:3 and
// grid:5. A relation that fails is a finding about the model or the
// solver: record it, do not loosen the relation.
func TestRelations(t *testing.T) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	for _, r := range relations {
		for _, k := range []int{3, 5} {
			sys := SystemSpec{Family: "grid", Param: k}
			t.Run(fmt.Sprintf("%s/grid:%d", r.name, k), func(t *testing.T) { r.check(t, topo, sys) })
		}
	}
}

// lpNetDelayAtLeastClosest: every client's closest quorum minimizes its
// network delay, so on one placement the access LP's average network
// delay is at least the closest strategy's. At uniform capacity 1 no
// capacity row binds (a node's load is at most 1 under any strategy of a
// one-to-one placement), the LP minimizes the same delays unconstrained
// and the two are equal; at capacity 0.6 the inequality holds.
func lpNetDelayAtLeastClosest(t *testing.T, topo *topology.Topology, sys SystemSpec) {
	for _, capacity := range []float64{1, 0.6} {
		snap := map[StrategyKind]*Snapshot{}
		for _, kind := range []StrategyKind{StratClosest, StratLP} {
			p, err := New(topo, Config{System: sys, Strategy: kind, Demand: 8000})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SetUniformCapacity(capacity); err != nil {
				t.Fatal(err)
			}
			snap[kind] = mustPlan(t, p)
		}
		lp, closest := snap[StratLP], snap[StratClosest]
		if !lp.Placement.Equal(closest.Placement) {
			t.Fatalf("capacity %v: the two strategies planned different placements", capacity)
		}
		switch {
		case lp.NetDelay < closest.NetDelay-relationTol:
			t.Errorf("capacity %v: LP net delay %v below closest %v", capacity, lp.NetDelay, closest.NetDelay)
		case capacity == 1 && lp.NetDelay > closest.NetDelay+relationTol:
			t.Errorf("capacity 1: LP net delay %v above closest %v with no capacity row binding", lp.NetDelay, closest.NetDelay)
		}
	}
}
