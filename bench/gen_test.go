package main

import (
	"encoding/json"
	"testing"

	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

var allMixes = []string{mixRTT, mixCapacityDemand, mixDemand}

// sequence returns the JSON of the first n batches of a mix.
func sequence(t *testing.T, mix string, seed int64, n int) []byte {
	t.Helper()
	g := newGenerator(mix, seed, topology.PlanetLab50(topology.DefaultSeed), daemonDemand)
	var out []byte
	for i := 0; i < n; i++ {
		b, err := json.Marshal(g.next())
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, mix := range allMixes {
		a, b := sequence(t, mix, 7, 200), sequence(t, mix, 7, 200)
		if string(a) != string(b) {
			t.Errorf("%s: two generators with seed 7 produced different sequences", mix)
		}
		if c := sequence(t, mix, 8, 200); string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 produced the same sequence", mix)
		}
	}
}

// Every batch must publish a version: the planner's count of effective
// mutations has to grow, and the re-plan has to succeed (capacity
// deltas must leave the access LP feasible).
func TestEveryBatchChangesState(t *testing.T) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	for _, mix := range allMixes {
		p, err := plan.New(topo, shadowPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			t.Fatal(err)
		}
		g := newGenerator(mix, 3, topo, daemonDemand)
		for i := 0; i < 60; i++ {
			for _, d := range g.next() {
				if err := d.Validate(); err != nil {
					t.Fatalf("%s batch %d: %v", mix, i, err)
				}
				if err := d.ApplyTo(p); err != nil {
					t.Fatalf("%s batch %d: %v", mix, i, err)
				}
			}
			if p.PendingDeltas() == 0 {
				t.Fatalf("%s batch %d changed nothing", mix, i)
			}
			if _, err := p.Plan(); err != nil {
				t.Fatalf("%s batch %d: re-plan failed: %v", mix, i, err)
			}
		}
	}
}
