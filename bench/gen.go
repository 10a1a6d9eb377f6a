package main

import (
	"fmt"
	"math/rand"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Delta mixes the daemon workloads draw their batches from.
const (
	// mixRTT is one rtt delta per batch. RTTs fluctuate around a
	// baseline rather than wander: odd batches move a random pair 20–40%
	// off its value, even batches measure that pair back. A random walk
	// would, after a seed-dependent number of batches, tip the deployment
	// into holding a placement against a different candidate, where every
	// batch costs two plans instead of one — two regimes, so no steady
	// median.
	mixRTT = "rtt"
	// mixCapacityDemand repeats capacity, demand, demand. One capacity
	// delta in three keeps the median operation inside the eval-only
	// cluster and the 90th percentile inside the warm re-solve cluster;
	// an even mix would put the median on the gap between the two.
	mixCapacityDemand = "capacity-demand"
	// mixDemand is one demand delta per batch.
	mixDemand = "demand"
)

// capacityPool is how many sites around the topology's median receive
// capacity deltas. One-to-one placements sit in that neighbourhood, so
// about half the deltas move a right-hand side of the access LP; the
// pool depends on the topology alone, never on the daemon's answers.
const capacityPool = 50

// Capacity deltas stay inside (capacityMin, capacityMin+capacitySpan):
// above grid:5's per-element load 9/25, so no site ever crosses the
// placement eligibility threshold and the LP always stays feasible,
// and low enough that capacity rows bind.
const (
	capacityMin  = 0.4
	capacitySpan = 0.4
)

// generator produces a workload's delta batches from a seed. It mirrors
// the values the deployment holds, so that every batch it emits changes
// state: a no-op batch publishes no version and would leave every
// watcher parked until its long-poll times out.
type generator struct {
	mix   string
	rng   *rand.Rand
	names []string
	rtt   [][]float64 // current raw RTTs, symmetric
	caps  []float64
	pool  []int // capacity delta targets
	// demand is the deployment's current per-client demand.
	demand float64
	seq    int
	// moved is the pair the last rtt batch moved off its baseline, until
	// the next batch moves it back.
	moved *movedPair
}

// movedPair is a site pair and the RTT it had before it was perturbed.
type movedPair struct {
	a, b int
	base float64
}

func newGenerator(mix string, seed int64, topo *topology.Topology, demand float64) *generator {
	n := topo.Size()
	g := &generator{
		mix:    mix,
		rng:    rand.New(rand.NewSource(seed)),
		names:  make([]string, n),
		rtt:    make([][]float64, n),
		caps:   topo.Capacities(),
		demand: demand,
	}
	for i := 0; i < n; i++ {
		g.names[i] = topo.Site(i).Name
		g.rtt[i] = topo.Distances().Row(i)
	}
	center, _ := topo.Median()
	g.pool = topo.Ball(center, min(capacityPool, n))
	return g
}

// next returns the next batch and records it as applied.
func (g *generator) next() []deploy.Delta {
	kind := g.mix
	if g.mix == mixCapacityDemand {
		kind = deploy.KindDemand
		if g.seq%3 == 0 {
			kind = deploy.KindCapacity
		}
	}
	g.seq++
	var d deploy.Delta
	switch kind {
	case deploy.KindRTT:
		if m := g.moved; m != nil {
			// Measure the pair moved last back at its baseline.
			g.moved = nil
			d = deploy.Delta{Kind: deploy.KindRTT, A: g.names[m.a], B: g.names[m.b], Value: m.base}
			g.mustChange(g.rtt[m.a][m.b], m.base, d)
			g.rtt[m.a][m.b], g.rtt[m.b][m.a] = m.base, m.base
			break
		}
		a := g.rng.Intn(len(g.names))
		b := g.rng.Intn(len(g.names) - 1)
		if b >= a {
			b++
		}
		// 20–40% away from the current value, up or down.
		factor := 1 + (0.2 + 0.2*g.rng.Float64())
		if g.rng.Intn(2) == 0 {
			factor = 2 - factor
		}
		v := g.rtt[a][b] * factor
		d = deploy.Delta{Kind: deploy.KindRTT, A: g.names[a], B: g.names[b], Value: v}
		g.mustChange(g.rtt[a][b], v, d)
		g.moved = &movedPair{a: a, b: b, base: g.rtt[a][b]}
		g.rtt[a][b], g.rtt[b][a] = v, v
	case deploy.KindCapacity:
		site := g.pool[g.rng.Intn(len(g.pool))]
		v := capacityMin + capacitySpan*g.rng.Float64()
		d = deploy.Delta{Kind: deploy.KindCapacity, Site: g.names[site], Value: v}
		g.mustChange(g.caps[site], v, d)
		g.caps[site] = v
	case deploy.KindDemand:
		v := 4000 + 12000*g.rng.Float64()
		d = deploy.Delta{Kind: deploy.KindDemand, Value: v}
		g.mustChange(g.demand, v, d)
		g.demand = v
	default:
		panic("bench: unknown delta mix " + g.mix)
	}
	return []deploy.Delta{d}
}

// mustChange asserts the generator's contract. A draw that repeats the
// current value has probability ~2⁻⁵³; it is a bug, not an input.
func (g *generator) mustChange(old, new float64, d deploy.Delta) {
	if old == new || new <= 0 {
		panic(fmt.Sprintf("bench: generated delta %+v does not change state (current %v)", d, old))
	}
}
