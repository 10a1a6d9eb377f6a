package placement

import (
	"fmt"
	"math/rand"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Baseline placements. The paper's constructions are worth their
// complexity only if they beat what an operator would do without them;
// these two naive strategies calibrate that gap (see the abl-baselines
// study).

// Random places the universe uniformly at random on distinct nodes (a
// one-to-one placement with no delay awareness), using the given seed.
func Random(topo *topology.Topology, sys quorum.System, seed int64) (core.Placement, error) {
	n := sys.UniverseSize()
	if n > topo.Size() {
		return core.Placement{}, fmt.Errorf("placement: universe %d exceeds %d nodes", n, topo.Size())
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(topo.Size())
	return core.NewPlacement(perm[:n], topo)
}

// GreedyMedian places elements one-to-one on the n nodes with the
// smallest average distance to all clients — the "put everything in the
// best data centers" heuristic. Unlike the ball construction it ignores
// how close the chosen nodes are to each other, which is exactly what
// quorum access latency punishes.
func GreedyMedian(topo *topology.Topology, sys quorum.System) (core.Placement, error) {
	n := sys.UniverseSize()
	if n > topo.Size() {
		return core.Placement{}, fmt.Errorf("placement: universe %d exceeds %d nodes", n, topo.Size())
	}
	type scored struct {
		node int
		avg  float64
	}
	size := topo.Size()
	nodes := make([]scored, size)
	for w := 0; w < size; w++ {
		sum := 0.0
		for v := 0; v < size; v++ {
			sum += topo.RTT(v, w)
		}
		nodes[w] = scored{node: w, avg: sum / float64(size)}
	}
	// Selection sort of the n best keeps this dependency-free and
	// deterministic on ties (lower node id wins).
	target := make([]int, 0, n)
	used := make([]bool, topo.Size())
	for len(target) < n {
		best := -1
		for w := range nodes {
			if used[w] {
				continue
			}
			if best == -1 || nodes[w].avg < nodes[best].avg ||
				(nodes[w].avg == nodes[best].avg && w < best) {
				best = w
			}
		}
		used[best] = true
		target = append(target, best)
	}
	return core.NewPlacement(target, topo)
}
