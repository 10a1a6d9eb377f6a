package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/quorumnet/quorumnet/internal/graph"
)

// ASGraphSpec parameterizes the random-internet-AS generator: a
// preferential-attachment graph (power-law degree distribution, like the
// autonomous-system graph) whose nodes are classified into core / transit /
// edge tiers by degree, with per-tier-pair link latencies. Unlike the
// region-based generator, the RTT metric is the shortest-path closure of
// the sparse link graph — computed by the parallel Dijkstra path, never the
// O(n³) dense closure — which is what makes 1k–10k-site topologies
// tractable.
type ASGraphSpec struct {
	// Sites is the number of ASes (minimum 4).
	Sites int `json:"sites"`
	// PeerDegree is how many existing ASes each new AS links to during
	// preferential attachment (Barabási–Albert m). Default 2.
	PeerDegree int `json:"peer_degree,omitempty"`
	// ExtraPeerFrac adds ExtraPeerFrac×Sites random peering links on top of
	// the attachment tree, modeling IXP shortcuts. Default 0.05; set
	// negative to disable.
	ExtraPeerFrac float64 `json:"extra_peer_frac,omitempty"`
	// ClientStubs appends this many degree-1 "stub" sites after the AS
	// core, each attached to one random AS by a single access link whose
	// latency is quantized into StubClasses fixed values. Stubs model
	// client populations hanging off the AS graph: every stub attached to
	// the same AS with the same latency class has a byte-identical RTT row
	// over the non-stub sites, so the access-strategy client aggregation
	// collapses them into one super-client exactly. Default 0 (no stubs;
	// existing topologies are unchanged byte for byte).
	ClientStubs int `json:"client_stubs,omitempty"`
	// StubClasses is the number of distinct access-latency classes for
	// stub links; class c gets a fixed 1+2c ms latency. Default 4.
	StubClasses int `json:"stub_classes,omitempty"`
}

// Tier names double as the sites' Region, so region-based scenario
// features (regional outages, per-region stats) work on AS topologies.
const (
	tierCore    = "core"
	tierTransit = "transit"
	tierEdge    = "edge"
	tierStub    = "stub"
)

// asLatRange gives the [min,max) one-link RTT in milliseconds by tier pair
// (0=core, 1=transit, 2=edge). Core links span continents; edge links are
// local. The floor of 1ms and ceiling of 120ms keep the edge-length ratio
// small enough for the bucket-queue closure engine.
var asLatRange = [3][3][2]float64{
	{{30, 120}, {10, 60}, {5, 40}},
	{{10, 60}, {8, 50}, {2, 25}},
	{{5, 40}, {2, 25}, {1, 10}},
}

// generateAS builds the AS-mode topology. Same (config, seed) pairs yield
// identical topologies.
func generateAS(cfg GenConfig, seed int64) (*Topology, error) {
	spec := cfg.AS
	n := spec.Sites
	if n < 4 {
		return nil, fmt.Errorf("topology %q: AS graph needs at least 4 sites, got %d", cfg.Name, n)
	}
	deg := spec.PeerDegree
	if deg <= 0 {
		deg = 2
	}
	if deg >= n {
		return nil, fmt.Errorf("topology %q: peer degree %d must be below site count %d", cfg.Name, deg, n)
	}
	frac := spec.ExtraPeerFrac
	if frac == 0 {
		frac = 0.05
	}
	if frac < 0 {
		frac = 0
	}
	if spec.ClientStubs < 0 {
		return nil, fmt.Errorf("topology %q: client stubs must be >= 0, got %d", cfg.Name, spec.ClientStubs)
	}
	stubClasses := spec.StubClasses
	if stubClasses <= 0 {
		stubClasses = 4
	}

	rng := rand.New(rand.NewSource(seed))

	// Preferential attachment: seed with a (deg+1)-clique, then each new AS
	// links to deg distinct existing ASes sampled proportional to degree
	// (uniform draws from the half-edge endpoint multiset).
	type link struct{ u, v int32 }
	m0 := deg + 1
	edges := make([]link, 0, n*deg)
	targets := make([]int32, 0, 2*n*deg)
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			edges = append(edges, link{int32(i), int32(j)})
			targets = append(targets, int32(i), int32(j))
		}
	}
	chosen := make([]int32, 0, deg)
	for v := m0; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < deg {
			t := targets[rng.Intn(len(targets))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, u := range chosen {
			edges = append(edges, link{u, int32(v)})
			targets = append(targets, u, int32(v))
		}
	}
	for i := int(frac * float64(n)); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			// Parallel links are fine: shortest paths take the minimum.
			edges = append(edges, link{int32(u), int32(v)})
		}
	}

	// Classify by final degree: top ~1% core (at least 3), next ~9%
	// transit, rest edge. Ties break toward the lower node index so the
	// classification is deterministic.
	degCount := make([]int, n)
	for _, e := range edges {
		degCount[e.u]++
		degCount[e.v]++
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if degCount[order[a]] != degCount[order[b]] {
			return degCount[order[a]] > degCount[order[b]]
		}
		return order[a] < order[b]
	})
	nCore := n / 100
	if nCore < 3 {
		nCore = 3
	}
	nTransit := n / 10
	if nTransit < nCore {
		nTransit = nCore
	}
	tier := make([]int, n)
	for rank, node := range order {
		switch {
		case rank < nCore:
			tier[node] = 0
		case rank < nCore+nTransit:
			tier[node] = 1
		default:
			tier[node] = 2
		}
	}

	total := n + spec.ClientStubs
	g := graph.New(total)
	for _, e := range edges {
		r := asLatRange[tier[e.u]][tier[e.v]]
		if err := g.AddEdge(int(e.u), int(e.v), r[0]+rng.Float64()*(r[1]-r[0])); err != nil {
			return nil, fmt.Errorf("topology %q: %w", cfg.Name, err)
		}
	}

	tierName := [3]string{tierCore, tierTransit, tierEdge}
	sites := make([]Site, total)
	for i := 0; i < n; i++ {
		sites[i] = Site{Name: fmt.Sprintf("as-%04d", i), Region: tierName[tier[i]]}
	}

	// Stub sites draw from the rng strictly after every AS draw, so
	// ClientStubs == 0 reproduces pre-stub topologies exactly. The access
	// latency is a fixed per-class constant — not a random draw — which is
	// what guarantees co-attached same-class stubs identical RTT rows.
	for s := 0; s < spec.ClientStubs; s++ {
		parent := rng.Intn(n)
		class := rng.Intn(stubClasses)
		if err := g.AddEdge(n+s, parent, 1+2*float64(class)); err != nil {
			return nil, fmt.Errorf("topology %q: %w", cfg.Name, err)
		}
		sites[n+s] = Site{Name: fmt.Sprintf("stub-%04d", s), Region: tierStub}
	}
	return FromGraph(cfg.Name, sites, g)
}
