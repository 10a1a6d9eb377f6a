package topology

import (
	"testing"

	"github.com/quorumnet/quorumnet/internal/graph"
)

func asConfig(n int) GenConfig {
	return GenConfig{Name: "as-test", AS: &ASGraphSpec{Sites: n}}
}

func TestGenerateASBasics(t *testing.T) {
	topo, err := Generate(asConfig(120), 7)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 120 {
		t.Fatalf("Size() = %d, want 120", topo.Size())
	}
	st := topo.Stats()
	if st.Regions[tierCore] < 3 || st.Regions[tierTransit] == 0 || st.Regions[tierEdge] == 0 {
		t.Fatalf("tier counts look wrong: %v", st.Regions)
	}
	for i := 0; i < topo.Size(); i++ {
		for j := 0; j < topo.Size(); j++ {
			d := topo.RTT(i, j)
			if i == j && d != 0 {
				t.Fatalf("self-RTT %v at %d", d, i)
			}
			if i != j && (d <= 0 || d > 1e6) {
				t.Fatalf("RTT(%d,%d) = %v out of range", i, j, d)
			}
		}
	}
	// The sparse closure must produce a true metric — this is what lets
	// FromGraph skip IsMetric at scale.
	if !topo.Distances().IsMetric(1e-6) {
		t.Fatal("AS-graph metric violates the triangle inequality")
	}
}

func TestGenerateASDeterministic(t *testing.T) {
	a, err := Generate(asConfig(80), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(asConfig(80), 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Size(); i++ {
		if a.Site(i) != b.Site(i) {
			t.Fatalf("site %d differs: %+v vs %+v", i, a.Site(i), b.Site(i))
		}
		for j := 0; j < a.Size(); j++ {
			if a.RTT(i, j) != b.RTT(i, j) {
				t.Fatalf("RTT(%d,%d) differs: %v vs %v", i, j, a.RTT(i, j), b.RTT(i, j))
			}
		}
	}
	c, err := Generate(asConfig(80), 12)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := 1; j < c.Size() && same; j++ {
		same = a.RTT(0, j) == c.RTT(0, j)
	}
	if same {
		t.Fatal("different seeds produced an identical metric row")
	}
}

func TestGenerateASPowerLaw(t *testing.T) {
	// Not a statistical test — just that preferential attachment produced
	// the expected hub structure: the max degree is far above the median.
	cfg := asConfig(500)
	topo, err := Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := topo.Stats()
	if st.Regions[tierCore] != 5 { // 500/100
		t.Fatalf("core count = %d, want 5", st.Regions[tierCore])
	}
	if st.Regions[tierTransit] != 50 {
		t.Fatalf("transit count = %d, want 50", st.Regions[tierTransit])
	}
}

// TestGenerateASClientStubs checks the two properties the stub knob
// promises: stubs never perturb the AS core (same seed, same AS-to-AS
// metric with or without stubs), and co-attached same-class stubs have
// byte-identical RTT rows over the non-stub sites — the invariant the
// access-strategy client aggregation keys on.
func TestGenerateASClientStubs(t *testing.T) {
	const n, stubs = 20, 200
	base, err := Generate(asConfig(n), 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Name: "as-test", AS: &ASGraphSpec{Sites: n, ClientStubs: stubs}}
	topo, err := Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != n+stubs {
		t.Fatalf("Size() = %d, want %d", topo.Size(), n+stubs)
	}
	if got := topo.Stats().Regions[tierStub]; got != stubs {
		t.Fatalf("stub region count = %d, want %d", got, stubs)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if topo.RTT(i, j) != base.RTT(i, j) {
				t.Fatalf("stubs perturbed AS metric at (%d,%d): %v vs %v", i, j, topo.RTT(i, j), base.RTT(i, j))
			}
		}
	}
	// A stub's only link is its access link, so its nearest AS is its
	// parent and that distance is the (quantized) class latency. Group by
	// (parent, latency) and demand identical rows within each group.
	type attach struct {
		parent int
		lat    float64
	}
	groups := make(map[attach][]int)
	for s := n; s < n+stubs; s++ {
		best := attach{parent: -1}
		for v := 0; v < n; v++ {
			if d := topo.RTT(s, v); best.parent < 0 || d < best.lat {
				best = attach{parent: v, lat: d}
			}
		}
		if best.lat != 1 && best.lat != 3 && best.lat != 5 && best.lat != 7 {
			t.Fatalf("stub %d access latency %v not in the quantized class set", s, best.lat)
		}
		groups[best] = append(groups[best], s)
	}
	collided := 0
	for at, members := range groups {
		if len(members) < 2 {
			continue
		}
		collided++
		for _, s := range members[1:] {
			for v := 0; v < n; v++ {
				if topo.RTT(s, v) != topo.RTT(members[0], v) {
					t.Fatalf("co-attached stubs %d and %d (parent %d, class %v) differ at AS %d",
						members[0], s, at.parent, at.lat, v)
				}
			}
		}
	}
	if collided == 0 { // 200 stubs over 20x4 attachments must collide
		t.Fatal("no co-attached stub pair generated; test lost its teeth")
	}
	if _, err := Generate(GenConfig{Name: "x", AS: &ASGraphSpec{Sites: 10, ClientStubs: -1}}, 1); err == nil {
		t.Error("negative ClientStubs should be rejected")
	}
}

func TestGenerateASValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Name: "x", AS: &ASGraphSpec{Sites: 2}}, 1); err == nil {
		t.Error("too-small AS graph should fail")
	}
	if _, err := Generate(GenConfig{Name: "x", AS: &ASGraphSpec{Sites: 10, PeerDegree: 10}}, 1); err == nil {
		t.Error("peer degree >= sites should fail")
	}
	bad := GenConfig{
		Name:    "x",
		AS:      &ASGraphSpec{Sites: 10},
		Regions: []RegionSpec{{Name: "r", Count: 1}},
	}
	if _, err := Generate(bad, 1); err == nil {
		t.Error("Regions+AS should be rejected")
	}
}

func TestFromGraphValidation(t *testing.T) {
	g := graph.New(3)
	sites := []Site{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	if _, err := FromGraph("x", sites, g); err == nil {
		t.Error("disconnected graph should be rejected")
	}
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	topo, err := FromGraph("x", sites, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.RTT(0, 2); got != 3 {
		t.Fatalf("RTT(0,2) = %v, want 3 (path through b)", got)
	}
	if _, err := FromGraph("x", sites[:2], g); err == nil {
		t.Error("site/node count mismatch should be rejected")
	}
}
