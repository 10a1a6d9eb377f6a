package deploy

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// sameOutcome asserts two snapshots describe the same deployment state:
// identical placement, measures, demand model, and per-site capacities.
// Versions are allowed to differ (that is the point of the batching
// tests: same state, different publish counts).
func sameOutcome(t *testing.T, label string, a, b *plan.Snapshot) {
	t.Helper()
	if a.Response != b.Response || a.NetDelay != b.NetDelay || a.MaxLoad != b.MaxLoad {
		t.Errorf("%s: measures differ: (%v %v %v) vs (%v %v %v)",
			label, a.Response, a.NetDelay, a.MaxLoad, b.Response, b.NetDelay, b.MaxLoad)
	}
	if !reflect.DeepEqual(a.Placement.Targets(), b.Placement.Targets()) {
		t.Errorf("%s: placements differ: %v vs %v", label, a.Placement.Targets(), b.Placement.Targets())
	}
	if a.Demand != b.Demand || !reflect.DeepEqual(a.Weights, b.Weights) {
		t.Errorf("%s: demand model differs", label)
	}
	if a.Topology.Size() != b.Topology.Size() {
		t.Fatalf("%s: topology sizes differ: %d vs %d", label, a.Topology.Size(), b.Topology.Size())
	}
	for i := 0; i < a.Topology.Size(); i++ {
		if a.Topology.Site(i).Name != b.Topology.Site(i).Name {
			t.Fatalf("%s: site %d differs: %q vs %q", label, i, a.Topology.Site(i).Name, b.Topology.Site(i).Name)
		}
		if a.Topology.Capacity(i) != b.Topology.Capacity(i) {
			t.Errorf("%s: capacity of %q differs: %v vs %v",
				label, a.Topology.Site(i).Name, a.Topology.Capacity(i), b.Topology.Capacity(i))
		}
		for j := i + 1; j < a.Topology.Size(); j++ {
			if a.Topology.RTT(i, j) != b.Topology.RTT(i, j) {
				t.Errorf("%s: rtt(%d,%d) differs: %v vs %v", label, i, j, a.Topology.RTT(i, j), b.Topology.RTT(i, j))
			}
		}
	}
}

// TestCoalesceBatchEquivalentToSequential is the Coalesce correctness
// proof the coalescing rules promise: for interleaved uniform-capacity /
// per-site capacity chains (the suspected-buggy case) and randomized
// mixed-kind chains, applying the whole chain as one coalesced batch
// ends in exactly the state of applying each delta as its own batch.
// The load-bearing properties are (a) a later uniform-capacity delta
// supersedes earlier per-site deltas (the special case in supersedes),
// and (b) a later delta never moves before a surviving earlier one, so
// a per-site override issued after a uniform reset survives in order.
func TestCoalesceBatchEquivalentToSequential(t *testing.T) {
	topo := deployTopo(t)
	s := func(i int) string { return topo.Site(i).Name }
	chains := map[string][]Delta{
		"uniform-supersedes-stale-per-site": {
			{Kind: KindCapacity, Site: s(0), Value: 2},
			{Kind: KindCapacity, Site: s(1), Value: 3},
			{Kind: KindUniformCapacity, Value: 5},
		},
		"per-site-override-after-uniform": {
			{Kind: KindUniformCapacity, Value: 5},
			{Kind: KindCapacity, Site: s(0), Value: 2},
		},
		"interleaved-chain": {
			{Kind: KindCapacity, Site: s(0), Value: 2},
			{Kind: KindUniformCapacity, Value: 5},
			{Kind: KindCapacity, Site: s(0), Value: 3},
			{Kind: KindCapacity, Site: s(1), Value: 4},
			{Kind: KindUniformCapacity, Value: 2},
			{Kind: KindCapacity, Site: s(2), Value: 6},
		},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		chain := make([]Delta, 0, 40)
		for i := 0; i < 40; i++ {
			switch rng.Intn(5) {
			case 0:
				chain = append(chain, Delta{Kind: KindCapacity, Site: s(rng.Intn(topo.Size())), Value: 1 + rng.Float64()*4})
			case 1:
				chain = append(chain, Delta{Kind: KindUniformCapacity, Value: 1 + rng.Float64()*4})
			case 2:
				u := rng.Intn(topo.Size())
				v := (u + 1 + rng.Intn(topo.Size()-1)) % topo.Size()
				chain = append(chain, Delta{Kind: KindRTT, A: s(u), B: s(v), Value: 5 + rng.Float64()*100})
			case 3:
				chain = append(chain, Delta{Kind: KindDemand, Value: 1000 + rng.Float64()*20000})
			case 4:
				chain = append(chain, Delta{Kind: KindWeights, Weights: map[string]float64{
					s(rng.Intn(topo.Size())): 0.5 + rng.Float64()*3,
					s(rng.Intn(topo.Size())): 0.5 + rng.Float64()*3,
				}})
			}
		}
		chains["randomized-"+string(rune('a'+trial))] = chain
	}

	for name, chain := range chains {
		t.Run(name, func(t *testing.T) {
			seq := newManager(t, Config{})
			batch := newManager(t, Config{})
			for i, d := range chain {
				if _, err := seq.Apply([]Delta{d}); err != nil {
					t.Fatalf("sequential apply %d: %v", i, err)
				}
			}
			if _, err := batch.Apply(chain); err != nil {
				t.Fatalf("batch apply: %v", err)
			}
			sameOutcome(t, name, seq.Current().Snapshot, batch.Current().Snapshot)
		})
	}
}

// TestApplyContinuousSmallBatches documents the cost and the
// equivalence of continuous small-batch ingestion (what a probe mesh
// produces) versus client-side batching: 1k single-delta batches end in
// exactly the state of one coalesced 1k-delta batch, but publish 1000
// versions where the coalesced batch publishes 1. This is why the probe
// batcher coalesces locally and posts on a cadence.
func TestApplyContinuousSmallBatches(t *testing.T) {
	topo := deployTopo(t)
	s := func(i int) string { return topo.Site(i).Name }
	rng := rand.New(rand.NewSource(20070625))
	const n = 1000
	deltas := make([]Delta, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			u := rng.Intn(topo.Size())
			v := (u + 1 + rng.Intn(topo.Size()-1)) % topo.Size()
			deltas = append(deltas, Delta{Kind: KindRTT, A: s(u), B: s(v), Value: 5 + rng.Float64()*120})
		case 1:
			deltas = append(deltas, Delta{Kind: KindCapacity, Site: s(rng.Intn(topo.Size())), Value: 1 + rng.Float64()*4})
		case 2:
			deltas = append(deltas, Delta{Kind: KindUniformCapacity, Value: 1 + rng.Float64()*4})
		case 3:
			deltas = append(deltas, Delta{Kind: KindDemand, Value: 1000 + rng.Float64()*20000})
		case 4:
			deltas = append(deltas, Delta{Kind: KindWeights, Weights: map[string]float64{
				s(rng.Intn(topo.Size())): 0.5 + rng.Float64()*3,
			}})
		}
	}

	seq := newManager(t, Config{})
	for i, d := range deltas {
		if _, err := seq.Apply([]Delta{d}); err != nil {
			t.Fatalf("single-delta batch %d: %v", i, err)
		}
	}
	one := newManager(t, Config{})
	if _, err := one.Apply(deltas); err != nil {
		t.Fatalf("coalesced batch: %v", err)
	}

	sameOutcome(t, "1k-vs-coalesced", seq.Current().Snapshot, one.Current().Snapshot)
	// Every random continuous value changes the planner, so unbatched
	// ingestion pays one published version per delta; the coalesced batch
	// pays exactly one on top of the initial plan.
	if got := seq.Current().Snapshot.Version; got != n+1 {
		t.Errorf("sequential version %d, want %d", got, n+1)
	}
	if got := one.Current().Snapshot.Version; got != 2 {
		t.Errorf("coalesced version %d, want 2", got)
	}
}

// TestMembershipDeltas covers the add-site/remove-site wire kinds:
// churn round-trips through Apply, batches validate membership
// positionally, and membership deltas never coalesce away.
func TestMembershipDeltas(t *testing.T) {
	m := newManager(t, Config{})
	n := m.Current().Snapshot.Topology.Size()
	add := Delta{Kind: KindAddSite, Site: "probe-01", Region: "west", Lat: 39.5, Lon: -119.8, AccessMS: 3, Value: 2}

	e, err := m.Apply([]Delta{add})
	if err != nil {
		t.Fatal(err)
	}
	topo := e.Snapshot.Topology
	if topo.Size() != n+1 {
		t.Fatalf("size %d after add, want %d", topo.Size(), n+1)
	}
	idx := -1
	for i := 0; i < topo.Size(); i++ {
		if topo.Site(i).Name == "probe-01" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("added site missing from snapshot topology")
	}
	if got := topo.Capacity(idx); got != 2 {
		t.Fatalf("added site capacity %v, want 2", got)
	}
	if !strings.HasPrefix(e.Decision, "move") {
		t.Fatalf("add-site decision %q, want a placement re-plan", e.Decision)
	}

	// The synthesized RTTs must match EstimateRTT with the shared peer
	// access default — the same formula the scenario engine uses — up to
	// the metric closure (closure can only shorten paths).
	site := topology.Site{Name: "probe-01", Region: "west", Lat: 39.5, Lon: -119.8}
	for i := 0; i < topo.Size(); i++ {
		if i == idx {
			continue
		}
		est := topology.EstimateRTT(site, topo.Site(i), 0, 3, DefaultPeerAccessMS)
		if got := topo.RTT(idx, i); got > est {
			t.Fatalf("rtt(probe-01, %s) = %v, want <= estimate %v", topo.Site(i).Name, got, est)
		}
	}

	// Duplicate add and unknown remove are rejected atomically.
	if _, err := m.Apply([]Delta{add}); err == nil {
		t.Fatal("duplicate add-site accepted")
	}
	if _, err := m.Apply([]Delta{{Kind: KindRemoveSite, Site: "no-such"}}); err == nil {
		t.Fatal("remove of unknown site accepted")
	}
	// A batch adding the same site twice must fail exactly as the
	// sequential applies would — which is why membership never coalesces.
	if _, err := m.Apply([]Delta{
		{Kind: KindAddSite, Site: "probe-02", Lat: 1, Lon: 1},
		{Kind: KindAddSite, Site: "probe-02", Lat: 1, Lon: 1},
	}); err == nil {
		t.Fatal("batch with duplicate add-site accepted")
	}
	if m.Current().Snapshot.Topology.Size() != n+1 {
		t.Fatal("rejected membership batch partially applied")
	}

	// Add-then-remove in one batch round-trips through validation and
	// leaves the roster unchanged.
	if _, err := m.Apply([]Delta{
		{Kind: KindAddSite, Site: "probe-03", Lat: 10, Lon: 10},
		{Kind: KindCapacity, Site: "probe-03", Value: 4},
		{Kind: KindRemoveSite, Site: "probe-03"},
	}); err != nil {
		t.Fatalf("add/configure/remove batch: %v", err)
	}
	if m.Current().Snapshot.Topology.Size() != n+1 {
		t.Fatal("add+remove batch changed the roster")
	}

	// Remove the added site again; deltas referencing it afterwards fail.
	if _, err := m.Apply([]Delta{{Kind: KindRemoveSite, Site: "probe-01"}}); err != nil {
		t.Fatal(err)
	}
	if m.Current().Snapshot.Topology.Size() != n {
		t.Fatal("remove-site did not shrink the roster")
	}
	if _, err := m.Apply([]Delta{{Kind: KindCapacity, Site: "probe-01", Value: 1}}); err == nil {
		t.Fatal("delta for removed site accepted")
	}

	// Malformed membership deltas never reach the planner.
	for _, d := range []Delta{
		{Kind: KindAddSite},
		{Kind: KindAddSite, Site: "x", Lat: 91},
		{Kind: KindAddSite, Site: "x", Lon: -200},
		{Kind: KindAddSite, Site: "x", AccessMS: -1},
		{Kind: KindAddSite, Site: "x", Value: -2},
		{Kind: KindRemoveSite},
	} {
		if err := d.Validate(); err == nil {
			t.Errorf("invalid membership delta accepted: %+v", d)
		}
	}
}

// TestCoalesceKeepsMembershipOrder pins the coalescing rules around
// membership deltas: value deltas still coalesce across them, but
// add-site/remove-site themselves are never dropped or reordered.
func TestCoalesceKeepsMembershipOrder(t *testing.T) {
	in := []Delta{
		{Kind: KindRTT, A: "x", B: "y", Value: 5},
		{Kind: KindAddSite, Site: "z", Lat: 1, Lon: 1},
		{Kind: KindAddSite, Site: "z", Lat: 2, Lon: 2},
		{Kind: KindRemoveSite, Site: "z"},
		{Kind: KindRTT, A: "x", B: "y", Value: 7},
	}
	want := []Delta{
		{Kind: KindAddSite, Site: "z", Lat: 1, Lon: 1},
		{Kind: KindAddSite, Site: "z", Lat: 2, Lon: 2},
		{Kind: KindRemoveSite, Site: "z"},
		{Kind: KindRTT, A: "x", B: "y", Value: 7},
	}
	if got := Coalesce(in); !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %+v, want %+v", got, want)
	}
}

// TestReplanErrorIsErrReplan guards the 409-vs-400 split the serving
// layer relies on: a batch that applies but cannot be planned wraps
// ErrReplan; a malformed batch does not.
func TestReplanErrorIsErrReplan(t *testing.T) {
	m := newManager(t, Config{})
	if _, err := m.Apply([]Delta{{Kind: KindCapacity, Site: "nope", Value: 1}}); errors.Is(err, ErrReplan) {
		t.Fatal("validation error wraps ErrReplan")
	}
}
