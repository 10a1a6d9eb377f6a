package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// deployTopo builds a compact three-region WAN (18 sites) so manager
// tests stay fast even under the race detector.
func deployTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "deploy-test-18",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 6, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 6, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 6, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func deployPlanConfig() plan.Config {
	return plan.Config{
		System:       plan.SystemSpec{Family: "grid", Param: 3},
		Strategy:     plan.StratLP,
		Demand:       8000,
		Reproducible: true,
	}
}

func newManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	p, err := plan.New(deployTopo(t), deployPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// driftDeltas builds RTT deltas that make every link touching the
// current placement's support sites f times slower — a drift that makes
// the construction want to move the placement.
func driftDeltas(e *Entry, factor float64) []Delta {
	snap := e.Snapshot
	topo := snap.Topology
	inSupport := make(map[int]bool)
	for _, w := range snap.Placement.Targets() {
		inSupport[w] = true
	}
	var ds []Delta
	for u := 0; u < topo.Size(); u++ {
		for v := u + 1; v < topo.Size(); v++ {
			if !inSupport[u] && !inSupport[v] {
				continue
			}
			ds = append(ds, Delta{
				Kind:  KindRTT,
				A:     topo.Site(u).Name,
				B:     topo.Site(v).Name,
				Value: topo.RTT(u, v) * factor,
			})
		}
	}
	return ds
}

// TestDemandDeltaIsEvalOnly: demand telemetry must flow through the
// cheapest path — an eval-only incremental re-plan, never a cold plan.
func TestDemandDeltaIsEvalOnly(t *testing.T) {
	m := newManager(t, Config{MoveCost: 5})
	initial := m.Current()
	if initial.Snapshot.Version != 1 || initial.Decision != "initial" {
		t.Fatalf("initial entry: %+v", initial)
	}
	e, err := m.Apply([]Delta{{Kind: KindDemand, Value: 16000}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Snapshot.Version != 2 {
		t.Fatalf("version %d after one delta, want 2", e.Snapshot.Version)
	}
	if !e.Snapshot.Provenance.EvalOnly() {
		t.Fatalf("demand delta recomputed %v, want eval only", e.Snapshot.RecomputedNames())
	}
	if e.Decision != "adopt (eval-only)" {
		t.Fatalf("decision %q", e.Decision)
	}
	if !reflect.DeepEqual(e.Snapshot.Placement.Targets(), initial.Snapshot.Placement.Targets()) {
		t.Fatal("demand delta moved the placement")
	}
}

// TestHysteresis is the adaptation acceptance test: the same drift holds
// the placement under a high move cost (while the strategy re-optimizes
// for the new RTTs) and moves it under a low one.
func TestHysteresis(t *testing.T) {
	hold := newManager(t, Config{MoveCost: 1e9})
	move := newManager(t, Config{MoveCost: 1e-9})
	initial := hold.Current()
	drift := driftDeltas(initial, 8)

	me, err := move.Apply(drift)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(me.Decision, "move (gain ") {
		t.Fatalf("low-cost manager decided %q, want a gain-driven move", me.Decision)
	}
	moved := me.Snapshot.Placement.Targets()
	if reflect.DeepEqual(moved, initial.Snapshot.Placement.Targets()) {
		t.Fatal("drift did not actually move the placement; the hold test below would be vacuous")
	}

	he, err := hold.Apply(drift)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(he.Decision, "hold (gain ") {
		t.Fatalf("high-cost manager decided %q, want hold", he.Decision)
	}
	if !reflect.DeepEqual(he.Snapshot.Placement.Targets(), initial.Snapshot.Placement.Targets()) {
		t.Fatal("hold decision changed the placement")
	}
	if !he.Snapshot.Provenance.Pinned {
		t.Error("held snapshot not flagged as pinned")
	}
	recomputed := he.Snapshot.RecomputedNames()
	found := false
	for _, s := range recomputed {
		if s == "strategy" {
			found = true
		}
	}
	if !found {
		t.Errorf("hold re-plan recomputed %v; the strategy must re-optimize for the new RTTs", recomputed)
	}
	// The held plan pays for keeping its placement: it can never beat
	// the moved plan under identical conditions.
	if he.Snapshot.Response < me.Snapshot.Response-1e-9 {
		t.Errorf("held response %.3f beats moved response %.3f", he.Snapshot.Response, me.Snapshot.Response)
	}

	// The hold persists across later free re-plans.
	he2, err := hold.Apply([]Delta{{Kind: KindDemand, Value: 12000}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(he2.Decision, "adopt") || !he2.Snapshot.Provenance.Pinned {
		t.Fatalf("post-hold demand delta: decision %q pinned %v", he2.Decision, he2.Snapshot.Provenance.Pinned)
	}
	if !reflect.DeepEqual(he2.Snapshot.Placement.Targets(), initial.Snapshot.Placement.Targets()) {
		t.Fatal("pinned placement drifted on a demand re-plan")
	}
}

// TestUnchangedMetricKeepsDecision pins the contract between the planner's
// content-based invalidation and the manager's path choice, in the
// default profile: an rtt delta leaves the placement stage dirty until
// Plan, so the manager still takes the hysteresis path and reports
// "adopt (placement unchanged)" exactly as before — even when Plan then
// finds the closed metric unchanged, re-runs neither placement nor
// strategy, and publishes the retained LP result over the same matrix.
func TestUnchangedMetricKeepsDecision(t *testing.T) {
	pcfg := deployPlanConfig()
	pcfg.Reproducible = false
	p, err := plan.New(deployTopo(t), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{MoveCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	topo := m.Current().Snapshot.Topology
	a, b := topo.Site(0).Name, topo.Site(1).Name
	// Far enough up that the link carries no shortest path any more...
	moved, err := m.Apply([]Delta{{Kind: KindRTT, A: a, B: b, Value: topo.RTT(0, 1) * 20}})
	if err != nil {
		t.Fatal(err)
	}
	if got := moved.Snapshot.RecomputedNames(); !reflect.DeepEqual(got, []string{"topology", "placement", "strategy", "eval"}) {
		t.Fatalf("rtt delta that moves the metric recomputed %v", got)
	}
	// ...so raising it further changes no distance.
	same, err := m.Apply([]Delta{{Kind: KindRTT, A: a, B: b, Value: topo.RTT(0, 1) * 30}})
	if err != nil {
		t.Fatal(err)
	}
	if same.Decision != "adopt (placement unchanged)" {
		t.Fatalf("decision %q, want %q", same.Decision, "adopt (placement unchanged)")
	}
	if same.Snapshot.Version != moved.Snapshot.Version+1 {
		t.Fatalf("version %d after %d: the batch must still publish", same.Snapshot.Version, moved.Snapshot.Version)
	}
	if got := same.Snapshot.RecomputedNames(); !reflect.DeepEqual(got, []string{"topology"}) {
		t.Fatalf("rtt delta on an unused link recomputed %v, want the topology stage alone", got)
	}
	if same.Snapshot.LP != moved.Snapshot.LP {
		t.Error("the LP result was not retained")
	}
	if same.Snapshot.Topology.Distances() != moved.Snapshot.Topology.Distances() {
		t.Error("the snapshots do not share the closed matrix")
	}
	if got := m.LastPlan(); got.Closure != "incremental" || got.ChangedSites != 0 || got.Anchors != 0 {
		t.Errorf("counters %+v, want an incremental closure that changed and re-scored nothing", got)
	}
}

// TestCoalesce pins the batch-collapsing rules.
func TestCoalesce(t *testing.T) {
	cases := []struct {
		name string
		in   []Delta
		want []Delta
	}{
		{
			name: "last demand wins",
			in:   []Delta{{Kind: KindDemand, Value: 1}, {Kind: KindDemand, Value: 2}},
			want: []Delta{{Kind: KindDemand, Value: 2}},
		},
		{
			name: "rtt pair is unordered",
			in:   []Delta{{Kind: KindRTT, A: "x", B: "y", Value: 10}, {Kind: KindRTT, A: "y", B: "x", Value: 20}},
			want: []Delta{{Kind: KindRTT, A: "y", B: "x", Value: 20}},
		},
		{
			name: "uniform capacity subsumes per-site",
			in:   []Delta{{Kind: KindCapacity, Site: "x", Value: 2}, {Kind: KindUniformCapacity, Value: 5}},
			want: []Delta{{Kind: KindUniformCapacity, Value: 5}},
		},
		{
			name: "per-site after uniform survives in order",
			in:   []Delta{{Kind: KindUniformCapacity, Value: 5}, {Kind: KindCapacity, Site: "x", Value: 2}},
			want: []Delta{{Kind: KindUniformCapacity, Value: 5}, {Kind: KindCapacity, Site: "x", Value: 2}},
		},
		{
			name: "distinct sites kept",
			in:   []Delta{{Kind: KindCapacity, Site: "x", Value: 2}, {Kind: KindCapacity, Site: "y", Value: 3}},
			want: []Delta{{Kind: KindCapacity, Site: "x", Value: 2}, {Kind: KindCapacity, Site: "y", Value: 3}},
		},
	}
	for _, tc := range cases {
		if got := Coalesce(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Coalesce = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestDeltaValidation rejects malformed deltas before they touch a
// deployment.
func TestDeltaValidation(t *testing.T) {
	bad := []Delta{
		{},
		{Kind: "frobnicate"},
		{Kind: KindRTT, A: "x"},
		{Kind: KindRTT, A: "x", B: "x", Value: 10},
		{Kind: KindRTT, A: "x", B: "y", Value: 0},
		{Kind: KindRTT, A: "x", B: "y", Value: -3},
		{Kind: KindCapacity, Value: 1},
		{Kind: KindCapacity, Site: "x", Value: 0},
		{Kind: KindUniformCapacity, Value: -1},
		{Kind: KindDemand, Value: -1},
		{Kind: KindWeights, Weights: map[string]float64{"x": 0}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("invalid delta %d (%+v) accepted", i, d)
		}
	}
	good := []Delta{
		{Kind: KindRTT, A: "x", B: "y", Value: 10},
		{Kind: KindCapacity, Site: "x", Value: 1},
		{Kind: KindUniformCapacity, Value: 0.8},
		{Kind: KindDemand, Value: 0},
		{Kind: KindWeights},
		{Kind: KindWeights, Weights: map[string]float64{"x": 2}},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("valid delta %d rejected: %v", i, err)
		}
	}

	// Unknown site names are caught at apply time, atomically: the batch
	// is rejected before any delta lands.
	m := newManager(t, Config{})
	before := m.Current().Snapshot.Version
	_, err := m.Apply([]Delta{
		{Kind: KindDemand, Value: 999},
		{Kind: KindCapacity, Site: "no-such-site", Value: 1},
	})
	if err == nil {
		t.Fatal("unknown site accepted")
	}
	if got := m.Current().Snapshot.Version; got != before {
		t.Fatalf("rejected batch still published version %d", got)
	}
	if m.Current().Snapshot.Demand == 999 {
		t.Fatal("rejected batch partially applied")
	}
}

// wait is the long-poll a Notify consumer builds (internal/serve does,
// around its timer wheel): block until an entry with version greater
// than after is published and return it; on context cancellation return
// the current entry and the context's error.
func wait(ctx context.Context, m *Manager, after uint64) (*Entry, error) {
	for {
		ch := m.Notify()
		// Fetch, then check: a publish after the fetch closes exactly the
		// fetched channel, so none is lost between the check and the park.
		if e := m.Current(); e.Snapshot.Version > after {
			return e, nil
		}
		select {
		case <-ctx.Done():
			return m.Current(), ctx.Err()
		case <-ch:
		}
	}
}

// TestWait exercises the long-poll path: a waiter blocks until the next
// publish, and a cancelled context returns the current entry.
func TestWait(t *testing.T) {
	m := newManager(t, Config{})
	cur := m.Current().Snapshot.Version

	type result struct {
		e   *Entry
		err error
	}
	done := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e, err := wait(ctx, m, cur)
		done <- result{e, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := m.Apply([]Delta{{Kind: KindDemand, Value: 4000}}); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.e.Snapshot.Version != cur+1 {
		t.Fatalf("wait returned version %d, want %d", r.e.Snapshot.Version, cur+1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	e, err := wait(ctx, m, r.e.Snapshot.Version)
	if err == nil {
		t.Fatal("expired wait returned without error")
	}
	if e.Snapshot.Version != r.e.Snapshot.Version {
		t.Fatalf("expired wait served version %d, want current %d", e.Snapshot.Version, r.e.Snapshot.Version)
	}
}

// TestNotify exercises the epoch-broadcast park protocol the serving
// layer builds on: fetch the channel, re-check, park — one publish
// closes the fetched channel and wakes every parked receiver, and a
// channel fetched after the publish is a fresh (open) epoch.
func TestNotify(t *testing.T) {
	m := newManager(t, Config{})
	ch := m.Notify()
	if ch2 := m.Notify(); ch != ch2 {
		t.Fatal("Notify returned distinct channels with no publish in between")
	}
	select {
	case <-ch:
		t.Fatal("epoch channel closed before any publish")
	default:
	}

	const parked = 8
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	if _, err := m.Apply([]Delta{{Kind: KindDemand, Value: 4000}}); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // the single close woke all of them
	select {
	case <-ch:
	default:
		t.Fatal("pre-publish channel not closed by the publish")
	}
	if next := m.Notify(); next == ch {
		t.Fatal("post-publish Notify returned the closed epoch")
	}
}

// TestManagerConcurrent hammers a manager with concurrent delta posts
// and snapshot reads (run it with -race): versions must be monotonic
// from every reader's point of view, and every published snapshot must
// equal a cold plan of the applied-delta prefix it corresponds to, read
// back from the manager's journal.
func TestManagerConcurrent(t *testing.T) {
	topo := deployTopo(t)
	p, err := plan.New(topo, deployPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "concurrent.journal")
	m, _, err := Recover(p, Config{MoveCost: 0, HistoryLimit: 4096}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.journal.Close()
	siteName := func(i int) string { return topo.Site(i).Name }

	const appliers = 4
	const batches = 5
	var stop atomic.Bool
	var wgRead, wgApply sync.WaitGroup

	// Readers: versions never go backwards; Current never blocks.
	readerErr := make(chan error, 8)
	for r := 0; r < 3; r++ {
		wgRead.Add(1)
		go func() {
			defer wgRead.Done()
			last := uint64(0)
			for !stop.Load() {
				v := m.Current().Snapshot.Version
				if v < last {
					readerErr <- fmt.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	// A long-poll reader rides the notification path.
	wgRead.Add(1)
	go func() {
		defer wgRead.Done()
		after := uint64(0)
		for !stop.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			e, _ := wait(ctx, m, after)
			cancel()
			if e.Snapshot.Version < after {
				readerErr <- fmt.Errorf("wait went backwards: %d after %d", e.Snapshot.Version, after)
				return
			}
			after = e.Snapshot.Version
		}
	}()

	// Appliers: concurrent batches of valid deltas.
	applyErr := make(chan error, appliers)
	for a := 0; a < appliers; a++ {
		wgApply.Add(1)
		go func(seed int64) {
			defer wgApply.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batches; i++ {
				var batch []Delta
				switch rng.Intn(3) {
				case 0:
					batch = append(batch, Delta{Kind: KindDemand, Value: float64(rng.Intn(5)) * 4000})
				case 1:
					batch = append(batch, Delta{
						Kind: KindCapacity, Site: siteName(rng.Intn(topo.Size())),
						Value: 0.7 + rng.Float64()*0.3,
					})
				default:
					u := rng.Intn(topo.Size())
					v := (u + 1 + rng.Intn(topo.Size()-1)) % topo.Size()
					batch = append(batch, Delta{
						Kind: KindRTT, A: siteName(u), B: siteName(v),
						Value: 5 + rng.Float64()*295,
					})
				}
				if _, err := m.Apply(batch); err != nil {
					applyErr <- err
					return
				}
			}
		}(int64(a) * 1237)
	}

	doneApply := make(chan struct{})
	go func() {
		wgApply.Wait()
		close(doneApply)
	}()
	select {
	case err := <-applyErr:
		t.Fatal(err)
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent test wedged")
	case <-doneApply:
	}
	stop.Store(true)
	wgRead.Wait()
	select {
	case err := <-applyErr:
		t.Fatal(err)
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Verification: versions strictly increase through history, and each
	// entry reproduces a cold plan of its applied-delta prefix, the
	// journal's batches in commit order.
	entries := m.History()
	records, torn, err := journal.ReadAll(path)
	if err != nil || torn || len(records) != 1+appliers*batches {
		t.Fatalf("journal: %d records torn=%v err=%v, want header + %d", len(records), torn, err, appliers*batches)
	}
	var log []Delta
	for i, raw := range records[1:] {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		log = append(log, rec.Deltas...)
		if rec.Applied != len(log) {
			t.Fatalf("batch %d records %d applied, its batches sum to %d", i+1, rec.Applied, len(log))
		}
	}
	if len(log) != appliers*batches {
		t.Fatalf("journal holds %d deltas, want %d", len(log), appliers*batches)
	}
	last := uint64(0)
	for _, e := range entries {
		if e.Snapshot.Version <= last && last != 0 {
			t.Fatalf("history versions not strictly increasing: %d after %d", e.Snapshot.Version, last)
		}
		last = e.Snapshot.Version
	}
	for _, e := range entries {
		cold, err := plan.New(topo, deployPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range log[:e.Applied] {
			if err := d.ApplyTo(cold); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := cold.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Placement.Targets(), e.Snapshot.Placement.Targets()) {
			t.Fatalf("version %d placement diverged from cold plan of its %d-delta prefix", e.Snapshot.Version, e.Applied)
		}
		if ref.Response != e.Snapshot.Response || ref.NetDelay != e.Snapshot.NetDelay {
			t.Fatalf("version %d measures (%v, %v) != cold (%v, %v) at prefix %d",
				e.Snapshot.Version, e.Snapshot.Response, e.Snapshot.NetDelay, ref.Response, ref.NetDelay, e.Applied)
		}
	}
}

// TestHoldProvenanceCarriesBatchDeltas: a hold decision publishes the
// holdover snapshot, but its provenance must describe the user deltas
// that drove the re-plan, not the manager's internal pin bookkeeping.
func TestHoldProvenanceCarriesBatchDeltas(t *testing.T) {
	m := newManager(t, Config{MoveCost: 1e9})
	drift := driftDeltas(m.Current(), 8)
	e, err := m.Apply(drift)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(e.Decision, "hold") {
		t.Skipf("drift did not trigger a hold (%q); covered by TestHysteresis", e.Decision)
	}
	ds := e.Snapshot.Provenance.Deltas
	if len(ds) == 0 {
		t.Fatal("hold snapshot has no provenance deltas")
	}
	sawRTT := false
	for _, d := range ds {
		if strings.HasPrefix(d, "rtt ") {
			sawRTT = true
		}
		if d == "pin-placement" {
			t.Errorf("hold provenance leaks internal pin note: %v", ds)
		}
	}
	if !sawRTT {
		t.Errorf("hold provenance lost the batch's rtt deltas: %v", ds)
	}
}

// TestNoSpuriousVersionAfterMove: the planner is intentionally left
// dirty after a move decision (the candidate placement reconstructs
// lazily); a following no-op batch must not publish a new version for
// that leftover.
func TestNoSpuriousVersionAfterMove(t *testing.T) {
	m := newManager(t, Config{MoveCost: 1e-9})
	drift := driftDeltas(m.Current(), 8)
	e, err := m.Apply(drift)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(e.Decision, "move") {
		t.Fatalf("drift decided %q, want move", e.Decision)
	}
	v := e.Snapshot.Version
	// Value no-op: demand equals the current demand.
	e2, err := m.Apply([]Delta{{Kind: KindDemand, Value: e.Snapshot.Demand}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Snapshot.Version != v {
		t.Fatalf("no-op batch published version %d after %d", e2.Snapshot.Version, v)
	}
	// A real delta after the move still publishes, and its snapshot
	// keeps the moved placement.
	e3, err := m.Apply([]Delta{{Kind: KindDemand, Value: 2 * e.Snapshot.Demand}})
	if err != nil {
		t.Fatal(err)
	}
	if e3.Snapshot.Version <= v {
		t.Fatalf("real delta after move did not publish (version %d)", e3.Snapshot.Version)
	}
	if !reflect.DeepEqual(e3.Snapshot.Placement.Targets(), e.Snapshot.Placement.Targets()) {
		t.Fatal("post-move re-plan changed the placement without a placement delta")
	}
}
