package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// testManager builds a small deterministic deployment whose topology
// name carries the tenant label, so cross-tenant bleed is detectable
// in any served payload.
func testManager(t testing.TB, label string, seed int64) *deploy.Manager {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "tenant-" + label,
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 5, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 5, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.New(topo, plan.Config{
		System:   plan.SystemSpec{Family: "grid", Param: 3},
		Strategy: plan.StratClosest,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, deploy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestRegistryTenantIsolation: two tenants behind one registry serve
// independent plans, deltas route to the named tenant only, and the
// roster lists both.
func TestRegistryTenantIsolation(t *testing.T) {
	reg := NewRegistry(Options{MaxWait: 5 * time.Second})
	if _, err := reg.Open("alpha", testManager(t, "alpha", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("beta", testManager(t, "beta", 11)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	var alpha, beta PlanJSON
	for name, out := range map[string]*PlanJSON{"alpha": &alpha, "beta": &beta} {
		status, body, _ := get(t, ts.URL+"/v1/deployments/"+name+"/plan")
		if status != http.StatusOK {
			t.Fatalf("GET %s plan: status %d", name, status)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
	}
	if alpha.Topology != "tenant-alpha" || beta.Topology != "tenant-beta" {
		t.Fatalf("tenant bleed: alpha=%q beta=%q", alpha.Topology, beta.Topology)
	}

	// A delta posted to beta advances beta only.
	resp, err := http.Post(ts.URL+"/v1/deployments/beta/deltas", "application/json",
		strings.NewReader(`{"deltas":[{"kind":"demand","value":16000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta delta status %d", resp.StatusCode)
	}
	var a2, b2 PlanJSON
	_, body, _ := get(t, ts.URL+"/v1/deployments/alpha/plan")
	if err := json.Unmarshal(body, &a2); err != nil {
		t.Fatal(err)
	}
	_, body, _ = get(t, ts.URL+"/v1/deployments/beta/plan")
	if err := json.Unmarshal(body, &b2); err != nil {
		t.Fatal(err)
	}
	if a2.Version != 1 || b2.Version != 2 {
		t.Fatalf("after beta delta: alpha v%d (want 1), beta v%d (want 2)", a2.Version, b2.Version)
	}
	if b2.Demand != 16000 || a2.Demand != 8000 {
		t.Fatalf("demand bleed: alpha %v beta %v", a2.Demand, b2.Demand)
	}

	// Roster: both tenants, alpha (opened first) is the default.
	var roster struct {
		Deployments []DeploymentJSON `json:"deployments"`
	}
	_, body, _ = get(t, ts.URL+"/v1/deployments")
	if err := json.Unmarshal(body, &roster); err != nil {
		t.Fatal(err)
	}
	if len(roster.Deployments) != 2 ||
		roster.Deployments[0].Name != "alpha" || !roster.Deployments[0].Default ||
		roster.Deployments[1].Name != "beta" || roster.Deployments[1].Default {
		t.Fatalf("roster %+v", roster.Deployments)
	}

	// Unknown tenants and routes 404.
	if status, _, _ := get(t, ts.URL+"/v1/deployments/nosuch/plan"); status != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d", status)
	}
	if status, _, _ := get(t, ts.URL+"/v1/deployments/alpha/frobnicate"); status != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", status)
	}
}

// TestRegistryLegacyAliasByteIdentical: the legacy single-tenant
// routes serve the default deployment byte-for-byte — against the
// per-tenant route and against golden bodies recorded from the
// single-tenant server the registry replaced.
func TestRegistryLegacyAliasByteIdentical(t *testing.T) {
	m := testManager(t, "alias", 7)
	reg := NewRegistry(Options{})
	if _, err := reg.Open(DefaultTenant, m); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("other", testManager(t, "other", 11)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	if _, err := m.Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: 12000}}); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/v1/plan", "/v1/history"} {
		_, legacy, lh := get(t, ts.URL+route)
		_, tenant, th := get(t, ts.URL+"/v1/deployments/"+DefaultTenant+strings.TrimPrefix(route, "/v1"))
		golden, err := os.ReadFile(filepath.Join("testdata", "legacy_alias_"+path.Base(route)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy, tenant) {
			t.Fatalf("%s: legacy route differs from tenant route:\n%s\n---\n%s", route, legacy, tenant)
		}
		if !bytes.Equal(legacy, golden) {
			t.Fatalf("%s: legacy route differs from golden body:\n%s\n---\n%s", route, legacy, golden)
		}
		if lh.Get("ETag") != th.Get("ETag") {
			t.Fatalf("%s: ETag mismatch %q / %q", route, lh.Get("ETag"), th.Get("ETag"))
		}
	}
}

// TestRegistryOpenRejects: invalid names, duplicates, nil managers.
func TestRegistryOpenRejects(t *testing.T) {
	reg := NewRegistry(Options{})
	m := testManager(t, "a", 7)
	for _, name := range []string{"", "a/b", ".hidden", "no spaces", strings.Repeat("x", 65)} {
		if _, err := reg.Open(name, m); err == nil {
			t.Errorf("Open(%q) accepted", name)
		}
	}
	if _, err := reg.Open("ok-name.v2", m); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("ok-name.v2", testManager(t, "b", 8)); err == nil {
		t.Error("duplicate Open accepted")
	}
	if _, err := reg.Open("nil", nil); err == nil {
		t.Error("nil manager accepted")
	}
}

// TestServeTimeoutZero is the long-poll edge regression: ?after ≥
// current with ?timeout=0 returns the current snapshot immediately
// with its ETag instead of waiting (or 400ing, as the pre-fix server
// did).
func TestServeTimeoutZero(t *testing.T) {
	ts, _ := testServer(t, deploy.Config{})
	start := time.Now()
	status, body, hdr := get(t, ts.URL+"/v1/plan?after=99&timeout=0")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout=0 waited %v", elapsed)
	}
	var p PlanJSON
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 || hdr.Get("ETag") != `"v1"` {
		t.Fatalf("timeout=0 served v%d etag %q, want current v1", p.Version, hdr.Get("ETag"))
	}
	// "0s" spelling too.
	if status, _, _ := get(t, ts.URL+"/v1/plan?after=99&timeout=0s"); status != http.StatusOK {
		t.Fatalf("timeout=0s: status %d", status)
	}
	// Negative stays rejected.
	if status, _, _ := get(t, ts.URL+"/v1/plan?after=99&timeout=-1s"); status != http.StatusBadRequest {
		t.Fatalf("timeout=-1s: status %d, want 400", status)
	}
}

// TestServeWatcherCap: long-polls beyond Options.MaxWatchers are
// rejected with 503 + Retry-After instead of parking.
func TestServeWatcherCap(t *testing.T) {
	m := testManager(t, "cap", 7)
	reg := NewRegistry(Options{MaxWait: 10 * time.Second, MaxWatchers: 2})
	tenant, err := reg.Open("capped", m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	var parked sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			resp, err := http.Get(ts.URL + "/v1/deployments/capped/plan?after=1&timeout=8s")
			if err == nil {
				resp.Body.Close()
			}
			<-release
		}()
	}
	// Wait until both watchers are parked.
	for i := 0; i < 200 && tenant.Stats().Parked < 2; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := tenant.Stats().Parked; got != 2 {
		t.Fatalf("parked %d, want 2", got)
	}
	status, _, hdr := get(t, ts.URL+"/v1/deployments/capped/plan?after=1&timeout=8s")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-cap poll: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("over-cap poll: no Retry-After header")
	}
	if tenant.Stats().Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", tenant.Stats().Rejected)
	}
	// Un-park the watchers and make sure capacity frees up.
	if _, err := m.Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: 9000}}); err != nil {
		t.Fatal(err)
	}
	close(release)
	parked.Wait()
	if status, _, _ := get(t, ts.URL+"/v1/deployments/capped/plan?after=2&timeout=0"); status != http.StatusOK {
		t.Fatalf("post-release poll: status %d", status)
	}
}

// TestTenantStats: the per-tenant counters move with traffic.
func TestTenantStats(t *testing.T) {
	m := testManager(t, "stats", 7)
	reg := NewRegistry(Options{})
	tenant, err := reg.Open("stats", m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	get(t, ts.URL+"/v1/deployments/stats/plan")
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/deployments/stats/plan", nil)
	req.Header.Set("If-None-Match", `"v1"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("INM status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/deployments/stats/deltas", "application/json",
		strings.NewReader(`{"deltas":[{"kind":"demand","value":16000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/deployments/stats/deltas", "application/json",
		strings.NewReader(`{"deltas":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s := tenant.Stats()
	if s.Name != "stats" || s.Version != 2 {
		t.Fatalf("stats identity: %+v", s)
	}
	if s.Reads != 1 || s.NotModified != 1 {
		t.Fatalf("read counters: reads %d, 304s %d", s.Reads, s.NotModified)
	}
	if s.DeltaBatches != 1 || s.DeltaErrors != 1 {
		t.Fatalf("delta counters: batches %d, errors %d", s.DeltaBatches, s.DeltaErrors)
	}
	if s.ReplanLastMS <= 0 || s.ReplanTotalMS < s.ReplanLastMS {
		t.Fatalf("replan timings: last %v total %v", s.ReplanLastMS, s.ReplanTotalMS)
	}
	if got := s.ReplanLast; got != (plan.Stats{}) {
		t.Fatalf("a demand-only batch re-closed, re-placed or re-solved something: %+v", got)
	}
	all := reg.Stats()
	if len(all) != 1 || all["stats"].Reads != 1 {
		t.Fatalf("registry stats: %+v", all)
	}

	// An rtt batch shows what its plan did: the edit folded into the
	// closed matrix, how many sites moved, the anchors scored again.
	topo := m.Current().Snapshot.Topology
	resp, err = http.Post(ts.URL+"/v1/deployments/stats/deltas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"deltas":[{"kind":"rtt","a":%q,"b":%q,"value":%v}]}`,
			topo.Site(0).Name, topo.Site(1).Name, topo.RTT(0, 1)/2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	last := tenant.Stats().ReplanLast
	if last.Closure != "incremental" || last.ChangedSites < 2 || last.Anchors != topo.Size() || last.AnchorsScored == 0 {
		t.Fatalf("rtt batch counters: %+v", last)
	}
}

// TestRegistryConcurrentWatchers is the race-mode fan-out test: N
// tenants × M concurrent long-polling watchers with interleaved delta
// writers. Asserts per-tenant versions are strictly monotonic at every
// watcher, snapshots never bleed across tenants, and every parked
// watcher is woken by the publish it awaits (no lost wakeups).
func TestRegistryConcurrentWatchers(t *testing.T) {
	const (
		tenants  = 3
		watchers = 8
		rounds   = 4
	)
	reg := NewRegistry(Options{MaxWait: 30 * time.Second})
	names := make([]string, tenants)
	mgrs := make([]*deploy.Manager, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		mgrs[i] = testManager(t, names[i], int64(7+i))
		if _, err := reg.Open(names[i], mgrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// Per tenant and round: park all M watchers (observed via the parked
	// counter), publish exactly once, and require every watcher to come
	// back with exactly that publish's version — proving one channel
	// close woke them all, with no lost wakeups and no version skew.
	var wg sync.WaitGroup
	var woken atomic.Int64
	errc := make(chan error, tenants*(watchers+1)*rounds)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := reg.Tenant(names[ti])
			demand := 8000.0
			for r := 0; r < rounds; r++ {
				after := uint64(r + 1) // current version this round
				var rwg sync.WaitGroup
				for wi := 0; wi < watchers; wi++ {
					rwg.Add(1)
					go func() {
						defer rwg.Done()
						url := fmt.Sprintf("%s/v1/deployments/%s/plan?after=%d&timeout=25s", ts.URL, names[ti], after)
						resp, err := http.Get(url)
						if err != nil {
							errc <- err
							return
						}
						var p PlanJSON
						err = json.NewDecoder(resp.Body).Decode(&p)
						resp.Body.Close()
						if err != nil {
							errc <- err
							return
						}
						if p.Topology != "tenant-"+names[ti] {
							errc <- fmt.Errorf("tenant %s served topology %q", names[ti], p.Topology)
							return
						}
						if p.Version != after+1 {
							errc <- fmt.Errorf("tenant %s: watcher woke at v%d, want v%d (one publish)", names[ti], p.Version, after+1)
							return
						}
						woken.Add(1)
					}()
				}
				deadline := time.Now().Add(20 * time.Second)
				for tenant.Stats().Parked < watchers {
					if time.Now().After(deadline) {
						errc <- fmt.Errorf("tenant %s round %d: only %d/%d watchers parked", names[ti], r, tenant.Stats().Parked, watchers)
						break
					}
					time.Sleep(time.Millisecond)
				}
				demand += 1000
				if _, err := mgrs[ti].Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: demand}}); err != nil {
					errc <- err
				}
				rwg.Wait()
			}
		}(ti)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if woken.Load() != tenants*watchers*rounds {
		t.Fatalf("completed %d watcher rounds, want %d", woken.Load(), tenants*watchers*rounds)
	}
	// Every tenant's history is strictly monotonic from v1.
	for ti, m := range mgrs {
		hist := m.History()
		for i, e := range hist {
			if e.Snapshot.Version != uint64(i+1) {
				t.Fatalf("tenant %d history[%d] = v%d", ti, i, e.Snapshot.Version)
			}
		}
	}
}
