package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func testServer(t *testing.T, cfg deploy.Config) (*httptest.Server, *deploy.Manager) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "serve-test-15",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 5, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 5, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 5, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.New(topo, plan.Config{
		System:   plan.SystemSpec{Family: "grid", Param: 3},
		Strategy: plan.StratLP,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(singleTenant(t, m, Options{MaxWait: 5 * time.Second}))
	t.Cleanup(ts.Close)
	return ts, m
}

// singleTenant serves one deployment as the registry's default tenant,
// reachable on the legacy single-tenant routes.
func singleTenant(t *testing.T, m *deploy.Manager, opts Options) http.Handler {
	t.Helper()
	reg := NewRegistry(opts)
	if _, err := reg.Open(DefaultTenant, m); err != nil {
		t.Fatal(err)
	}
	return reg.Handler()
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp
}

func postDeltas(t *testing.T, url, body string) (*DeltasResponse, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/deltas", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out DeltasResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

// TestServeAcceptance is the ISSUE's serving-layer criterion: a
// demand-only delta posted to quorumd's API advances the plan version
// through an eval-only incremental re-plan, with the provenance saying
// so.
func TestServeAcceptance(t *testing.T) {
	ts, _ := testServer(t, deploy.Config{MoveCost: 5})

	var p1 PlanJSON
	resp := getJSON(t, ts.URL+"/v1/plan", &p1)
	if p1.Version != 1 {
		t.Fatalf("initial version %d, want 1", p1.Version)
	}
	if resp.Header.Get("ETag") != `"v1"` {
		t.Fatalf("ETag %q, want \"v1\"", resp.Header.Get("ETag"))
	}
	if p1.Provenance.Summary != "cold" || p1.Provenance.Decision != "initial" {
		t.Fatalf("initial provenance %+v", p1.Provenance)
	}
	if len(p1.Sites) != 15 || len(p1.ElementSites) != 9 {
		t.Fatalf("plan shape: %d sites, %d element sites", len(p1.Sites), len(p1.ElementSites))
	}

	dr, status := postDeltas(t, ts.URL, `{"deltas":[{"kind":"demand","value":16000}]}`)
	if status != http.StatusOK {
		t.Fatalf("delta post status %d", status)
	}
	if dr.Version != 2 {
		t.Fatalf("post-delta version %d, want 2", dr.Version)
	}
	if dr.Provenance.Summary != "eval-only" {
		t.Fatalf("demand delta provenance %q, want eval-only (recomputed %v)",
			dr.Provenance.Summary, dr.Provenance.Recomputed)
	}

	var p2 PlanJSON
	getJSON(t, ts.URL+"/v1/plan", &p2)
	if p2.Version != 2 || p2.Demand != 16000 {
		t.Fatalf("served plan version %d demand %v", p2.Version, p2.Demand)
	}
}

// TestServeNotModified: If-None-Match with the current version returns
// 304 without a body.
func TestServeNotModified(t *testing.T) {
	ts, _ := testServer(t, deploy.Config{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/plan", nil)
	req.Header.Set("If-None-Match", `"v1"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
}

// TestServeLongPoll: a GET with after=<current> blocks until the next
// delta publishes, then returns the new snapshot; a timed-out poll
// serves the current one.
func TestServeLongPoll(t *testing.T) {
	ts, m := testServer(t, deploy.Config{})

	type res struct {
		p   PlanJSON
		err error
	}
	done := make(chan res, 1)
	go func() {
		var p PlanJSON
		resp, err := http.Get(ts.URL + "/v1/plan?after=1&timeout=10s")
		if err != nil {
			done <- res{err: err}
			return
		}
		defer resp.Body.Close()
		done <- res{err: json.NewDecoder(resp.Body).Decode(&p), p: p}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: 12000}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.p.Version != 2 {
			t.Fatalf("long-poll returned version %d, want 2", r.p.Version)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned")
	}

	// Timed-out poll: serves the current version.
	var p PlanJSON
	start := time.Now()
	getJSON(t, ts.URL+"/v1/plan?after=2&timeout=50ms", &p)
	if p.Version != 2 {
		t.Fatalf("timed-out poll served version %d, want 2", p.Version)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timed-out poll returned early")
	}
}

// TestServeBadRequests covers the API's rejection paths.
func TestServeBadRequests(t *testing.T) {
	ts, _ := testServer(t, deploy.Config{})
	cases := []string{
		`{`,
		`{"deltas":[]}`,
		`{"deltas":[{"kind":"frobnicate"}]}`,
		`{"deltas":[{"kind":"demand","value":-1}]}`,
		`{"deltas":[{"kind":"capacity","site":"no-such-site","value":1}]}`,
		`{"deltas":[{"kind":"demand","value":1,"unknown_field":true}]}`,
	}
	for _, body := range cases {
		if _, status := postDeltas(t, ts.URL, body); status != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plan?after=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad after: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/deltas")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/deltas: status %d, want 405", resp.StatusCode)
	}
}

// journaledServer is the quorumd -journal composition: an identically
// re-buildable planner under the given solver profile (quorumd runs the
// default one, journaled or not), a manager Recovered from the journal
// path, and the HTTP layer on top.
func journaledServer(t *testing.T, reproducible bool, path string) (*httptest.Server, *deploy.Manager, int) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "serve-test-15",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 5, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 5, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 5, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.New(topo, plan.Config{
		System:       plan.SystemSpec{Family: "grid", Param: 3},
		Strategy:     plan.StratLP,
		Demand:       8000,
		Reproducible: reproducible,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, replayed, err := deploy.Recover(p, deploy.Config{MoveCost: 5}, path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(singleTenant(t, m, Options{MaxWait: 5 * time.Second}))
	t.Cleanup(ts.Close)
	return ts, m, replayed
}

func getRaw(t *testing.T, url string) ([]byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header
}

// TestServeJournalRestartIdenticalHistory is the quorumd crash/restart
// acceptance test: a journaled daemon takes deltas over HTTP, is killed
// (server closed, journal never cleanly shut down — every batch record
// was already fsynced), and a daemon restarted with the same flags and
// journal replays to a byte-identical /v1/history and the same /v1/plan
// ETag before taking new deltas — under either solver profile.
func TestServeJournalRestartIdenticalHistory(t *testing.T) {
	t.Run("default", func(t *testing.T) { testServeJournalRestart(t, false) })
	t.Run("reproducible", func(t *testing.T) { testServeJournalRestart(t, true) })
}

func testServeJournalRestart(t *testing.T, reproducible bool) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	ts1, _, replayed := journaledServer(t, reproducible, path)
	if replayed != 0 {
		t.Fatalf("fresh journal replayed %d batches", replayed)
	}

	var p1 PlanJSON
	getJSON(t, ts1.URL+"/v1/plan", &p1)
	site := p1.Sites[0].Name
	for _, body := range []string{
		`{"deltas":[{"kind":"demand","value":16000}]}`,
		`{"deltas":[{"kind":"weights","weights":{"` + site + `":3}}]}`,
		`{"deltas":[{"kind":"capacity","site":"` + site + `","value":2.5}]}`,
	} {
		if _, status := postDeltas(t, ts1.URL, body); status != http.StatusOK {
			t.Fatalf("POST %s: status %d", body, status)
		}
	}
	wantHistory, _ := getRaw(t, ts1.URL+"/v1/history")
	wantPlan, wantHdr := getRaw(t, ts1.URL+"/v1/plan")
	ts1.Close() // the kill: no journal close, no drain

	ts2, _, replayed := journaledServer(t, reproducible, path)
	if replayed != 3 {
		t.Fatalf("restart replayed %d batches, want 3", replayed)
	}
	gotHistory, _ := getRaw(t, ts2.URL+"/v1/history")
	if !bytes.Equal(gotHistory, wantHistory) {
		t.Fatalf("restarted /v1/history differs:\npre-kill:  %s\nrestarted: %s", wantHistory, gotHistory)
	}
	gotPlan, gotHdr := getRaw(t, ts2.URL+"/v1/plan")
	if !bytes.Equal(gotPlan, wantPlan) {
		t.Fatal("restarted /v1/plan differs from pre-kill snapshot")
	}
	if gotHdr.Get("ETag") != wantHdr.Get("ETag") || gotHdr.Get("ETag") == "" {
		t.Fatalf("restarted ETag %q, want pre-kill %q", gotHdr.Get("ETag"), wantHdr.Get("ETag"))
	}

	// The restarted daemon is live: a new delta advances the version.
	dr, status := postDeltas(t, ts2.URL, `{"deltas":[{"kind":"demand","value":20000}]}`)
	if status != http.StatusOK {
		t.Fatalf("post-restart delta status %d", status)
	}
	var cur PlanJSON
	if err := json.Unmarshal(wantPlan, &cur); err != nil {
		t.Fatal(err)
	}
	if dr.Version <= cur.Version {
		t.Fatalf("post-restart version %d did not advance past %d", dr.Version, cur.Version)
	}
}

// TestServeHistory: the history endpoint lists re-plans newest first
// with their provenance and decisions.
func TestServeHistory(t *testing.T) {
	ts, m := testServer(t, deploy.Config{})
	if _, err := m.Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: 12000}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply([]deploy.Delta{{Kind: deploy.KindUniformCapacity, Value: 0.9}}); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Snapshots []HistoryEntryJSON `json:"snapshots"`
	}
	getJSON(t, ts.URL+"/v1/history", &h)
	if len(h.Snapshots) != 3 {
		t.Fatalf("history has %d entries, want 3", len(h.Snapshots))
	}
	if h.Snapshots[0].Version != 3 || h.Snapshots[2].Version != 1 {
		t.Fatalf("history order: %d..%d, want newest first", h.Snapshots[0].Version, h.Snapshots[len(h.Snapshots)-1].Version)
	}
	if h.Snapshots[1].Provenance.Summary != "eval-only" {
		t.Errorf("demand entry summary %q", h.Snapshots[1].Provenance.Summary)
	}

	getJSON(t, ts.URL+"/v1/history?limit=1", &h)
	if len(h.Snapshots) != 1 || h.Snapshots[0].Version != 3 {
		t.Fatalf("limited history: %+v", h.Snapshots)
	}
}
