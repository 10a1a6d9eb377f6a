package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

var testSpec = tenantSpec{
	name: serve.DefaultTenant, topo: "planetlab50", seed: topology.DefaultSeed, system: "grid:4",
	algo: "one-to-one", strat: "lp", demand: 8000, moveCost: 5, history: 64,
}

// testBatches covers a capacity-only delta first (the warm-path probe),
// then the other stages: eval-only demand, weights, an RTT drift
// through the hysteresis gate, a tightening capacity.
var testBatches = []string{
	`{"deltas":[{"kind":"capacity","site":"na-east-00","value":0.7}]}`,
	`{"deltas":[{"kind":"demand","value":12000}]}`,
	`{"deltas":[{"kind":"weights","weights":{"europe-00":3,"east-asia-00":2}}]}`,
	`{"deltas":[{"kind":"rtt","a":"na-east-00","b":"europe-00","value":240},{"kind":"rtt","a":"na-east-01","b":"europe-01","value":15}]}`,
	`{"deltas":[{"kind":"uniform-capacity","value":0.6}]}`,
}

// daemon is buildTenant behind quorumd's HTTP surface.
type daemon struct {
	m        *deploy.Manager
	replayed int
	url      string
	kill     func()
}

func startDaemon(t *testing.T, journal string) *daemon {
	t.Helper()
	m, replayed, err := buildTenant(testSpec, journal)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{})
	if _, err := reg.Open(testSpec.name, m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	// kill stops serving without closing the journal: every batch record
	// was fsynced when it was applied, which is all a kill -9 leaves.
	return &daemon{m: m, replayed: replayed, url: ts.URL, kill: ts.Close}
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return body
}

func (d *daemon) post(t *testing.T, batch string) {
	t.Helper()
	resp, err := http.Post(d.url+"/v1/deltas", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", batch, resp.StatusCode, body)
	}
}

// TestJournalDoesNotChooseSolverProfile: a journaled tenant plans
// exactly as an unjournaled one — a capacity-only delta re-solves warm,
// every /v1/plan body and the /v1/history match the unjournaled twin's
// byte for byte — and a killed daemon rebuilt on the same journal
// replays to the identical history.
func TestJournalDoesNotChooseSolverProfile(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journals", "default.journal")
	journaled, plain := startDaemon(t, journal), startDaemon(t, "")
	if journaled.replayed != 0 {
		t.Fatalf("fresh journal replayed %d batches", journaled.replayed)
	}
	for i, batch := range testBatches {
		journaled.post(t, batch)
		plain.post(t, batch)
		if i == 0 {
			snap := journaled.m.Current().Snapshot
			if got := snap.LP.LPMethod; got != lp.MethodWarmPrimal && got != lp.MethodWarmDual {
				t.Fatalf("journaled capacity-only delta solved %q (stages %v), want a warm re-solve",
					got, snap.Provenance.Recomputed)
			}
		}
		if a, b := journaled.get(t, "/v1/plan"), plain.get(t, "/v1/plan"); !bytes.Equal(a, b) {
			t.Fatalf("after batch %d: journaled and unjournaled /v1/plan bodies differ:\n%s\n%s", i+1, a, b)
		}
	}
	history := journaled.get(t, "/v1/history")
	if !bytes.Equal(history, plain.get(t, "/v1/history")) {
		t.Fatal("journaled and unjournaled /v1/history differ")
	}
	planBody := journaled.get(t, "/v1/plan")
	journaled.kill()

	rebuilt := startDaemon(t, journal)
	if rebuilt.replayed != len(testBatches) {
		t.Fatalf("rebuild replayed %d batches, want %d", rebuilt.replayed, len(testBatches))
	}
	if got := rebuilt.get(t, "/v1/history"); !bytes.Equal(got, history) {
		t.Fatalf("rebuilt /v1/history differs:\npre-kill: %s\nrebuilt:  %s", history, got)
	}
	if !bytes.Equal(rebuilt.get(t, "/v1/plan"), planBody) {
		t.Fatal("rebuilt /v1/plan differs from the pre-kill body")
	}
}
