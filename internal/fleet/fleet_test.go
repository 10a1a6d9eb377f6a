package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// TestMain fails the package if goroutines outlive its tests: every
// worker request, coordinator attempt, lease and proxy must be stopped
// and waited for by its owner.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !goroutinesSettle(base) {
		fmt.Fprintf(os.Stderr, "goroutines outlived the tests: %d running, %d at start\n", runtime.NumGoroutine(), base)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle closes the default transport's idle keep-alive
// connections (their read and write loops are goroutines) and waits a
// few seconds for the goroutine count to fall back to base.
func goroutinesSettle(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if runtime.NumGoroutine() <= base {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testSpec is a small eval scenario with enough points (5) to spread
// across workers.
func testSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "fleet-test",
		Kind: scenario.KindEval,
		Topology: scenario.TopologySpec{
			Source: "synth",
			Seed:   11,
			Synth: &topology.GenConfig{
				Name:      "fleet-test-12",
				Inflation: 1.4,
				Regions: []topology.RegionSpec{
					{Name: "west", Count: 6, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
					{Name: "east", Count: 6, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
				},
			},
		},
		Systems:    []scenario.SystemAxis{{Family: "singleton"}, {Family: "grid", Params: []int{2, 3}}, {Family: "majority", Params: []int{1, 2}}},
		Demands:    []float64{0, 4000},
		Strategies: []string{"closest", "lp"},
		Measures:   []string{"response"},
	}
}

func testCfg() scenario.RunConfig {
	return scenario.RunConfig{Reproducible: true}
}

func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestFleetRetriesDeadWorker: shards assigned to an unreachable worker
// are retried on the live one and the run still merges correctly.
func TestFleetRetriesDeadWorker(t *testing.T) {
	spec, cfg := testSpec(), testCfg()
	base, err := scenario.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // now refuses connections
	live := startWorker(t)
	coord, err := New(Config{
		Workers:  []string{dead.URL, live.URL},
		Shards:   2,
		Attempts: 2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Rows, got.Rows) {
		t.Fatal("retried fleet run differs from local run")
	}
}

// TestFleetSurfacesJobErrors: a spec that enumerates but cannot execute
// (its topology file is missing) fails the run with the worker's error.
func TestFleetSurfacesJobErrors(t *testing.T) {
	spec := testSpec()
	spec.Topology = scenario.TopologySpec{Source: "file", Path: "/nonexistent/topo.txt"}
	live := startWorker(t)
	coord, err := New(Config{Workers: []string{live.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(spec, testCfg())
	if err == nil {
		t.Fatal("missing topology file did not fail the run")
	}
	if !strings.Contains(err.Error(), "no such file") {
		t.Errorf("error %q does not carry the worker-side cause", err)
	}
}

// TestWorkerHTTPValidation covers the protocol edges: malformed
// requests, bad shard ranges, the absent result route, a shard that
// fails to execute, a shard answered with its partial, and the job list.
func TestWorkerHTTPValidation(t *testing.T) {
	srv := startWorker(t)
	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"out-of-range shard", `{"spec": ` + string(specJSON) + `, "shard": 5, "shards": 2}`, http.StatusBadRequest},
	} {
		if code, err := postShard(context.Background(), srv.URL, c.body); err != nil || code != c.want {
			t.Errorf("%s: HTTP %d (%v), want %d", c.name, code, err, c.want)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/shards/job-1/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("result route: HTTP %d, want 404 (a shard's POST carries its result)", resp.StatusCode)
	}

	// A shard that cannot execute (its topology file is missing) is a
	// 500 carrying the cause.
	broken := testSpec()
	broken.Topology = scenario.TopologySpec{Source: "file", Path: "/nonexistent/topo.txt"}
	brokenJSON, err := json.Marshal(broken)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/shards", "application/json",
		strings.NewReader(`{"spec": `+string(brokenJSON)+`, "shard": 0, "shards": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var failure struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&failure); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(failure.Error, "no such file") {
		t.Errorf("failed execution: HTTP %d %q, want 500 with the cause", resp.StatusCode, failure.Error)
	}

	// A valid request is answered with the shard's partial.
	resp, err = http.Post(srv.URL+"/v1/shards", "application/json",
		strings.NewReader(`{"spec": `+string(specJSON)+`, "config": {"reproducible": true}, "shard": 0, "shards": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var partial scenario.Partial
	if err := json.NewDecoder(resp.Body).Decode(&partial); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(partial.Points) == 0 || partial.Table == nil {
		t.Fatalf("shard: HTTP %d, partial %+v", resp.StatusCode, partial)
	}

	// Nothing outlives its request: the list is empty again.
	if jobs := listJobs(t, srv.URL); len(jobs) != 0 {
		t.Errorf("answered shard still listed: %+v", jobs)
	}
}

// holdStarted returns a worker Logf that blocks each shard in its
// "started" line — before it executes — until release closes,
// announcing it on started first.
func holdStarted(started chan<- struct{}, release <-chan struct{}) func(string, ...interface{}) {
	return func(format string, args ...interface{}) {
		if strings.HasSuffix(format, "started") {
			started <- struct{}{}
			<-release
		}
	}
}

// TestWorkerRunsSlotsShardsAtOnce: a worker registered with two slots
// is sent two of the run's four shards at once and runs both, and the
// coordinator keeps the other two until a slot frees. Each shard blocks
// in its "started" log line until the test releases them, so no
// outcome can free a slot while the test looks.
func TestWorkerRunsSlotsShardsAtOnce(t *testing.T) {
	h := newFleetHarness(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv := httptest.NewServer(NewWorker(WorkerOptions{Logf: holdStarted(started, release)}).Handler())
	t.Cleanup(srv.Close)
	h.reg.Register(srv.URL, 2)

	var got *scenario.Table
	var err error
	var wg sync.WaitGroup
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer func() { releaseOnce(); wg.Wait() }()
	coord := h.coordinator(Config{Shards: 4})
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err = coord.Run(testSpec(), testCfg())
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 shards started: the worker was sent fewer shards than its slots", i)
		}
	}
	if jobs := listJobs(t, srv.URL); len(jobs) != 2 {
		t.Errorf("GET /v1/shards lists %q, want the two running shards", jobs)
	}
	if n := h.log.count(EventDispatch); n != 2 {
		t.Errorf("%d dispatches while both slots are held, want 2: the other shards wait for a free slot", n)
	}

	releaseOnce()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	h.assertByteIdentical(got)
}

// postShard posts one shard request and returns the response status.
func postShard(ctx context.Context, url, body string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/shards", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// listJobs returns the labels a worker's GET /v1/shards lists.
func listJobs(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Shards []string `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Shards
}
