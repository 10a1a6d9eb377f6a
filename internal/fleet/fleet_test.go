package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// testLogf returns a Logf for a Worker, Coordinator, Registry or Lease
// that forwards to t.Logf until t's cleanup runs and drops lines after
// that: a job's execute goroutine may still log once the test has
// returned, and t.Logf must not be called then.
func testLogf(t *testing.T) func(format string, args ...interface{}) {
	var mu sync.Mutex
	ended := false
	t.Cleanup(func() {
		mu.Lock()
		ended = true
		mu.Unlock()
	})
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		if !ended {
			t.Logf(format, args...)
		}
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
	srv := httptest.NewServer(NewWorker(WorkerOptions{MaxWait: time.Second}).Handler())
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
		Logf:     testLogf(t),
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
	coord, err := New(Config{Workers: []string{live.URL}, Logf: testLogf(t)})
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
// submissions, unknown jobs, bad shard ranges, long-poll running
// status, and the job list.
func TestWorkerHTTPValidation(t *testing.T) {
	srv := startWorker(t)
	post := func(body string) (*http.Response, error) {
		return http.Post(srv.URL+"/v1/shards", "application/json", strings.NewReader(body))
	}

	resp, err := post(`{"bogus": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = post(`{"spec": ` + string(specJSON) + `, "shard": 5, "shards": 2}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range shard: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/shards/job-99/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	// A valid submission long-polled with a tiny timeout may report
	// "running"; polling until done must produce the partial.
	resp, err = post(`{"spec": ` + string(specJSON) + `, "config": {"reproducible": true}, "shard": 0, "shards": 2}`)
	if err != nil {
		t.Fatal(err)
	}
	var sub ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: HTTP %d, id %q", resp.StatusCode, sub.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Get(srv.URL + "/v1/shards/" + sub.ID + "/result?timeout=50ms")
		if err != nil {
			t.Fatal(err)
		}
		var res ResultResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Status == StatusDone {
			if res.Partial == nil || len(res.Partial.Points) == 0 {
				t.Fatalf("done result without partial: %+v", res)
			}
			break
		}
		if res.Status != StatusRunning {
			t.Fatalf("unexpected status %q (%s)", res.Status, res.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}

	// Delivered jobs are evicted: the list is empty again and a second
	// result fetch is a 404 (a coordinator that lost the response
	// re-dispatches the shard instead).
	resp, err = http.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 0 {
		t.Errorf("delivered job not evicted: %+v", list.Jobs)
	}
	resp, err = http.Get(srv.URL + "/v1/shards/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("re-fetch of delivered job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestWorkerRunsSlotsShardsAtOnce: a 2-slot worker executes two shards
// at once, so GET /v1/shards lists both as running. Each job blocks in
// its "started" log line until both have started; a worker that runs
// one shard at a time never starts the second.
func TestWorkerRunsSlotsShardsAtOnce(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	logf := func(format string, args ...interface{}) {
		if strings.HasSuffix(format, "started") {
			started <- struct{}{}
			<-release
		}
	}
	srv := httptest.NewServer(NewWorker(WorkerOptions{Slots: 2, Logf: logf}).Handler())
	t.Cleanup(srv.Close)
	defer close(release)

	submitShards(t, srv.URL, 2)
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 jobs started: the worker runs fewer shards at once than its slots", i)
		}
	}

	jobs := listJobs(t, srv.URL)
	running := 0
	for _, j := range jobs {
		if j.Status == StatusRunning {
			running++
		}
	}
	if running != 2 {
		t.Fatalf("GET /v1/shards: %d running, want 2: %+v", running, jobs)
	}
}

// TestWorkerQueuesJobsBeyondSlots: a 1-slot worker given two shards
// runs one and lists the other as queued until the slot frees.
func TestWorkerQueuesJobsBeyondSlots(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	logf := func(format string, args ...interface{}) {
		if strings.HasSuffix(format, "started") {
			started <- struct{}{}
			<-release
		}
	}
	srv := httptest.NewServer(NewWorker(WorkerOptions{Logf: logf}).Handler())
	t.Cleanup(srv.Close)
	defer close(release)

	submitShards(t, srv.URL, 2)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no job started")
	}

	jobs := listJobs(t, srv.URL)
	count := map[string]int{}
	for _, j := range jobs {
		count[j.Status]++
	}
	if count[StatusRunning] != 1 || count[StatusQueued] != 1 || len(jobs) != 2 {
		t.Fatalf("GET /v1/shards: %v, want 1 running and 1 queued: %+v", count, jobs)
	}
}

// submitShards posts shards 0..n-1 of testSpec to a worker.
func submitShards(t *testing.T, url string, n int) {
	t.Helper()
	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < n; shard++ {
		body := fmt.Sprintf(`{"spec": %s, "config": {"reproducible": true}, "shard": %d, "shards": %d}`, specJSON, shard, n)
		resp, err := http.Post(url+"/v1/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit shard %d: HTTP %d", shard, resp.StatusCode)
		}
	}
}

// listJobs returns a worker's GET /v1/shards list.
func listJobs(t *testing.T, url string) []JobInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}
