// Package fleet distributes scenario execution across worker processes:
// a Coordinator partitions a spec's point-space into shards, dispatches
// them to Workers over HTTP, retries failures on other workers, and
// merges the returned partials into output byte-identical to an
// unsharded run. The coordinator dispatches over a roster: workers
// self-register with a Registry and heartbeat, or are listed by address
// and pinned into one for good. A worker that misses heartbeats while
// holding a shard has that shard re-dispatched immediately (the dead
// worker excluded), and late duplicate results are discarded by
// shard-attempt id.
//
// The protocol reuses the serving layer's idioms (strict JSON, long
// polls, {"error": ...} bodies). Worker side:
//
//	POST /v1/shards              — {"spec": ..., "config": ..., "shard":
//	                               i, "shards": n} enqueues one shard
//	                               job and returns {"id": ...}.
//	GET  /v1/shards              — lists jobs (id, label, status);
//	                               Slots of them run at once.
//	GET  /v1/shards/<id>/result  — long-polls (?timeout, capped by the
//	                               worker's MaxWait) until the job
//	                               finishes; replies {"status":
//	                               "running"} on timeout so the caller
//	                               polls again, else the partial or the
//	                               execution error.
//
// Registry side (mounted next to the coordinator; workers drive it
// through a Lease):
//
//	POST /v1/workers                — {"addr": ...} self-registration,
//	                                  returns the id and heartbeat
//	                                  cadence the lease must honor.
//	POST /v1/workers/<id>/heartbeat — liveness beat; 404 after expiry
//	                                  makes the lease re-register.
//	GET  /v1/workers                — the live/dead roster.
//
// Workers are stateless beyond their in-flight jobs: every shard request
// carries the full spec and run settings, and the worker re-enumerates
// the point-space locally (the enumeration is deterministic), so any
// worker can execute any shard — the property retries and mid-job
// re-dispatch rely on.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

// ShardRequest is the POST /v1/shards payload. Config carries the run's
// settings, the fingerprint stamped into every Partial.
type ShardRequest struct {
	Spec   *scenario.Spec    `json:"spec"`
	Config scenario.Settings `json:"config"`
	Shard  int               `json:"shard"`
	Shards int               `json:"shards"`
}

// ShardResponse is the POST /v1/shards reply.
type ShardResponse struct {
	ID string `json:"id"`
}

// Job statuses reported by the result and list endpoints. Only the
// list tells a queued job (waiting for an executor slot) from a running
// one; a result long-poll reports both as running.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusError   = "error"
)

// ResultResponse is the GET /v1/shards/<id>/result payload.
type ResultResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Partial is set when Status is "done".
	Partial *scenario.Partial `json:"partial,omitempty"`
	// Error is set when Status is "error".
	Error string `json:"error,omitempty"`
}

// JobInfo is one GET /v1/shards list element.
type JobInfo struct {
	ID     string `json:"id"`
	Label  string `json:"label"`
	Status string `json:"status"`
}

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// MaxWait caps a result long-poll's ?timeout (default 30s).
	MaxWait time.Duration
	// Slots bounds concurrently executing shard jobs (<= 0 means 1): the
	// capacity a worker advertises with LeaseOptions.Slots, so a
	// coordinator that weights dispatch by it finds the slots it counted.
	Slots int
	// Logf, when set, receives job lifecycle and progress logs.
	Logf func(format string, args ...interface{})
}

func (o WorkerOptions) maxWait() time.Duration {
	if o.MaxWait <= 0 {
		return 30 * time.Second
	}
	return o.MaxWait
}

const (
	// maxJobs bounds the jobs retained at once — queued, running, and
	// finished-but-unfetched. Submissions beyond it get 503 until slots
	// free up, so abandoned coordinators cannot grow the worker without
	// bound.
	maxJobs = 64
	// retention is how long a finished job waits to be fetched before
	// eviction. Delivered jobs are evicted immediately; a coordinator
	// that comes back later re-dispatches the shard.
	retention = 15 * time.Minute
)

// Worker executes shard jobs for coordinators. Mount Handler on an HTTP
// server; jobs queue on a bounded executor and results are collected
// with long polls.
type Worker struct {
	opts WorkerOptions
	sem  chan struct{}

	mu   sync.Mutex
	seq  uint64
	jobs map[string]*job
}

type job struct {
	id      string
	label   string
	started bool          // an executor slot is running it
	done    chan struct{} // closed when the job finishes
	doneAt  time.Time     // zero while running; set before done closes
	partial *scenario.Partial
	errMsg  string
}

// sweepLocked evicts finished jobs nobody fetched within the retention
// window. Callers hold w.mu.
func (w *Worker) sweepLocked(now time.Time) {
	for id, j := range w.jobs {
		if !j.doneAt.IsZero() && now.Sub(j.doneAt) > retention {
			delete(w.jobs, id)
			w.logf("fleet worker: %s (%s) evicted unfetched after %s", j.id, j.label, retention)
		}
	}
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{
		opts: opts,
		sem:  make(chan struct{}, max(opts.Slots, 1)),
		jobs: map[string]*job{},
	}
}

// Handler returns the worker's HTTP routes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards", w.handleShards)
	mux.HandleFunc("/v1/shards/", w.handleResult)
	return mux
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

func (w *Worker) handleShards(rw http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		w.handleSubmit(rw, r)
	case http.MethodGet:
		w.handleList(rw)
	default:
		httpError(rw, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (w *Worker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	var req ShardRequest
	if err := dec.Decode(&req); err != nil {
		httpError(rw, http.StatusBadRequest, "decoding shard request: "+err.Error())
		return
	}
	if req.Spec == nil {
		httpError(rw, http.StatusBadRequest, "shard request has no spec")
		return
	}
	// Validate what is cheap to validate before accepting the job; the
	// topology build and enumeration happen on the executor.
	if err := req.Spec.Validate(); err != nil {
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	if req.Shards <= 0 || req.Shard < 0 || req.Shard >= req.Shards {
		httpError(rw, http.StatusBadRequest,
			fmt.Sprintf("shard %d outside [0, %d)", req.Shard, req.Shards))
		return
	}

	w.mu.Lock()
	w.sweepLocked(time.Now())
	if len(w.jobs) >= maxJobs {
		w.mu.Unlock()
		httpError(rw, http.StatusServiceUnavailable,
			fmt.Sprintf("worker holds %d jobs; retry later", maxJobs))
		return
	}
	w.seq++
	j := &job{
		id:    fmt.Sprintf("job-%d", w.seq),
		label: fmt.Sprintf("%s shard %d/%d", req.Spec.Name, req.Shard, req.Shards),
		done:  make(chan struct{}),
	}
	w.jobs[j.id] = j
	w.mu.Unlock()

	go w.execute(j, &req)
	writeJSON(rw, http.StatusAccepted, &ShardResponse{ID: j.id})
}

func (w *Worker) execute(j *job, req *ShardRequest) {
	w.sem <- struct{}{}
	defer func() { <-w.sem }()
	w.mu.Lock()
	j.started = true
	w.mu.Unlock()
	w.logf("fleet worker: %s (%s) started", j.id, j.label)
	start := time.Now()

	cfg := req.Config.RunConfig()
	cfg.Progress = func(ev scenario.Progress) {
		w.logf("fleet worker: %s point %d/%d done (%s, %.1fs)",
			j.id, ev.Done, ev.Total, ev.Point.Label, ev.Elapsed.Seconds())
	}
	partial, err := executeShard(req.Spec, cfg, req.Shard, req.Shards)

	w.mu.Lock()
	if err != nil {
		j.errMsg = err.Error()
	} else {
		j.partial = partial
	}
	j.doneAt = time.Now()
	w.mu.Unlock()
	close(j.done)
	if err != nil {
		w.logf("fleet worker: %s failed after %.1fs: %v", j.id, time.Since(start).Seconds(), err)
	} else {
		w.logf("fleet worker: %s done in %.1fs (%d rows)", j.id, time.Since(start).Seconds(), len(partial.Table.Rows))
	}
}

// executeShard enumerates the spec's point-space and executes one shard
// of it — the whole worker-side execution path.
func executeShard(spec *scenario.Spec, cfg scenario.RunConfig, shard, shards int) (*scenario.Partial, error) {
	space, err := scenario.NewSpace(spec, cfg)
	if err != nil {
		return nil, err
	}
	part, err := space.Shard(shard, shards)
	if err != nil {
		return nil, err
	}
	return part.Execute()
}

func (w *Worker) handleList(rw http.ResponseWriter) {
	w.mu.Lock()
	w.sweepLocked(time.Now())
	out := make([]JobInfo, 0, len(w.jobs))
	for _, j := range w.jobs {
		info := JobInfo{ID: j.id, Label: j.label, Status: StatusQueued}
		if j.started {
			info.Status = StatusRunning
		}
		select {
		case <-j.done:
			if j.errMsg != "" {
				info.Status = StatusError
			} else {
				info.Status = StatusDone
			}
		default:
		}
		out = append(out, info)
	}
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, map[string]interface{}{"jobs": out})
}

func (w *Worker) handleResult(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(rw, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/shards/")
	id, ok := strings.CutSuffix(rest, "/result")
	if !ok || id == "" || strings.Contains(id, "/") {
		httpError(rw, http.StatusNotFound, "want /v1/shards/<id>/result")
		return
	}
	w.mu.Lock()
	w.sweepLocked(time.Now())
	j := w.jobs[id]
	w.mu.Unlock()
	if j == nil {
		httpError(rw, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}

	timeout := w.opts.maxWait()
	if tstr := r.URL.Query().Get("timeout"); tstr != "" {
		d, err := time.ParseDuration(tstr)
		if err != nil || d <= 0 {
			httpError(rw, http.StatusBadRequest, fmt.Sprintf("invalid timeout %q", tstr))
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
		writeJSON(rw, http.StatusOK, &ResultResponse{ID: j.id, Status: StatusRunning})
		return
	case <-r.Context().Done():
		return
	}

	w.mu.Lock()
	resp := &ResultResponse{ID: j.id, Status: StatusDone, Partial: j.partial}
	if j.errMsg != "" {
		resp = &ResultResponse{ID: j.id, Status: StatusError, Error: j.errMsg}
	}
	// The job is delivered exactly once: evict it so a long-lived worker
	// does not retain every completed partial. A coordinator that loses
	// this response re-dispatches the shard (any worker can run any
	// shard), so nothing is owed to later readers.
	delete(w.jobs, id)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, resp)
}

func writeJSON(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(rw http.ResponseWriter, status int, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}
