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
// The protocol reuses the serving layer's idioms (strict JSON,
// {"error": ...} bodies). A shard is one request and one response, and
// the coordinator sends a worker only as many shards at once as it has
// slots (one for a pinned worker; a registered worker advertises its
// own), so the coordinator's pending list is the only queue and the
// worker runs every shard it accepts at once. A shard runs under its
// request's context: a coordinator that gives up on an attempt, or
// dies, closes the connection, and the shard stops at its next point
// boundary. Worker side:
//
//	POST /v1/shards — {"spec": ..., "config": ..., "shard": i,
//	                  "shards": n}, config being the run's
//	                  scenario.RunConfig, runs one shard inside the request
//	                  and replies 200 with its partial; 400 for a
//	                  malformed request, 503 while the worker holds its
//	                  bound of in-flight shards, 500 when execution
//	                  fails.
//	GET  /v1/shards — lists the labels of the in-flight shards.
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
// Workers are stateless beyond their in-flight requests: every shard
// request carries the full spec and run config, and the worker
// re-enumerates the point-space locally (the enumeration is
// deterministic), so any worker can execute any shard — the property
// retries and mid-job re-dispatch rely on.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

// ShardRequest is the POST /v1/shards payload. Config is the run's
// identity, stamped into every Partial.
type ShardRequest struct {
	Spec   *scenario.Spec     `json:"spec"`
	Config scenario.RunConfig `json:"config"`
	Shard  int                `json:"shard"`
	Shards int                `json:"shards"`
}

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// Logf, when set, receives shard lifecycle and progress logs.
	Logf func(format string, args ...interface{})
}

// maxJobs bounds the shard requests in flight at once. Requests beyond
// it get 503 until one finishes, so abandoned coordinators cannot grow
// the worker without bound.
const maxJobs = 64

// Worker executes shards for coordinators. Mount Handler on an HTTP
// server: each shard runs inside its POST, at once, so the server owns
// and waits for every running shard.
type Worker struct {
	opts WorkerOptions

	mu       sync.Mutex
	inflight []string // labels of the shards being run, one per request
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{opts: opts}
}

// Handler returns the worker's HTTP routes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards", w.handleShards)
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
	// Validate what is cheap to validate before running; the topology
	// build and enumeration happen in execute.
	if err := req.Spec.Validate(); err != nil {
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	if req.Shards <= 0 || req.Shard < 0 || req.Shard >= req.Shards {
		httpError(rw, http.StatusBadRequest,
			fmt.Sprintf("shard %d outside [0, %d)", req.Shard, req.Shards))
		return
	}

	label := fmt.Sprintf("%s shard %d/%d", req.Spec.Name, req.Shard, req.Shards)
	w.mu.Lock()
	if len(w.inflight) >= maxJobs {
		w.mu.Unlock()
		httpError(rw, http.StatusServiceUnavailable,
			fmt.Sprintf("worker holds %d shards; retry later", maxJobs))
		return
	}
	w.inflight = append(w.inflight, label)
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		i := slices.Index(w.inflight, label)
		w.inflight = slices.Delete(w.inflight, i, i+1)
		w.mu.Unlock()
	}()

	partial, err := w.execute(r.Context(), label, &req)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(rw, http.StatusOK, partial)
}

// execute runs one shard under its request's context, logging its
// start, progress and outcome.
func (w *Worker) execute(ctx context.Context, label string, req *ShardRequest) (*scenario.Partial, error) {
	w.logf("fleet worker: %s started", label)
	start := time.Now()
	partial, err := executeShard(ctx, req, func(ev scenario.Progress) {
		w.logf("fleet worker: %s point %d/%d done (%s, %.1fs)",
			label, ev.Done, ev.Total, ev.Point.Label, ev.Elapsed.Seconds())
	})
	if err != nil {
		w.logf("fleet worker: %s failed after %.1fs: %v", label, time.Since(start).Seconds(), err)
		return nil, err
	}
	w.logf("fleet worker: %s done in %.1fs (%d rows)", label, time.Since(start).Seconds(), len(partial.Table.Rows))
	return partial, nil
}

// executeShard enumerates the spec's point-space and executes one shard
// of it — the whole worker-side execution path.
func executeShard(ctx context.Context, req *ShardRequest, progress func(scenario.Progress)) (*scenario.Partial, error) {
	space, err := scenario.NewSpace(req.Spec, req.Config)
	if err != nil {
		return nil, err
	}
	part, err := space.Shard(req.Shard, req.Shards)
	if err != nil {
		return nil, err
	}
	return part.ExecuteContext(ctx, progress)
}

func (w *Worker) handleList(rw http.ResponseWriter) {
	w.mu.Lock()
	labels := append([]string{}, w.inflight...)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, map[string][]string{"shards": labels})
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
