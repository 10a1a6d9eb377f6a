package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrUnknownWorker is returned for heartbeats from ids the registry no
// longer tracks — expired leases included. The lease reacts by
// re-registering, so a worker that was declared dead while partitioned
// from the coordinator rejoins under a fresh id (and a fresh exclusion
// slate) instead of resurrecting its old one.
var ErrUnknownWorker = fmt.Errorf("fleet: unknown worker")

// missedHeartbeats is how many heartbeat intervals may pass without a
// beat before a worker is declared dead. Death is what triggers mid-job
// shard re-dispatch, so this — not ShardTimeout — bounds how long a
// crashed worker stalls its shards.
const missedHeartbeats = 2

// RegistryOptions tunes worker liveness tracking.
type RegistryOptions struct {
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 1s). Registration replies carry it, so workers need no
	// matching configuration.
	HeartbeatInterval time.Duration
	// Logf, when set, receives registration and expiry logs.
	Logf func(format string, args ...interface{})
	// Now overrides the clock (fault-injection tests drive liveness by
	// advancing a fake clock and calling ExpireNow — no sleeping).
	Now func() time.Time
}

func (o RegistryOptions) interval() time.Duration {
	if o.HeartbeatInterval <= 0 {
		return time.Second
	}
	return o.HeartbeatInterval
}

// WorkerRef identifies one registered worker.
type WorkerRef struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Slots is the worker's concurrent-shard capacity (at least 1): the
	// coordinator keeps at most this many of its shards in flight on the
	// worker, and weights dispatch by it.
	Slots int `json:"slots,omitempty"`
}

type regWorker struct {
	ref      WorkerRef
	seq      uint64
	lastBeat time.Time
	dead     bool
	// pinned workers hold no lease and never expire (see pin).
	pinned bool
}

// Registry tracks the fleet's workers by self-registration and
// heartbeat: workers join with POST /v1/workers, beat with
// POST /v1/workers/<id>/heartbeat, and are declared dead after
// missedHeartbeats silent intervals. A coordinator configured with a
// worker list instead pins each address into a private registry, where
// it stays live for good. The coordinator dispatches over
// Live() and watches Changed() to react to joins and deaths the moment
// they are recorded.
type Registry struct {
	opts RegistryOptions

	mu      sync.Mutex
	seq     uint64
	workers map[string]*regWorker
	changed chan struct{}
}

// NewRegistry builds a registry.
func NewRegistry(opts RegistryOptions) *Registry {
	return &Registry{
		opts:    opts,
		workers: map[string]*regWorker{},
		changed: make(chan struct{}),
	}
}

func (r *Registry) logf(format string, args ...interface{}) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

func (r *Registry) now() time.Time {
	if r.opts.Now != nil {
		return r.opts.Now()
	}
	return time.Now()
}

// HeartbeatInterval is the advertised beat cadence.
func (r *Registry) HeartbeatInterval() time.Duration { return r.opts.interval() }

// broadcastLocked wakes every Changed waiter. Callers hold r.mu.
func (r *Registry) broadcastLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// Changed returns a channel closed at the next membership or liveness
// change. Take the channel before reading Live() so a change between
// the two wakes the select immediately.
func (r *Registry) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changed
}

// Register adds a worker and returns its reference (the address is
// normalized to a dispatchable http:// URL). Slots is the worker's
// advertised concurrent-shard capacity (<= 0 means 1). A dead entry at
// the same address is dropped — the worker restarted (or its lease
// lapsed and re-registered); either way the old id never comes back.
func (r *Registry) Register(addr string, slots int) WorkerRef {
	addr = normalizeAddr(addr)
	if slots <= 0 {
		slots = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, w := range r.workers {
		if w.dead && w.ref.Addr == addr {
			delete(r.workers, id)
		}
	}
	r.seq++
	w := &regWorker{
		ref:      WorkerRef{ID: fmt.Sprintf("w-%d", r.seq), Addr: addr, Slots: slots},
		seq:      r.seq,
		lastBeat: r.now(),
	}
	r.workers[w.ref.ID] = w
	r.logf("fleet registry: %s registered at %s (%d slots)", w.ref.ID, addr, slots)
	r.broadcastLocked()
	return w.ref
}

// pin adds the worker at addr (already normalized) as a roster member
// that never expires: a configured address has no lease to lapse, so
// only a failed attempt — never a missed heartbeat — moves its shards
// elsewhere. The id is the address itself, so events and journal
// records name the worker as the operator listed it. Pinning an address
// twice is a no-op.
func (r *Registry) pin(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.workers[addr] != nil {
		return
	}
	r.seq++
	r.workers[addr] = &regWorker{
		ref:    WorkerRef{ID: addr, Addr: addr, Slots: 1},
		seq:    r.seq,
		pinned: true,
	}
	r.broadcastLocked()
}

// Heartbeat records a beat. Unknown and expired ids get
// ErrUnknownWorker, telling the lease to re-register.
func (r *Registry) Heartbeat(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[id]
	if w == nil || w.dead {
		return fmt.Errorf("%w %q", ErrUnknownWorker, id)
	}
	w.lastBeat = r.now()
	return nil
}

// expireLocked marks workers silent past the liveness window dead and
// reports the newly dead. Callers hold r.mu.
func (r *Registry) expireLocked(now time.Time) []WorkerRef {
	window := time.Duration(missedHeartbeats) * r.opts.interval()
	var dead []WorkerRef
	for _, w := range r.workers {
		if !w.dead && !w.pinned && now.Sub(w.lastBeat) >= window {
			w.dead = true
			dead = append(dead, w.ref)
		}
	}
	if len(dead) > 0 {
		sort.Slice(dead, func(a, b int) bool { return dead[a].ID < dead[b].ID })
		for _, ref := range dead {
			r.logf("fleet registry: %s (%s) missed %d heartbeats, declared dead",
				ref.ID, ref.Addr, missedHeartbeats)
		}
		r.broadcastLocked()
	}
	return dead
}

// ExpireNow evaluates liveness against the current clock, returning the
// newly dead workers. The coordinator calls it on a tick; tests call it
// after advancing a fake clock.
func (r *Registry) ExpireNow() []WorkerRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expireLocked(r.now())
}

// Live returns the live workers in registration order (expiring the
// silent ones first).
func (r *Registry) Live() []WorkerRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(r.now())
	var live []*regWorker
	for _, w := range r.workers {
		if !w.dead {
			live = append(live, w)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	out := make([]WorkerRef, len(live))
	for i, w := range live {
		out[i] = w.ref
	}
	return out
}

// Counts returns the live and dead worker counts.
func (r *Registry) Counts() (live, dead int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(r.now())
	for _, w := range r.workers {
		if w.dead {
			dead++
		} else {
			live++
		}
	}
	return live, dead
}

// RegisterRequest is the POST /v1/workers payload.
type RegisterRequest struct {
	// Addr is the address the coordinator should dispatch to
	// ("host:port" or a full http:// URL).
	Addr string `json:"addr"`
	// Slots advertises how many shards the worker runs at once (omitted
	// or <= 0 means 1): the coordinator sends it no more.
	Slots int `json:"slots,omitempty"`
}

// RegisterResponse is the POST /v1/workers reply: the assigned id and
// the heartbeat contract.
type RegisterResponse struct {
	ID          string `json:"id"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	// Missed is how many silent intervals cost the lease.
	Missed int `json:"missed"`
}

// WorkerInfo is one GET /v1/workers list element.
type WorkerInfo struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	Slots int    `json:"slots,omitempty"`
}

// Handler returns the registry's HTTP routes:
//
//	POST /v1/workers                — {"addr": ...} self-registration,
//	                                  returns the id and heartbeat cadence
//	POST /v1/workers/<id>/heartbeat — liveness beat (404 after expiry:
//	                                  the lease re-registers)
//	GET  /v1/workers                — live/dead roster
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/workers", r.handleWorkers)
	mux.HandleFunc("/v1/workers/", r.handleHeartbeat)
	return mux
}

func (r *Registry) handleWorkers(rw http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, 1<<20))
		dec.DisallowUnknownFields()
		var reg RegisterRequest
		if err := dec.Decode(&reg); err != nil {
			httpError(rw, http.StatusBadRequest, "decoding registration: "+err.Error())
			return
		}
		if strings.TrimSpace(reg.Addr) == "" {
			httpError(rw, http.StatusBadRequest, "registration has no addr")
			return
		}
		ref := r.Register(strings.TrimSpace(reg.Addr), reg.Slots)
		writeJSON(rw, http.StatusCreated, &RegisterResponse{
			ID:          ref.ID,
			HeartbeatMS: r.opts.interval().Milliseconds(),
			Missed:      missedHeartbeats,
		})
	case http.MethodGet:
		r.mu.Lock()
		r.expireLocked(r.now())
		infos := make([]WorkerInfo, 0, len(r.workers))
		order := make([]*regWorker, 0, len(r.workers))
		for _, w := range r.workers {
			order = append(order, w)
		}
		sort.Slice(order, func(a, b int) bool { return order[a].seq < order[b].seq })
		for _, w := range order {
			infos = append(infos, WorkerInfo{
				ID:    w.ref.ID,
				Addr:  w.ref.Addr,
				Alive: !w.dead,
				Slots: w.ref.Slots,
			})
		}
		r.mu.Unlock()
		writeJSON(rw, http.StatusOK, map[string]interface{}{"workers": infos})
	default:
		httpError(rw, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (r *Registry) handleHeartbeat(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(rw, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/v1/workers/")
	id, ok := strings.CutSuffix(rest, "/heartbeat")
	if !ok || id == "" || strings.Contains(id, "/") {
		httpError(rw, http.StatusNotFound, "want /v1/workers/<id>/heartbeat")
		return
	}
	if err := r.Heartbeat(id); err != nil {
		httpError(rw, http.StatusNotFound, err.Error())
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
