package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
)

// Encoded is one snapshot's wire form, built once per publish and
// served to every reader from immutable bytes: the plan-read hot path
// is a pointer load, an ETag string compare, and a Write — no
// per-request marshalling, no snapshot traversal.
type Encoded struct {
	// Version is the snapshot version the bytes encode.
	Version uint64
	// ETag is the strong validator ("v<n>", quoted) of Body.
	ETag string
	// Body is the exact GET plan response body. It must not be mutated.
	Body []byte
}

// Tenant is one named deployment inside the serving plane: a
// deploy.Manager plus the per-publish encoding cache, the long-poll
// park machinery, and observability counters. Tenants are created by a
// Registry and share the process: the planner pool, the LP workspaces,
// and the registry's coarse deadline wheel.
type Tenant struct {
	name  string
	m     *deploy.Manager
	opts  Options
	wheel *wheel

	// enc caches the current snapshot's encoding; encMu serializes the
	// one encode a new publish needs (losers of the race reuse it).
	enc   atomic.Pointer[Encoded]
	encMu sync.Mutex

	// parked counts watchers currently parked on the epoch channel; the
	// Options.MaxWatchers cap rejects parks beyond it with 503.
	parked atomic.Int64
	// inflight counts POST deltas requests between decode and apply
	// completion; the Options.MaxApplyQueue cap rejects posts beyond it
	// with 429 instead of queueing unboundedly on the apply loop.
	inflight atomic.Int64

	reads        atomic.Uint64
	notModified  atomic.Uint64
	parks        atomic.Uint64
	wakeups      atomic.Uint64
	rejected     atomic.Uint64
	throttled    atomic.Uint64
	deltaBatches atomic.Uint64
	deltaErrors  atomic.Uint64
	replanNS     atomic.Int64
	lastReplanNS atomic.Int64
	// lastDeltaNS is the wall-clock unix nanos of the last accepted delta
	// batch — the freshness of the newest probe input this tenant has
	// seen (0 until the first batch).
	lastDeltaNS atomic.Int64
}

func newTenant(name string, m *deploy.Manager, opts Options, w *wheel) *Tenant {
	return &Tenant{name: name, m: m, opts: opts, wheel: w}
}

// Name returns the tenant's deployment name.
func (t *Tenant) Name() string { return t.name }

// Notify returns the tenant's epoch channel, closed at the next
// publish (see deploy.Manager.Notify for the park protocol).
func (t *Tenant) Notify() <-chan struct{} { return t.m.Notify() }

// Encoded returns the cached encoding of the current snapshot,
// encoding it first if this is the first read since its publish. The
// returned value is immutable and shared by every concurrent reader.
func (t *Tenant) Encoded() *Encoded {
	cur := t.m.Current()
	if e := t.enc.Load(); e != nil && e.Version == cur.Snapshot.Version {
		return e
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	cur = t.m.Current() // a newer publish may have landed; encode the latest
	if e := t.enc.Load(); e != nil && e.Version == cur.Snapshot.Version {
		return e
	}
	// MarshalIndent + '\n' reproduces the json.Encoder(SetIndent) bytes
	// the per-request path produced, so cached responses are
	// byte-identical to the pre-cache serving layer.
	body, err := json.MarshalIndent(planJSON(cur), "", "  ")
	if err != nil {
		// A snapshot is plain data; marshalling it cannot fail. Encode
		// the error rather than panic in the serving path.
		body = []byte(`{"error":"encoding snapshot: ` + err.Error() + `"}`)
	}
	e := &Encoded{
		Version: cur.Snapshot.Version,
		ETag:    etag(cur.Snapshot.Version),
		Body:    append(body, '\n'),
	}
	t.enc.Store(e)
	return e
}

// TenantStats is one tenant's observability counters, as exposed on
// the quorumd debug listener's /debug/vars.
type TenantStats struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// Reads counts plan bodies served (200s); NotModified counts 304s.
	Reads       uint64 `json:"reads"`
	NotModified uint64 `json:"not_modified"`
	// Parks counts long-polls that parked; Wakeups counts parked polls
	// woken by a publish (the rest timed out or disconnected). Parked is
	// the current parked-watcher count, Rejected the watcher-cap 503s.
	Parks    uint64 `json:"parks"`
	Wakeups  uint64 `json:"wakeups"`
	Parked   int64  `json:"parked"`
	Rejected uint64 `json:"rejected"`
	// DeltaBatches counts accepted POST /deltas batches, DeltaErrors the
	// rejected ones; ReplanLastMS/ReplanTotalMS time the Apply calls.
	DeltaBatches  uint64  `json:"delta_batches"`
	DeltaErrors   uint64  `json:"delta_errors"`
	ReplanLastMS  float64 `json:"replan_last_ms"`
	ReplanTotalMS float64 `json:"replan_total_ms"`
	// ReplanLast is what the latest published batch's plan did: how the
	// metric was brought up to date and how many sites moved, how many
	// placement anchors were re-scored, how the LP was re-solved.
	ReplanLast plan.Stats `json:"replan_last"`
	// ApplyQueue is the current number of delta posts in flight on the
	// apply loop; Throttled counts the 429s the MaxApplyQueue cap issued.
	ApplyQueue int64  `json:"apply_queue"`
	Throttled  uint64 `json:"throttled"`
	// DeltaAgeMS is the staleness bound signal: milliseconds since the
	// newest accepted delta batch (-1 until telemetry first arrives). A
	// deployment whose probes die shows this growing without bound.
	DeltaAgeMS float64 `json:"delta_age_ms"`
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() TenantStats {
	age := -1.0
	if last := t.lastDeltaNS.Load(); last > 0 {
		age = float64(time.Now().UnixNano()-last) / 1e6
	}
	return TenantStats{
		Name:          t.name,
		Version:       t.m.Current().Snapshot.Version,
		Reads:         t.reads.Load(),
		NotModified:   t.notModified.Load(),
		Parks:         t.parks.Load(),
		Wakeups:       t.wakeups.Load(),
		Parked:        t.parked.Load(),
		Rejected:      t.rejected.Load(),
		DeltaBatches:  t.deltaBatches.Load(),
		DeltaErrors:   t.deltaErrors.Load(),
		ReplanLastMS:  float64(t.lastReplanNS.Load()) / 1e6,
		ReplanTotalMS: float64(t.replanNS.Load()) / 1e6,
		ReplanLast:    t.m.LastPlan(),
		ApplyQueue:    t.inflight.Load(),
		Throttled:     t.throttled.Load(),
		DeltaAgeMS:    age,
	}
}

// parseTimeout parses the ?timeout query parameter. A present zero
// duration means "do not wait" — a poll whose ?after is already
// current returns the current snapshot immediately.
func parseTimeout(r *http.Request) (d time.Duration, has bool, err error) {
	tstr := r.URL.Query().Get("timeout")
	if tstr == "" {
		return 0, false, nil
	}
	d, perr := time.ParseDuration(tstr)
	if perr != nil || d < 0 {
		return 0, false, errBadTimeout(tstr)
	}
	return d, true, nil
}

func errBadTimeout(tstr string) error {
	return &badRequestError{msg: "invalid timeout " + strconv.Quote(tstr)}
}

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func (t *Tenant) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	enc := t.Encoded()

	after, hasAfter, err := parseAfter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, hasTimeout, err := parseTimeout(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !hasAfter && r.Header.Get("If-None-Match") == enc.ETag {
		if !hasTimeout {
			t.notModified.Add(1)
			w.Header().Set("ETag", enc.ETag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// If-None-Match with an explicit timeout long-polls like
		// after=<current>.
		after, hasAfter = enc.Version, true
	}
	if hasAfter && enc.Version <= after && (!hasTimeout || timeout > 0) {
		// Long-poll: park on the tenant's epoch channel. One channel
		// close per publish wakes every parked watcher; the deadline is
		// a shared coarse-wheel bucket, not a per-request timer.
		if !hasTimeout || timeout > t.opts.maxWait() {
			timeout = t.opts.maxWait()
		}
		if n := t.parked.Add(1); n > int64(t.opts.maxWatchers()) {
			t.parked.Add(-1)
			t.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "watcher cap reached")
			return
		}
		t.parks.Add(1)
		deadline := t.wheel.after(timeout)
		woken := false
	park:
		for {
			ch := t.Notify()
			if e := t.Encoded(); e.Version > after {
				enc, woken = e, true
				break
			}
			select {
			case <-ch: // re-check; a closed channel is a no-cost wakeup
			case <-deadline:
				enc = t.Encoded() // timeout serves the current plan
				break park
			case <-r.Context().Done():
				t.parked.Add(-1)
				return // client gone; nothing to write
			}
		}
		t.parked.Add(-1)
		if woken {
			t.wakeups.Add(1)
		}
	}

	t.reads.Add(1)
	w.Header().Set("ETag", enc.ETag)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(enc.Body)
}

func (t *Tenant) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Backpressure before decode: the apply loop is serialized, so posts
	// beyond the queue bound would stack up behind an in-flight re-plan.
	// Same inc-then-check pattern as the watcher cap — the transient
	// overshoot by concurrent rejected requests is harmless.
	if n := t.inflight.Add(1); n > int64(t.opts.maxApplyQueue()) {
		t.inflight.Add(-1)
		t.throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "apply queue full")
		return
	}
	defer t.inflight.Add(-1)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req DeltasRequest
	if err := dec.Decode(&req); err != nil {
		t.deltaErrors.Add(1)
		httpError(w, http.StatusBadRequest, "decoding deltas: "+err.Error())
		return
	}
	if len(req.Deltas) == 0 {
		t.deltaErrors.Add(1)
		httpError(w, http.StatusBadRequest, "empty delta batch")
		return
	}
	start := time.Now()
	entry, err := t.m.Apply(req.Deltas)
	d := time.Since(start)
	t.replanNS.Add(int64(d))
	t.lastReplanNS.Store(int64(d))
	if err != nil {
		t.deltaErrors.Add(1)
		// A malformed batch is rejected untouched (400); a batch that
		// applied but cannot be planned (e.g. LP infeasible under the
		// new capacities) is a conflict with the deployment's state —
		// the previous snapshot keeps being served. An applied batch is
		// fresh telemetry either way, so the staleness clock resets.
		status := http.StatusBadRequest
		if errors.Is(err, deploy.ErrReplan) {
			status = http.StatusConflict
			t.lastDeltaNS.Store(time.Now().UnixNano())
		}
		httpError(w, status, err.Error())
		return
	}
	t.deltaBatches.Add(1)
	t.lastDeltaNS.Store(time.Now().UnixNano())
	writeJSON(w, http.StatusOK, &DeltasResponse{
		Version:    entry.Snapshot.Version,
		ResponseMS: entry.Snapshot.Response,
		Provenance: provenanceJSON(entry),
	})
}

func (t *Tenant) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	entries := t.m.History()
	limit := len(entries)
	if lstr := r.URL.Query().Get("limit"); lstr != "" {
		l, err := strconv.Atoi(lstr)
		if err != nil || l <= 0 {
			httpError(w, http.StatusBadRequest, "invalid limit "+strconv.Quote(lstr))
			return
		}
		if l < limit {
			limit = l
		}
	}
	out := make([]HistoryEntryJSON, 0, limit)
	for i := len(entries) - 1; i >= len(entries)-limit; i-- {
		e := entries[i]
		out = append(out, HistoryEntryJSON{
			Version:    e.Snapshot.Version,
			ResponseMS: e.Snapshot.Response,
			NetDelayMS: e.Snapshot.NetDelay,
			Applied:    e.Applied,
			Provenance: provenanceJSON(e),
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"snapshots": out})
}
