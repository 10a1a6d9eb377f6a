package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// eventLog records dispatcher events for post-run assertions and lets
// scripts hook exact lifecycle moments.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	hooks  []func(Event)
}

func (l *eventLog) record(ev Event) {
	l.mu.Lock()
	hooks := append([]func(Event){}, l.hooks...)
	l.events = append(l.events, ev)
	l.mu.Unlock()
	for _, h := range hooks {
		h(ev)
	}
}

func (l *eventLog) hook(h func(Event)) {
	l.mu.Lock()
	l.hooks = append(l.hooks, h)
	l.mu.Unlock()
}

func (l *eventLog) all() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

func (l *eventLog) count(kind string) int {
	n := 0
	for _, ev := range l.all() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (l *eventLog) first(kind string) (Event, bool) {
	for _, ev := range l.all() {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return Event{}, false
}

// fleetHarness wires a fake-clock registry, workers (optionally
// behind fault-injection proxies), and an event log: the scaffolding
// every dispatch test shares.
type fleetHarness struct {
	t      *testing.T
	clock  *fakeClock
	reg    *Registry
	log    *eventLog
	base   *scenario.Table
	baseTx []byte
}

func newFleetHarness(t *testing.T) *fleetHarness {
	t.Helper()
	clock := newFakeClock()
	h := &fleetHarness{
		t:     t,
		clock: clock,
		log:   &eventLog{},
		reg: NewRegistry(RegistryOptions{
			HeartbeatInterval: time.Second,
			Now:               clock.Now,
			Logf:              t.Logf,
		}),
	}
	base, err := scenario.Run(testSpec(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h.base = base
	var buf bytes.Buffer
	if err := base.Format(&buf); err != nil {
		t.Fatal(err)
	}
	h.baseTx = buf.Bytes()
	return h
}

// startWorker starts a worker and returns its address.
func (h *fleetHarness) startWorker() string {
	h.t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerOptions{Logf: h.t.Logf}).Handler())
	h.t.Cleanup(srv.Close)
	return srv.URL
}

// startSlowWorker starts a worker whose every shard sleeps hold in its
// "started" line before it executes. It returns the worker's address
// and a function reporting the most shards the worker's own GET
// /v1/shards listed at any shard's start — the worker side of its load,
// which only a start can raise.
func (h *fleetHarness) startSlowWorker(hold time.Duration) (string, func() int) {
	h.t.Helper()
	var mu sync.Mutex
	peak := 0
	var w *Worker
	w = NewWorker(WorkerOptions{Logf: func(format string, args ...interface{}) {
		if strings.HasSuffix(format, "started") {
			rec := httptest.NewRecorder()
			w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shards", nil))
			var list struct {
				Shards []string `json:"shards"`
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &list)
			mu.Lock()
			peak = max(peak, len(list.Shards))
			mu.Unlock()
			time.Sleep(hold)
		}
	}})
	srv := httptest.NewServer(w.Handler())
	h.t.Cleanup(srv.Close)
	return srv.URL, func() int {
		mu.Lock()
		defer mu.Unlock()
		return peak
	}
}

// startProxiedWorker starts a worker behind a fault-injection proxy and
// returns the proxy's address.
func (h *fleetHarness) startProxiedWorker() (string, *faultProxy) {
	h.t.Helper()
	proxy, err := newFaultProxy(h.startWorker())
	if err != nil {
		h.t.Fatal(err)
	}
	front := httptest.NewServer(proxy.Handler())
	h.t.Cleanup(front.Close)
	return front.URL, proxy
}

// addWorker starts a worker and registers it directly (tests drive
// heartbeats by hand for determinism).
func (h *fleetHarness) addWorker() WorkerRef {
	h.t.Helper()
	return h.reg.Register(h.startWorker(), 1)
}

// addProxiedWorker starts a proxied worker and registers the proxy's
// address.
func (h *fleetHarness) addProxiedWorker() (WorkerRef, *faultProxy) {
	h.t.Helper()
	url, proxy := h.startProxiedWorker()
	return h.reg.Register(url, 1), proxy
}

// rosters names the two ways a coordinator learns its workers; tests of
// behaviour that does not depend on heartbeats run once over each.
var rosters = []string{"pinned", "self-registered"}

// rosterConfig returns the Config that reaches the workers at urls
// through the named roster: listed in Workers, or registered with the
// harness registry.
func (h *fleetHarness) rosterConfig(roster string, urls ...string) Config {
	if roster == "pinned" {
		return Config{Workers: urls}
	}
	for _, u := range urls {
		h.reg.Register(u, 1)
	}
	return Config{Registry: h.reg}
}

// kill expires the named worker: the clock advances two heartbeat
// intervals (the liveness window), every survivor beats once, and
// expiry runs — exactly what "missed 2 heartbeats" means on the wire.
func (h *fleetHarness) kill(id string) {
	h.t.Helper()
	h.clock.Advance(2 * h.reg.HeartbeatInterval())
	h.reg.mu.Lock()
	for wid, w := range h.reg.workers {
		if wid != id && !w.dead {
			w.lastBeat = h.clock.Now()
		}
	}
	h.reg.mu.Unlock()
	dead := h.reg.ExpireNow()
	if len(dead) != 1 || dead[0].ID != id {
		h.t.Errorf("kill %s: expired %v", id, dead)
	}
}

func (h *fleetHarness) coordinator(cfg Config) *Coordinator {
	h.t.Helper()
	if len(cfg.Workers) == 0 {
		cfg.Registry = h.reg
	}
	cfg.Logf = h.t.Logf
	cfg.OnEvent = h.log.record
	coord, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	return coord
}

func (h *fleetHarness) assertByteIdentical(got *scenario.Table) {
	h.t.Helper()
	var buf bytes.Buffer
	if err := got.Format(&buf); err != nil {
		h.t.Fatal(err)
	}
	if !bytes.Equal(h.baseTx, buf.Bytes()) {
		h.t.Fatalf("fleet output differs from unsharded run:\n%s\nvs\n%s",
			buf.String(), string(h.baseTx))
	}
}

// TestFleetRunByteIdentical: a run over either roster — two pinned
// addresses, or self-registered workers with one joining mid-run —
// merges to the exact bytes of a local unsharded run, with more shards
// than workers and a shard-done event for every shard.
func TestFleetRunByteIdentical(t *testing.T) {
	for _, roster := range rosters {
		t.Run(roster, func(t *testing.T) {
			h := newFleetHarness(t)
			var cfg Config
			if roster == "pinned" {
				cfg = h.rosterConfig(roster, h.startWorker(), h.startWorker())
			} else {
				cfg = h.rosterConfig(roster, h.startWorker())
				var joinOnce sync.Once
				h.log.hook(func(ev Event) {
					if ev.Kind == EventShardDone {
						joinOnce.Do(func() { h.addWorker() })
					}
				})
			}
			cfg.Shards = 4
			got, err := h.coordinator(cfg).Run(testSpec(), testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h.base, got) {
				t.Fatalf("fleet table differs:\n%v\nvs\n%v", h.base.Rows, got.Rows)
			}
			h.assertByteIdentical(got)
			if n := h.log.count(EventWorkerJoin); n != 2 {
				t.Errorf("worker-join events: %d, want 2", n)
			}
			if n := h.log.count(EventShardDone); n != 4 {
				t.Errorf("shard-done events: %d, want 4", n)
			}
		})
	}
}

// TestMidExecuteDeathRedispatch is the static-address-hang regression
// test: a worker dies mid-execute (its result black-holes, its
// heartbeats stop), and the coordinator re-dispatches the shard the
// moment the registry declares it dead — two missed heartbeats on the
// fake clock — instead of burning the 5-minute ShardTimeout the run is
// configured with. The script fires at the exact protocol point: right
// after the shard request reached the worker.
func TestMidExecuteDeathRedispatch(t *testing.T) {
	h := newFleetHarness(t)
	victim, proxy := h.addProxiedWorker()
	survivor := h.addWorker()

	proxy.After(pointDispatch, func() {
		// Mid-execute: the shard is at the worker. Its result now hangs
		// like a TCP blackhole, and its heartbeats stop — kill advances
		// the clock exactly two intervals.
		proxy.Hold(pointResult)
		h.kill(victim.ID)
	})

	coord := h.coordinator(Config{Shards: 2, ShardTimeout: 5 * time.Minute})
	start := time.Now()
	got, err := coord.Run(testSpec(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	h.assertByteIdentical(got)

	deadEv, ok := h.log.first(EventWorkerDead)
	if !ok {
		t.Fatal("no worker-dead event: the shard was not re-dispatched on heartbeat death")
	}
	if deadEv.Worker != victim.ID || deadEv.Shard != 0 {
		t.Errorf("worker-dead event %+v, want victim %s shard 0", deadEv, victim.ID)
	}
	// The re-dispatched shard completed on the survivor, as attempt 2.
	var doneOnSurvivor bool
	for _, ev := range h.log.all() {
		if ev.Kind == EventShardDone && ev.Shard == deadEv.Shard {
			if ev.Worker != survivor.ID || ev.Attempt != 2 {
				t.Errorf("re-dispatched shard done %+v, want attempt 2 on %s", ev, survivor.ID)
			}
			doneOnSurvivor = true
		}
	}
	if !doneOnSurvivor {
		t.Fatal("re-dispatched shard never completed")
	}
	// Re-dispatch happened on the heartbeat window, not the ShardTimeout:
	// with the fake clock the whole run must take a fraction of the
	// 5-minute timeout a hung worker would have burned.
	if elapsed > time.Minute {
		t.Fatalf("run took %s; re-dispatch did not preempt the ShardTimeout", elapsed)
	}
}

// TestSingleWorkerRetryBacksOff: when the only worker fails a shard
// twice running (dropped dispatches), each retry waits RetryBackoff and
// then re-tries the same worker with a clean exclusion slate — it
// neither hot-loops through its attempt budget nor starves — whether
// the worker was pinned or registered itself.
func TestSingleWorkerRetryBacksOff(t *testing.T) {
	for _, roster := range rosters {
		t.Run(roster, func(t *testing.T) {
			h := newFleetHarness(t)
			url, proxy := h.startProxiedWorker()
			proxy.DropNext(pointDispatch, 2)

			cfg := h.rosterConfig(roster, url)
			cfg.Shards = 1
			cfg.RetryBackoff = 30 * time.Millisecond
			start := time.Now()
			got, err := h.coordinator(cfg).Run(testSpec(), testCfg())
			if err != nil {
				t.Fatal(err)
			}
			h.assertByteIdentical(got)
			if n := h.log.count(EventBackoff); n != 2 {
				t.Errorf("backoff events: %d, want 2 (one per retry)", n)
			}
			if ev, _ := h.log.first(EventShardDone); ev.Attempt != 3 {
				t.Errorf("shard completed as attempt %d, want 3 (two retries)", ev.Attempt)
			}
			if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
				t.Errorf("run finished in %s: two retries cannot have waited 30ms each", elapsed)
			}
		})
	}
}

// TestPreResultSeverRedispatch: the worker executes the shard but the
// response delivering the finished result is dropped (pre-result
// fault); the coordinator retries the shard on the other worker,
// excluding the one that failed it.
func TestPreResultSeverRedispatch(t *testing.T) {
	h := newFleetHarness(t)
	victim, proxy := h.addProxiedWorker()
	survivor := h.addWorker()
	proxy.DropNext(pointResult, 1)

	coord := h.coordinator(Config{Shards: 2})
	got, err := coord.Run(testSpec(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h.assertByteIdentical(got)
	re, ok := h.log.first(EventRedispatch)
	if !ok {
		t.Fatal("dropped result produced no redispatch")
	}
	if re.Worker != victim.ID || re.Shard != 0 {
		t.Errorf("redispatch %+v, want shard 0 off %s", re, victim.ID)
	}
	for _, ev := range h.log.all() {
		if ev.Kind == EventShardDone && ev.Shard == re.Shard && ev.Worker != survivor.ID {
			t.Errorf("retried shard completed on %s, want excluded retry on %s", ev.Worker, survivor.ID)
		}
	}
}

// TestLateDuplicateResultDiscarded: a worker declared dead mid-execute
// later delivers its result anyway (it was only partitioned); by then
// the re-dispatched attempt has completed the shard, and the stale
// result is discarded by shard-attempt id — observable as exactly one
// late-discard event — leaving the merge byte-identical. The run's
// other shard is held at its worker's proxy until the discard, so the
// late result lands while the run is still open.
func TestLateDuplicateResultDiscarded(t *testing.T) {
	h := newFleetHarness(t)
	victim, proxy := h.addProxiedWorker()
	_, holder := h.addProxiedWorker()
	survivor := h.addWorker()

	// Shard 0 goes to the victim and shard 1 to the holder (ties break
	// by registration order). Park the victim's finished result at its
	// proxy, kill the victim's heartbeats the moment the shard reaches
	// it, and release the parked result only once the re-dispatched
	// attempt has won the shard on the survivor. Shard 1's result waits
	// for the discard.
	releaseResult := proxy.Hold(pointResult)
	releaseHolder := holder.Hold(pointResult)
	proxy.After(pointDispatch, func() { h.kill(victim.ID) })
	h.log.hook(func(ev Event) {
		switch {
		case ev.Kind == EventShardDone && ev.Shard == 0 && ev.Worker != victim.ID:
			releaseResult()
		case ev.Kind == EventLateDiscard:
			releaseHolder()
		}
	})

	coord := h.coordinator(Config{Shards: 2})
	got, err := coord.Run(testSpec(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h.assertByteIdentical(got)
	if n := h.log.count(EventLateDiscard); n != 1 {
		t.Fatalf("late-discard events: %d, want exactly 1 (events: %+v)", n, h.log.all())
	}
	disc, _ := h.log.first(EventLateDiscard)
	if disc.Worker != victim.ID || disc.Attempt != 1 {
		t.Errorf("late discard %+v, want attempt 1 on %s", disc, victim.ID)
	}
	if ev, _ := h.log.first(EventShardDone); ev.Shard != 0 || ev.Attempt != 2 || ev.Worker != survivor.ID {
		t.Errorf("first shard done %+v, want shard 0 won by the re-dispatched attempt 2 on %s", ev, survivor.ID)
	}
}

// TestElasticRunFailsAfterMaxAttempts: a shard no worker can execute
// exhausts Attempts and fails the run with the shard named.
func TestElasticRunFailsAfterMaxAttempts(t *testing.T) {
	h := newFleetHarness(t)
	_, proxy := h.addProxiedWorker()
	proxy.Sever()

	coord := h.coordinator(Config{Shards: 1, Attempts: 2, RetryBackoff: 5 * time.Millisecond})
	_, err := coord.Run(testSpec(), testCfg())
	if err == nil {
		t.Fatal("run against a severed fleet succeeded")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempts") {
		t.Errorf("error %q does not name the attempt budget", err)
	}
}

// TestExhaustedShardFailsRunAtOnce: over a pinned roster, a shard that
// runs out of attempts fails the run then and there — the run does not
// first wait out a sibling shard hung on the other worker, which would
// cost the whole 5-minute ShardTimeout.
func TestExhaustedShardFailsRunAtOnce(t *testing.T) {
	h := newFleetHarness(t)
	hung, proxy := h.startProxiedWorker()
	t.Cleanup(proxy.Hold(pointResult))
	dead := httptest.NewServer(nil)
	dead.Close() // now refuses connections

	coord := h.coordinator(Config{
		Workers:      []string{hung, dead.URL},
		Shards:       2,
		Attempts:     1,
		ShardTimeout: 5 * time.Minute,
	})
	start := time.Now()
	_, err := coord.Run(testSpec(), testCfg())
	if err == nil {
		t.Fatal("run with an unreachable worker and one attempt succeeded")
	}
	if !strings.Contains(err.Error(), "shard 1/2 failed after 1 attempts") {
		t.Errorf("error %q does not name the exhausted shard", err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("run took %s to fail: it waited for the hung sibling shard", elapsed)
	}
}

// slotCheck returns an OnEvent hook that fails the test whenever a
// worker holds more attempts than its slots. An attempt is in flight
// from its dispatch event to the one outcome event that retires it.
func slotCheck(t *testing.T, slots map[string]int) func(Event) {
	inflight := map[string]int{}
	return func(ev Event) {
		switch ev.Kind {
		case EventDispatch:
			inflight[ev.Worker]++
			if inflight[ev.Worker] > slots[ev.Worker] {
				t.Errorf("%s holds %d shards at once, over its %d slots", ev.Worker, inflight[ev.Worker], slots[ev.Worker])
			}
		case EventShardDone, EventRedispatch, EventAbandon, EventLateDiscard:
			inflight[ev.Worker]--
		}
	}
}

// TestDispatchKeepsWorkersWithinSlots: the coordinator's pending list
// is the only queue, so no worker ever holds more shards than its
// slots — as the coordinator's events count them, and as each worker's
// own GET /v1/shards lists them. Over two pinned one-slot workers, one
// three times slower than the other, the fast worker takes the shards
// the slow one has no slot for and completes at least 4 of the 6; over
// a 2-slot and a 1-slot registered worker, neither is sent a shard
// beyond its slots.
func TestDispatchKeepsWorkersWithinSlots(t *testing.T) {
	workerSide := func(t *testing.T, name string, peak func() int, slots int) {
		t.Helper()
		if n := peak(); n > slots {
			t.Errorf("the %s worker listed %d shards at once, over its %d slots", name, n, slots)
		}
	}
	t.Run("pinned", func(t *testing.T) {
		h := newFleetHarness(t)
		fast, fastPeak := h.startSlowWorker(150 * time.Millisecond)
		slow, slowPeak := h.startSlowWorker(450 * time.Millisecond)
		h.log.hook(slotCheck(t, map[string]int{fast: 1, slow: 1}))
		got, err := h.coordinator(Config{Workers: []string{fast, slow}, Shards: 6}).Run(testSpec(), testCfg())
		if err != nil {
			t.Fatal(err)
		}
		h.assertByteIdentical(got)
		workerSide(t, "fast", fastPeak, 1)
		workerSide(t, "slow", slowPeak, 1)
		onFast := 0
		for _, ev := range h.log.all() {
			if ev.Kind == EventShardDone && ev.Worker == fast {
				onFast++
			}
		}
		if onFast < 4 {
			t.Errorf("the fast worker completed %d of 6 shards, want at least 4: shards waited on the slow worker", onFast)
		}
	})
	t.Run("self-registered", func(t *testing.T) {
		h := newFleetHarness(t)
		bigURL, bigPeak := h.startSlowWorker(100 * time.Millisecond)
		smallURL, smallPeak := h.startSlowWorker(100 * time.Millisecond)
		big, small := h.reg.Register(bigURL, 2), h.reg.Register(smallURL, 1)
		h.log.hook(slotCheck(t, map[string]int{big.ID: 2, small.ID: 1}))
		got, err := h.coordinator(Config{Shards: 6}).Run(testSpec(), testCfg())
		if err != nil {
			t.Fatal(err)
		}
		h.assertByteIdentical(got)
		workerSide(t, "2-slot", bigPeak, 2)
		workerSide(t, "1-slot", smallPeak, 1)
	})
}

// TestShardTimeoutStartsAtFreeSlot: a shard's ShardTimeout runs only
// while a worker runs it, not while it waits for a slot. Four shards of
// 0.4 s each on one pinned worker take 1.6 s in all, yet under a 1 s
// ShardTimeout none is re-dispatched.
func TestShardTimeoutStartsAtFreeSlot(t *testing.T) {
	h := newFleetHarness(t)
	w, _ := h.startSlowWorker(400 * time.Millisecond)
	got, err := h.coordinator(Config{Workers: []string{w}, Shards: 4, ShardTimeout: time.Second}).Run(testSpec(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h.assertByteIdentical(got)
	if n := h.log.count(EventRedispatch); n != 0 {
		t.Errorf("%d re-dispatches, want 0: a shard's timeout ran while it waited for the worker", n)
	}
}

// TestAbandonedAttemptStopsAtPointBoundary: a worker runs a shard under
// its request's context, so an attempt the coordinator gave up on stops
// at its next point boundary instead of running to its end beside the
// retry. One pinned 1-slot worker runs a 10-point shard, one point at a
// time, each point held pointHold in its "point … done" line, under a
// ShardTimeout far shorter than the shard and 3 attempts. Each retry
// backs off longer than an abandoned attempt needs to finish its
// current point, so the worker's own GET /v1/shards never lists more
// than one shard. An abandoned attempt left to run (1.5 s) would still
// be listed beside both retries, 3 at once.
func TestAbandonedAttemptStopsAtPointBoundary(t *testing.T) {
	partest.SetGOMAXPROCS(t, 1) // one point at a time
	const pointHold = 150 * time.Millisecond
	h := newFleetHarness(t)
	srv := httptest.NewServer(NewWorker(WorkerOptions{Logf: func(format string, args ...interface{}) {
		if strings.Contains(format, " point ") {
			time.Sleep(pointHold)
		}
	}}).Handler())
	t.Cleanup(srv.Close)
	spec := testSpec()
	spec.Systems = []scenario.SystemAxis{{Family: "majority", Params: []int{1, 2, 3, 4, 5}}, {Family: "bmajority", Params: []int{1, 2, 3}}, {Family: "grid", Params: []int{2, 3}}}

	coord := h.coordinator(Config{
		Workers:      []string{srv.URL},
		Shards:       1,
		Attempts:     3,
		ShardTimeout: 100 * time.Millisecond,
		RetryBackoff: pointHold + 250*time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(spec, testCfg())
		done <- err
	}()
	peak := 0
	for running := true; running; {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
				t.Fatalf("run error %v, want the shard to fail after 3 timed-out attempts", err)
			}
			running = false
		case <-time.After(5 * time.Millisecond):
			peak = max(peak, len(listJobs(t, srv.URL)))
		}
	}
	if n := h.log.count(EventDispatch); n != 3 {
		t.Errorf("%d dispatches, want 3", n)
	}
	if peak > 1 {
		t.Errorf("the 1-slot worker listed %d shards at once: abandoned attempts ran on beside their retries", peak)
	}
}
