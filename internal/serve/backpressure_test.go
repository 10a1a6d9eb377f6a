package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func backpressureTenant(t *testing.T, opts Options) (*Tenant, *deploy.Manager) {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "bp-test-9",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 3, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 3, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 3, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.New(topo, plan.Config{
		System:   plan.SystemSpec{Family: "grid", Param: 2},
		Strategy: plan.StratLP,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, deploy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewRegistry(opts).Open(DefaultTenant, m)
	if err != nil {
		t.Fatal(err)
	}
	return tn, m
}

// TestDeltasBackpressure is the 429 satellite: POST /v1/deltas beyond
// the apply-queue bound is rejected with 429 + Retry-After instead of
// queueing unboundedly behind an in-flight re-plan, and the tenant
// counts the throttle.
func TestDeltasBackpressure(t *testing.T) {
	tn, m := backpressureTenant(t, Options{MaxApplyQueue: 2})

	post := func() int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, "/v1/deltas",
			strings.NewReader(`{"deltas":[{"kind":"demand","value":9000}]}`))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		tn.handleDeltas(rec, req)
		return rec.Code
	}

	// Saturate the queue as concurrent in-flight posts would, then post:
	// the bound rejects without touching the manager.
	before := m.Current().Snapshot.Version
	tn.inflight.Store(2)
	rec := func() *httptest.ResponseRecorder {
		req, err := http.NewRequest(http.MethodPost, "/v1/deltas",
			strings.NewReader(`{"deltas":[{"kind":"demand","value":9000}]}`))
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRecorder()
		tn.handleDeltas(r, req)
		return r
	}()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d with saturated queue, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	if got := m.Current().Snapshot.Version; got != before {
		t.Fatalf("throttled post still applied: version %d", got)
	}
	if got := tn.Stats().Throttled; got != 1 {
		t.Fatalf("throttled counter %d, want 1", got)
	}
	if got := tn.inflight.Load(); got != 2 {
		t.Fatalf("rejected post leaked inflight: %d, want 2", got)
	}

	// Drain the queue; the same post now lands.
	tn.inflight.Store(0)
	if code := post(); code != http.StatusOK {
		t.Fatalf("status %d with drained queue, want 200", code)
	}
	if got := tn.inflight.Load(); got != 0 {
		t.Fatalf("accepted post leaked inflight: %d, want 0", got)
	}
	if got := m.Current().Snapshot.Version; got != before+1 {
		t.Fatalf("version %d after accepted post, want %d", got, before+1)
	}
}

// TestDeltaStaleness: the tenant's delta_age_ms gauge starts undefined
// (-1), resets on every accepted batch, and then grows — the signal a
// staleness monitor alarms on when probes die.
func TestDeltaStaleness(t *testing.T) {
	tn, _ := backpressureTenant(t, Options{})

	if got := tn.Stats().DeltaAgeMS; got != -1 {
		t.Fatalf("initial delta age %v, want -1", got)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/deltas",
		strings.NewReader(`{"deltas":[{"kind":"demand","value":12000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tn.handleDeltas(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post status %d", rec.Code)
	}
	age := tn.Stats().DeltaAgeMS
	if age < 0 || age > 60_000 {
		t.Fatalf("delta age after post = %v ms, want small and non-negative", age)
	}
	time.Sleep(10 * time.Millisecond)
	if later := tn.Stats().DeltaAgeMS; later <= age {
		t.Fatalf("delta age did not grow: %v then %v", age, later)
	}

	// A malformed batch must not reset the staleness clock.
	stale := tn.lastDeltaNS.Load()
	req, err = http.NewRequest(http.MethodPost, "/v1/deltas", strings.NewReader(`{"deltas":[{"kind":"bogus"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	tn.handleDeltas(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus post status %d", rec.Code)
	}
	if tn.lastDeltaNS.Load() != stale {
		t.Fatal("rejected batch reset the staleness clock")
	}
}

// TestHTTPServerDropsSilentClient: a client that connects and never
// finishes its headers is cut off after ReadHeaderTimeout, while a
// request parked in its handler for longer than that — a long-poll —
// is left alone: the header read is the only bounded phase of the
// servers the daemons listen with.
func TestHTTPServerDropsSilentClient(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := HTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.WriteString(w, "woken")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	parked := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/plan?after=1")
		if err != nil {
			parked <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		parked <- string(body)
	}()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := io.WriteString(silent, "GET /v1/plan HTTP/1.1\r\nHost: quorumd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	silent.SetReadDeadline(start.Add(ReadHeaderTimeout + 10*time.Second))
	if _, err := io.ReadAll(silent); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server still holds a header-less connection %s after it opened", time.Since(start).Round(time.Second))
	}
	if held := time.Since(start); held < ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %s, before the %s header timeout", held, ReadHeaderTimeout)
	}

	select {
	case got := <-parked:
		t.Fatalf("parked request ended before its handler returned: %q", got)
	default:
	}
	close(release)
	if got := <-parked; got != "woken" {
		t.Fatalf("parked request got %q, want the handler's reply", got)
	}
}
