package probe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func meshTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "mesh-test-9",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 3, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 3, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 3, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func meshManager(t testing.TB) *deploy.Manager {
	t.Helper()
	p, err := plan.New(meshTopo(t), plan.Config{
		System:       plan.SystemSpec{Family: "grid", Param: 2},
		Strategy:     plan.StratLP,
		Demand:       8000,
		Reproducible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, deploy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// meshFromSnapshot programs a FakeMesh with the deployment's current
// RTT matrix as ground truth.
func meshFromSnapshot(m *deploy.Manager) (*FakeMesh, []string) {
	topo := m.Current().Snapshot.Topology
	mesh := NewFakeMesh()
	names := make([]string, topo.Size())
	for i := range names {
		names[i] = topo.Site(i).Name
	}
	for i := 0; i < topo.Size(); i++ {
		for j := i + 1; j < topo.Size(); j++ {
			mesh.SetRTT(names[i], names[j], topo.RTT(i, j))
		}
	}
	return mesh, names
}

func meshAgents(t testing.TB, mesh *FakeMesh, names []string, scfg SmootherConfig) []*Agent {
	t.Helper()
	agents := make([]*Agent, 0, len(names))
	for _, site := range names {
		peers := make([]string, 0, len(names)-1)
		for _, p := range names {
			if p != site {
				peers = append(peers, p)
			}
		}
		a, err := NewAgent(AgentConfig{
			Site:      site,
			Peers:     peers,
			Transport: mesh.Transport(site),
			Smoother:  scfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	return agents
}

// countMoves counts history entries whose placement differs from the
// previous entry's.
func countMoves(m *deploy.Manager) int {
	hist := m.History()
	moves := 0
	for i := 1; i < len(hist); i++ {
		prev := hist[i-1].Snapshot.Placement.Targets()
		cur := hist[i].Snapshot.Placement.Targets()
		if !reflect.DeepEqual(prev, cur) {
			moves++
		}
	}
	return moves
}

// noisyStationary is the acceptance scenario's noise model: small
// zero-mean jitter plus a large +25ms spike on every 7th measurement
// of each pair (phase-shifted per pair) — classic transient RTT
// artifacts on a stationary mesh. Fully deterministic in the pair and
// its measurement count.
func noisyStationary(a, b string, n int) float64 {
	h := fnv.New32a()
	h.Write([]byte(a))
	h.Write([]byte{'|'})
	h.Write([]byte(b))
	ph := h.Sum32()
	if (n+int(ph%7))%7 == 0 {
		return 25
	}
	h.Write([]byte{byte(n), byte(n >> 8)})
	return (float64(h.Sum32()%1000)/1000)*0.8 - 0.4
}

// TestProbeNoiseHysteresisSuppressesReplans is the ISSUE acceptance
// criterion: over 100 probe rounds of a noisy-but-stationary mesh, the
// smoothing/hysteresis stack produces zero placement moves, while the
// same mesh with smoothing off (raw passthrough) moves the placement —
// the probe layer, not the move-hysteresis, is what keeps a stationary
// deployment still (both managers run MoveCost 0).
func TestProbeNoiseHysteresisSuppressesReplans(t *testing.T) {
	run := func(t *testing.T, scfg SmootherConfig) (*deploy.Manager, int) {
		t.Helper()
		m := meshManager(t)
		mesh, names := meshFromSnapshot(m)
		mesh.SetNoiseFunc(noisyStationary)
		agents := meshAgents(t, mesh, names, scfg)
		b := NewBatcher(ManagerPoster{M: m})
		ctx := context.Background()
		rounds := 0
		for round := 0; round < 100; round++ {
			for _, a := range agents {
				deltas, err := a.Round(ctx)
				if err != nil {
					t.Fatal(err)
				}
				b.Add(deltas...)
			}
			if n, err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			} else if n > 0 {
				rounds++
			}
		}
		return m, rounds
	}

	t.Run("smoothing-on", func(t *testing.T) {
		m, flushes := run(t, SmootherConfig{Window: 9, Noise: 0.05})
		if moves := countMoves(m); moves != 0 {
			t.Errorf("smoothed mesh moved the placement %d times, want 0", moves)
		}
		// The only emissions are the warmup baselines: a handful of
		// posting windows, then silence.
		if flushes == 0 || flushes > 10 {
			t.Errorf("smoothed mesh posted %d windows, want a few warmup windows only", flushes)
		}
		if v := m.Current().Snapshot.Version; v > 12 {
			t.Errorf("smoothed mesh published %d versions over 100 rounds", v)
		}
	})
	t.Run("smoothing-off", func(t *testing.T) {
		m, flushes := run(t, SmootherConfig{Raw: true})
		if moves := countMoves(m); moves == 0 {
			t.Error("raw mesh never moved the placement; the scenario cannot demonstrate suppression")
		}
		if flushes < 90 {
			t.Errorf("raw mesh posted only %d windows, want ~100", flushes)
		}
	})
}

func TestAgentRoundEmitsAfterWarmup(t *testing.T) {
	mesh := NewFakeMesh()
	mesh.SetRTT("a", "b", 50)
	mesh.SetRTT("a", "c", 80)
	a, err := NewAgent(AgentConfig{
		Site:      "a",
		Peers:     []string{"b", "c"},
		Transport: mesh.Transport("a"),
		Smoother:  SmootherConfig{Window: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		deltas, err := a.Round(ctx)
		if err != nil || len(deltas) != 0 {
			t.Fatalf("round %d: deltas %v err %v, want none yet", round, deltas, err)
		}
	}
	deltas, err := a.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []deploy.Delta{
		{Kind: deploy.KindRTT, A: "a", B: "b", Value: 50},
		{Kind: deploy.KindRTT, A: "a", B: "c", Value: 80},
	}
	if !reflect.DeepEqual(deltas, want) {
		t.Fatalf("warmup emissions %+v, want %+v", deltas, want)
	}
}

// downPeer fails every measurement of one peer and passes the rest on.
type downPeer struct {
	Transport
	peer string
}

func (d downPeer) Measure(ctx context.Context, peer string) (float64, error) {
	if peer == d.peer {
		return 0, errors.New("peer down")
	}
	return d.Transport.Measure(ctx, peer)
}

func TestAgentSkipsFailingPeer(t *testing.T) {
	mesh := NewFakeMesh()
	mesh.SetRTT("a", "b", 50)
	mesh.SetRTT("a", "c", 80)
	a, err := NewAgent(AgentConfig{
		Site:      "a",
		Peers:     []string{"b", "c"},
		Transport: downPeer{mesh.Transport("a"), "c"},
		Smoother:  SmootherConfig{Window: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	deltas, rerr := a.Round(context.Background())
	if rerr == nil {
		t.Fatal("dead peer produced no error")
	}
	if len(deltas) != 1 || deltas[0].B != "b" {
		t.Fatalf("deltas %+v, want just the live peer", deltas)
	}
	if n := strings.Count(rerr.Error(), "peer down"); n != 1 {
		t.Fatalf("error %q reports %d failures, want 1", rerr, n)
	}
}

func TestUDPTransportMeasuresEcho(t *testing.T) {
	echo, err := ListenEcho("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	tr := NewUDPTransport(map[string]string{"peer": echo.Addr()}, time.Second)
	ms, err := tr.Measure(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || ms > 1000 {
		t.Fatalf("loopback RTT %v ms", ms)
	}
	if _, err := tr.Measure(context.Background(), "nobody"); err == nil {
		t.Fatal("unknown peer measured")
	}
	dead := NewUDPTransport(map[string]string{"gone": "127.0.0.1:1"}, 50*time.Millisecond)
	if _, err := dead.Measure(context.Background(), "gone"); err == nil {
		t.Fatal("unreachable peer measured")
	}
}

// flakyPoster fails the first n posts with a transient error.
type flakyPoster struct {
	mu    sync.Mutex
	fails int
	got   [][]deploy.Delta
}

func (p *flakyPoster) Post(_ context.Context, batch []deploy.Delta) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fails > 0 {
		p.fails--
		return errors.New("transient")
	}
	cp := append([]deploy.Delta(nil), batch...)
	p.got = append(p.got, cp)
	return nil
}

func TestBatcherCoalescesAndRequeues(t *testing.T) {
	p := &flakyPoster{fails: 1}
	b := NewBatcher(p)
	ctx := context.Background()

	b.Add(deploy.Delta{Kind: deploy.KindRTT, A: "a", B: "b", Value: 10})
	b.Add(deploy.Delta{Kind: deploy.KindRTT, A: "b", B: "a", Value: 12})
	b.Add(deploy.Delta{Kind: deploy.KindDemand, Value: 100})
	if got := len(b.pending); got != 2 {
		t.Fatalf("pending %d after coalescing adds, want 2", got)
	}

	// First flush fails; the batch is re-queued.
	if _, err := b.Flush(ctx); err == nil {
		t.Fatal("flaky post succeeded")
	}
	if got := len(b.pending); got != 2 {
		t.Fatalf("pending %d after failed flush, want 2 re-queued", got)
	}
	// A newer value added between retries supersedes the re-queued one.
	b.Add(deploy.Delta{Kind: deploy.KindRTT, A: "a", B: "b", Value: 14})
	if _, err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if len(b.pending) != 0 {
		t.Fatalf("pending %d after successful flush", len(b.pending))
	}
	if len(p.got) != 1 {
		t.Fatalf("%d batches posted, want 1", len(p.got))
	}
	want := []deploy.Delta{
		{Kind: deploy.KindDemand, Value: 100},
		{Kind: deploy.KindRTT, A: "a", B: "b", Value: 14},
	}
	if !reflect.DeepEqual(p.got[0], want) {
		t.Fatalf("posted %+v, want %+v", p.got[0], want)
	}

	// Permanent rejections drop the batch instead of retrying forever.
	drop := NewBatcher(PostFunc(func(context.Context, []deploy.Delta) error {
		return fmt.Errorf("%w: 400", ErrGone)
	}))
	drop.Add(deploy.Delta{Kind: deploy.KindDemand, Value: 5})
	if _, err := drop.Flush(ctx); !errors.Is(err, ErrGone) {
		t.Fatalf("err %v, want ErrGone", err)
	}
	if n, err := drop.Flush(ctx); n != 0 || err != nil {
		t.Fatalf("flush after a permanent rejection posted %d deltas (err %v), want the batch dropped", n, err)
	}
}

func TestHTTPPosterRetriesAndHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var codes []int
	status := []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusOK}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		code := status[0]
		if len(status) > 1 {
			status = status[1:]
		}
		codes = append(codes, code)
		mu.Unlock()
		if code != http.StatusOK {
			w.Header().Set("Retry-After", "0")
		}
		w.WriteHeader(code)
	}))
	defer srv.Close()

	p := &HTTPPoster{URL: srv.URL, Backoff: time.Millisecond}
	if err := p.Post(context.Background(), []deploy.Delta{{Kind: deploy.KindDemand, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(codes)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("%d attempts, want 3", n)
	}

	// 400 is permanent: one attempt, ErrGone.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer bad.Close()
	pb := &HTTPPoster{URL: bad.URL, Backoff: time.Millisecond}
	if err := pb.Post(context.Background(), []deploy.Delta{{Kind: deploy.KindDemand, Value: 1}}); !errors.Is(err, ErrGone) {
		t.Fatalf("err %v, want ErrGone", err)
	}
}

func TestHTTPPosterGivesUpAfterFiveAttempts(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	p := &HTTPPoster{URL: srv.URL, Backoff: time.Millisecond}
	err := p.Post(context.Background(), []deploy.Delta{{Kind: deploy.KindDemand, Value: 1}})
	if err == nil || errors.Is(err, ErrGone) {
		t.Fatalf("err %v, want a retryable give-up", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 5 {
		t.Fatalf("%d attempts, want 5", attempts)
	}
}

func TestHTTPPosterConflictIsApplied(t *testing.T) {
	// 409 means the deltas were applied but the world is not plannable:
	// re-posting would apply them twice, so one attempt and success.
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		http.Error(w, "applied, not plannable", http.StatusConflict)
	}))
	defer srv.Close()

	p := &HTTPPoster{URL: srv.URL, Backoff: time.Millisecond}
	if err := p.Post(context.Background(), []deploy.Delta{{Kind: deploy.KindDemand, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1", attempts)
	}
}

// TestMeshEndToEndOverHTTP wires the full loop the way quorumprobe
// does — agents → batcher → HTTPPoster → serving tenant → manager —
// and drives a genuine RTT drift through it.
func TestMeshEndToEndOverHTTP(t *testing.T) {
	m := meshManager(t)
	mesh, names := meshFromSnapshot(m)
	srv := httptest.NewServer(newDeltasHandler(t, m))
	defer srv.Close()

	agents := meshAgents(t, mesh, names, SmootherConfig{Window: 3, Noise: 0.05})
	b := NewBatcher(&HTTPPoster{URL: srv.URL, Backoff: time.Millisecond})
	ctx := context.Background()
	round := func() {
		t.Helper()
		for _, a := range agents {
			deltas, err := a.Round(ctx)
			if err != nil {
				t.Fatal(err)
			}
			b.Add(deltas...)
		}
		if _, err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round() // warmup baseline
	}
	// A noise-free mesh measures exactly what the planner already has:
	// the warmup batch applies as an effective no-op and publishes no
	// version — matching telemetry is not news.
	v1 := m.Current().Snapshot.Version
	if v1 != 1 {
		t.Fatalf("matching warmup telemetry published version %d, want 1", v1)
	}
	// Drift one inter-region link by 3×: the mesh must notice and the
	// deployment must re-plan.
	topo := m.Current().Snapshot.Topology
	mesh.SetRTT(names[0], names[len(names)-1], topo.RTT(0, topo.Size()-1)*3)
	for i := 0; i < 4; i++ {
		round()
	}
	if v2 := m.Current().Snapshot.Version; v2 <= v1 {
		t.Fatalf("drift never published: version stayed %d", v2)
	}
}

// newDeltasHandler adapts a manager to the POST /v1/deltas wire shape
// without importing the serve package (which would be a cycle-free but
// needless dependency for this test).
func newDeltasHandler(t *testing.T, m *deploy.Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Deltas []deploy.Delta `json:"deltas"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := m.Apply(req.Deltas); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, deploy.ErrReplan) {
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
}
