package protocol

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// flatTopo builds a topology where every pair of distinct sites has the
// same RTT, making expected delays analytically checkable.
func flatTopo(t *testing.T, n int, rtt float64) *topology.Topology {
	t.Helper()
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, rtt)
		}
	}
	tp, err := topology.New("flat", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	topo := flatTopo(t, 12, 40)
	return Config{
		Topo:          topo,
		ServerSites:   []int{0, 1, 2, 3, 4, 5},
		QuorumSize:    5,
		ClientSites:   []int{6, 7},
		ServiceTimeMS: 1,
		DurationMS:    2000,
		Seed:          1,
	}
}

func TestConfigValidation(t *testing.T) {
	ok := baseConfig(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil topo", mutate: func(c *Config) { c.Topo = nil }},
		{name: "no servers", mutate: func(c *Config) { c.ServerSites = nil }},
		{name: "bad quorum", mutate: func(c *Config) { c.QuorumSize = 7 }},
		{name: "zero quorum", mutate: func(c *Config) { c.QuorumSize = 0 }},
		{name: "no clients", mutate: func(c *Config) { c.ClientSites = nil }},
		{name: "bad server site", mutate: func(c *Config) { c.ServerSites = []int{99} }},
		{name: "bad client site", mutate: func(c *Config) { c.ClientSites = []int{-1} }},
		{name: "negative service", mutate: func(c *Config) { c.ServiceTimeMS = -1 }},
		{name: "zero duration", mutate: func(c *Config) { c.DurationMS = 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			if _, err := RunSim(cfg); err == nil {
				t.Error("RunSim accepted invalid config")
			}
		})
	}
}

func TestSingleClientLightLoad(t *testing.T) {
	// One client on a flat topology, negligible load: response time must
	// equal RTT + service time exactly, and network delay must equal RTT.
	cfg := baseConfig(t)
	cfg.ClientSites = []int{6}
	m, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if math.Abs(m.AvgNetDelayMS-40) > 1e-9 {
		t.Errorf("AvgNetDelayMS = %v, want 40", m.AvgNetDelayMS)
	}
	if math.Abs(m.AvgResponseMS-41) > 1e-9 {
		t.Errorf("AvgResponseMS = %v, want 41 (RTT + 1ms service)", m.AvgResponseMS)
	}
	if m.MaxServerQueueMS != 0 {
		t.Errorf("MaxServerQueueMS = %v, want 0 under a single client", m.MaxServerQueueMS)
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	// A single client completes one op per 41 ms; over 2050 ms (with 10%
	// warmup = 205 ms) roughly (2050-205)/41 ≈ 45 requests land in the
	// window.
	cfg := baseConfig(t)
	cfg.ClientSites = []int{6}
	cfg.DurationMS = 2050
	m, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests < 40 || m.Requests > 50 {
		t.Errorf("Requests = %d, want ≈45", m.Requests)
	}
}

func TestWarmupIsFirstTenthOfDuration(t *testing.T) {
	// One client on a flat topology completes an operation every 41 ms
	// (RTT 40 + 1 ms service), so operations start at k·41 ms for
	// k = 0..99 before the 4100 ms horizon. The first 10% (410 ms) is
	// warm-up: the ten operations that start before it are not counted,
	// the one starting exactly at 410 ms is.
	cfg := baseConfig(t)
	cfg.ClientSites = []int{6}
	cfg.DurationMS = 4100
	m, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 90 {
		t.Errorf("Requests = %d, want 90 (100 operations less 10 in warm-up)", m.Requests)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := baseConfig(t)
	a, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.AvgResponseMS != b.AvgResponseMS {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	c, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Requests == a.Requests && c.AvgResponseMS == a.AvgResponseMS && c.AvgNetDelayMS == a.AvgNetDelayMS {
		t.Log("different seed produced identical metrics (possible on a flat topology)")
	}
}

func TestLoadIncreasesResponseTime(t *testing.T) {
	// Many clients on few servers: queueing must push response time well
	// above the light-load level, while network delay stays flat.
	cfg := baseConfig(t)
	light, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := cfg
	heavy.ClientSites = manyClients(6, 11, 8) // 48 clients
	hm, err := RunSim(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hm.AvgResponseMS <= light.AvgResponseMS {
		t.Errorf("heavy load response %v not above light load %v", hm.AvgResponseMS, light.AvgResponseMS)
	}
	if math.Abs(hm.AvgNetDelayMS-light.AvgNetDelayMS) > 1e-6 {
		t.Errorf("network delay changed with load: %v vs %v", hm.AvgNetDelayMS, light.AvgNetDelayMS)
	}
	if hm.MaxServerQueueMS == 0 {
		t.Error("no queueing under 48 clients")
	}
}

func TestResponseAtLeastNetworkPlusService(t *testing.T) {
	// Under any load, response ≥ network delay + service time.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		topo := randomTopo(t, 10, rng.Int63())
		cfg := Config{
			Topo:          topo,
			ServerSites:   []int{0, 1, 2, 3, 4},
			QuorumSize:    4,
			ClientSites:   manyClients(5, 9, 1+rng.Intn(5)),
			ServiceTimeMS: 1,
			DurationMS:    1500,
			Seed:          rng.Int63(),
		}
		m, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.AvgResponseMS < m.AvgNetDelayMS+cfg.ServiceTimeMS-1e-9 {
			t.Errorf("trial %d: response %v < net %v + service", trial, m.AvgResponseMS, m.AvgNetDelayMS)
		}
	}
}

func TestBiggerQuorumSlowerResponse(t *testing.T) {
	// On a topology with varied distances, larger quorums reach farther
	// servers: average network delay must be non-decreasing in q.
	topo := randomTopo(t, 10, 42)
	prev := 0.0
	for _, q := range []int{2, 4, 6} {
		cfg := Config{
			Topo:          topo,
			ServerSites:   []int{0, 1, 2, 3, 4, 5},
			QuorumSize:    q,
			ClientSites:   []int{7},
			ServiceTimeMS: 1,
			DurationMS:    3000,
			Seed:          5,
		}
		m, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.AvgNetDelayMS < prev-1e-6 {
			t.Errorf("q=%d: network delay %v below q-2's %v", q, m.AvgNetDelayMS, prev)
		}
		prev = m.AvgNetDelayMS
	}
}

func TestRunSimAveraged(t *testing.T) {
	cfg := baseConfig(t)
	m, err := RunSimAveraged(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.AvgResponseMS <= 0 {
		t.Errorf("averaged metrics empty: %+v", m)
	}
	if _, err := RunSimAveraged(cfg, 0); err == nil {
		t.Error("zero runs accepted")
	}
}

func manyClients(from, to, per int) []int {
	var out []int
	for site := from; site <= to; site++ {
		for c := 0; c < per; c++ {
			out = append(out, site)
		}
	}
	return out
}

func randomTopo(t *testing.T, n int, seed int64) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 5+rng.Float64()*95)
		}
	}
	m.MetricClosure()
	tp, err := topology.New("rand", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestLinkSerializationAddsDelay(t *testing.T) {
	// With link modeling on, a burst of q requests serializes on the
	// client uplink: the last request departs (q-1)*tx late, so response
	// time rises accordingly while the pure network-delay measure stays
	// put.
	cfg := baseConfig(t)
	cfg.ClientSites = []int{6}
	base, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LinkTxMS = 0.5
	linked, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if linked.AvgResponseMS <= base.AvgResponseMS {
		t.Errorf("link tx did not increase response: %v vs %v",
			linked.AvgResponseMS, base.AvgResponseMS)
	}
	if math.Abs(linked.AvgNetDelayMS-base.AvgNetDelayMS) > 1e-9 {
		t.Errorf("link tx changed network-delay measure: %v vs %v",
			linked.AvgNetDelayMS, base.AvgNetDelayMS)
	}
	// Flat topology: every quorum member is 40 ms away. The q-th request
	// finishes transmitting at q·tx = 2.5 ms, and its reply adds one more
	// tx slot, so the exact single-client response is
	// RTT + service + q·tx + tx = 40 + 1 + 2.5 + 0.5 = 44.
	if math.Abs(linked.AvgResponseMS-44) > 1e-9 {
		t.Errorf("linked response = %v, want 44", linked.AvgResponseMS)
	}
}

func TestLinkContentionGrowsWithClients(t *testing.T) {
	// Co-located clients share the uplink. Closed-loop flows stagger
	// themselves at low utilization, so contention only surfaces near
	// link saturation: 30 clients × 5 messages × 0.3 ms ≈ 45 ms of
	// transmission per ~43 ms cycle pushes the uplink past capacity and
	// must inflate response time.
	cfg := baseConfig(t)
	cfg.LinkTxMS = 0.3
	cfg.ClientSites = manyClients(6, 6, 2)
	few, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClientSites = manyClients(6, 6, 30)
	many, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if many.AvgResponseMS <= few.AvgResponseMS+1 {
		t.Errorf("response did not grow with co-located clients: %v vs %v",
			many.AvgResponseMS, few.AvgResponseMS)
	}
}

func TestNegativeLinkTxRejected(t *testing.T) {
	cfg := baseConfig(t)
	cfg.LinkTxMS = -1
	if _, err := RunSim(cfg); err == nil {
		t.Error("negative LinkTxMS accepted")
	}
}
