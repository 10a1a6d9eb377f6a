package probe

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FakeMesh is an injectable transport for tests and simulations: a
// programmable symmetric base RTT matrix plus scripted noise.
// Every agent of a simulated mesh shares one FakeMesh and measures
// through Transport(site).
type FakeMesh struct {
	mu    sync.Mutex
	base  map[string]float64
	count map[string]int
	// noiseFn, when set, adds noise: it receives the sorted pair and the
	// pair's 1-based measurement count, so tests can script exact noise
	// sequences independent of goroutine schedule.
	noiseFn func(a, b string, n int) float64
}

// NewFakeMesh builds an empty, noise-free mesh.
func NewFakeMesh() *FakeMesh {
	return &FakeMesh{
		base:  make(map[string]float64),
		count: make(map[string]int),
	}
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// SetRTT programs the symmetric base RTT of one pair.
func (f *FakeMesh) SetRTT(a, b string, ms float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base[pairKey(a, b)] = ms
}

// SetNoiseFunc installs a deterministic noise schedule: fn(a, b, n)
// returns the additive noise of the pair's n-th measurement (sorted
// pair, n starts at 1).
func (f *FakeMesh) SetNoiseFunc(fn func(a, b string, n int) float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noiseFn = fn
}

// Transport returns the measurement view of one mesh site.
func (f *FakeMesh) Transport(local string) Transport {
	return &fakeTransport{mesh: f, local: local}
}

type fakeTransport struct {
	mesh  *FakeMesh
	local string
}

func (t *fakeTransport) Measure(_ context.Context, peer string) (float64, error) {
	f := t.mesh
	f.mu.Lock()
	defer f.mu.Unlock()
	key := pairKey(t.local, peer)
	base, ok := f.base[key]
	if !ok {
		return 0, fmt.Errorf("probe: fake mesh has no RTT for %s", key)
	}
	f.count[key]++
	v := base
	if f.noiseFn != nil {
		v += f.noiseFn(minStr(t.local, peer), maxStr(t.local, peer), f.count[key])
	}
	if v < 0.001 {
		v = 0.001
	}
	return v, nil
}

func minStr(a, b string) string {
	if a < b {
		return a
	}
	return b
}

func maxStr(a, b string) string {
	if a < b {
		return b
	}
	return a
}

// EchoServer answers probe pings: every UDP datagram is echoed back
// verbatim. One runs next to each real mesh agent.
type EchoServer struct {
	pc     net.PacketConn
	closed atomic.Bool
	done   chan struct{}
}

// ListenEcho starts an echo server on addr (e.g. "127.0.0.1:0").
func ListenEcho(addr string) (*EchoServer, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("probe: echo listen: %w", err)
	}
	s := &EchoServer{pc: pc, done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *EchoServer) loop() {
	defer close(s.done)
	buf := make([]byte, 1500)
	for {
		n, from, err := s.pc.ReadFrom(buf)
		if err != nil {
			if s.closed.Load() {
				return
			}
			continue
		}
		_, _ = s.pc.WriteTo(buf[:n], from)
	}
}

// Addr returns the bound address (with the resolved port).
func (s *EchoServer) Addr() string { return s.pc.LocalAddr().String() }

// Close stops the server.
func (s *EchoServer) Close() error {
	s.closed.Store(true)
	err := s.pc.Close()
	<-s.done
	return err
}

// UDPTransport measures RTTs with nonce-tagged UDP echo exchanges
// against peer EchoServers.
type UDPTransport struct {
	peers   map[string]string // peer name → udp address, fixed at construction
	timeout time.Duration
	seq     atomic.Uint64
}

// NewUDPTransport builds a transport from a peer-name → address map.
// timeout bounds one exchange (default 2s) unless the context's
// deadline is sooner.
func NewUDPTransport(peers map[string]string, timeout time.Duration) *UDPTransport {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &UDPTransport{peers: maps.Clone(peers), timeout: timeout}
}

// Measure sends one nonce-tagged datagram and times the echo. Stale
// echoes from earlier timed-out probes are discarded by nonce.
func (t *UDPTransport) Measure(ctx context.Context, peer string) (float64, error) {
	addr, ok := t.peers[peer]
	if !ok {
		return 0, fmt.Errorf("probe: unknown peer %q", peer)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, fmt.Errorf("probe: dial %s: %w", peer, err)
	}
	defer conn.Close()

	deadline := time.Now().Add(t.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return 0, err
	}

	var payload [16]byte
	binary.BigEndian.PutUint64(payload[:8], t.seq.Add(1))
	binary.BigEndian.PutUint64(payload[8:], uint64(time.Now().UnixNano()))

	start := time.Now()
	if _, err := conn.Write(payload[:]); err != nil {
		return 0, fmt.Errorf("probe: ping %s: %w", peer, err)
	}
	var buf [1500]byte
	for {
		n, err := conn.Read(buf[:])
		if err != nil {
			return 0, fmt.Errorf("probe: echo from %s: %w", peer, err)
		}
		if n == len(payload) && [16]byte(buf[:16]) == payload {
			break
		}
		// A stale echo (previous probe's nonce): keep reading until the
		// deadline.
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if ms < 0.001 {
		ms = 0.001
	}
	return ms, nil
}
