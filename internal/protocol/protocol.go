// Package protocol implements a Q/U-style single-round quorum RPC
// protocol and runs it on a discrete-event simulator, reproducing the
// motivating experiment of §3.
//
// Q/U (Abd-El-Malek et al., SOSP 2005) is a Byzantine fault-tolerant
// protocol with n = 5t+1 servers and quorums of 4t+1; in the common case
// an operation completes in a single round trip to one quorum. The paper's
// experiment exercises exactly that path: closed-loop clients repeatedly
// pick a uniformly random quorum, send the request to every member, each
// server processes requests serially (FIFO) with a fixed service time,
// and the operation completes when the slowest quorum member's reply
// arrives. This package models those delays faithfully; it does not
// implement Q/U's versioning or repair machinery, which the experiment
// never exercises (see DESIGN.md).
package protocol

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/quorumnet/quorumnet/internal/des"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Config describes one protocol run.
type Config struct {
	// Topo provides the RTT metric; one-way delay is RTT/2.
	Topo *topology.Topology
	// ServerSites lists the node hosting each server (the placement's
	// support; one server per universe element for one-to-one
	// placements).
	ServerSites []int
	// QuorumSize q: each request goes to a uniformly random q-subset of
	// servers (4t+1 for Q/U).
	QuorumSize int
	// ClientSites lists the node of each client; duplicate a node to run
	// several clients there.
	ClientSites []int
	// ServiceTimeMS is the per-request processing time at a server (1 ms
	// in §3).
	ServiceTimeMS float64
	// LinkTxMS is the transmission (serialization) time of one message on
	// a site's access link. The ModelNet emulation the paper used gives
	// every site a finite-bandwidth access link, so a client's burst of
	// 4t+1 requests — and the co-located clients' bursts — serialize
	// before entering the wide area; this is the dominant source of the
	// client-count-dependent delay in Figures 3.1/3.2. Zero disables link
	// modeling (infinite bandwidth).
	LinkTxMS float64
	// DurationMS is how long clients keep issuing requests, back to back
	// (§3's closed loop: a client's next request leaves the moment its
	// operation completes). Requests started in the first 10% are
	// warm-up and excluded from the metrics.
	DurationMS float64
	// Seed drives quorum selection.
	Seed int64
}

func (c *Config) validate() error {
	switch {
	case c.Topo == nil:
		return fmt.Errorf("protocol: nil topology")
	case len(c.ServerSites) == 0:
		return fmt.Errorf("protocol: no servers")
	case c.QuorumSize <= 0 || c.QuorumSize > len(c.ServerSites):
		return fmt.Errorf("protocol: quorum size %d out of range [1,%d]", c.QuorumSize, len(c.ServerSites))
	case len(c.ClientSites) == 0:
		return fmt.Errorf("protocol: no clients")
	case c.ServiceTimeMS < 0:
		return fmt.Errorf("protocol: negative service time")
	case c.LinkTxMS < 0:
		return fmt.Errorf("protocol: negative link transmission time")
	case c.DurationMS <= 0:
		return fmt.Errorf("protocol: non-positive duration")
	}
	for _, s := range c.ServerSites {
		if s < 0 || s >= c.Topo.Size() {
			return fmt.Errorf("protocol: server site %d out of range", s)
		}
	}
	for _, v := range c.ClientSites {
		if v < 0 || v >= c.Topo.Size() {
			return fmt.Errorf("protocol: client site %d out of range", v)
		}
	}
	return nil
}

// Metrics summarizes a run. Averages are taken per client first and then
// across clients ("the average response time over all the clients", §3),
// so slow, distant clients are not underweighted by completing fewer
// closed-loop operations.
type Metrics struct {
	// Requests counts completed operations inside the measurement window.
	Requests int
	// AvgResponseMS is the client-averaged operation latency: network +
	// queueing + service, to the slowest quorum member.
	AvgResponseMS float64
	// AvgNetDelayMS is the client-averaged maximum RTT to the accessed
	// quorums — the load-free component of response time.
	AvgNetDelayMS float64
	// MaxServerQueueMS is the largest queueing delay any request saw.
	MaxServerQueueMS float64
}

// cluster is the protocol state machine, driven by a simulator.
type cluster struct {
	cfg  Config
	sim  *des.Simulator
	rng  *rand.Rand
	half [][]float64 // one-way delays client-site × server index

	busyUntil []float64 // per server
	upBusy    []float64 // per site: access-link uplink busy-until

	maxQueue float64
}

type clientState struct {
	idx     int
	site    int
	pending int     // outstanding replies for current request
	started float64 // request start time
	netMax  float64 // max RTT to the chosen quorum

	// per-client accumulators for the macro-averaged metrics
	sumResp float64
	sumNet  float64
	count   int
}

// RunSim executes the protocol on a fresh discrete-event simulator until
// DurationMS, then drains in-flight requests and reports metrics. The
// run is fully deterministic for a fixed seed.
func RunSim(cfg Config) (*Metrics, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	warmup := cfg.DurationMS / 10

	c := &cluster{
		cfg:       cfg,
		sim:       &des.Simulator{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		busyUntil: make([]float64, len(cfg.ServerSites)),
		upBusy:    make([]float64, cfg.Topo.Size()),
	}
	// Precompute one-way client-site → server delays.
	c.half = make([][]float64, len(cfg.ClientSites))
	for i, v := range cfg.ClientSites {
		row := cfg.Topo.RTTRow(v)
		c.half[i] = make([]float64, len(cfg.ServerSites))
		for j, s := range cfg.ServerSites {
			c.half[i][j] = row[s] / 2
		}
	}

	clients := make([]*clientState, len(cfg.ClientSites))
	for i, v := range cfg.ClientSites {
		clients[i] = &clientState{idx: i, site: v}
	}

	var issue func(cl *clientState) error
	issue = func(cl *clientState) error {
		if c.sim.Now() >= cfg.DurationMS {
			return nil // run over; stop the closed loop
		}
		quorum := c.sampleQuorum()
		cl.pending = len(quorum)
		cl.started = c.sim.Now()
		cl.netMax = 0
		for _, srv := range quorum {
			oneWay := c.half[cl.idx][srv]
			if rtt := 2 * oneWay; rtt > cl.netMax {
				cl.netMax = rtt
			}
			srv := srv
			// The request serializes onto the client site's uplink, then
			// travels to the server.
			txDone := c.sendOnLink(cl.site, c.sim.Now())
			err := c.sim.Schedule(txDone-c.sim.Now()+oneWay, func() {
				arrival := c.sim.Now()
				start := arrival
				if c.busyUntil[srv] > start {
					start = c.busyUntil[srv]
				}
				if wait := start - arrival; wait > c.maxQueue {
					c.maxQueue = wait
				}
				done := start + cfg.ServiceTimeMS
				c.busyUntil[srv] = done
				// The reply serializes onto the server site's uplink and
				// travels back.
				replyTxDone := c.sendOnLink(cfg.ServerSites[srv], done)
				replyDelay := (replyTxDone - arrival) + oneWay
				if err := c.sim.Schedule(replyDelay, func() {
					cl.pending--
					if cl.pending > 0 {
						return
					}
					// Operation complete at the slowest quorum member.
					resp := c.sim.Now() - cl.started
					if cl.started >= warmup {
						cl.sumResp += resp
						cl.sumNet += cl.netMax
						cl.count++
					}
					if err := issue(cl); err != nil {
						panic(err) // unreachable: issue only errs via Schedule
					}
				}); err != nil {
					panic(err)
				}
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	for _, cl := range clients {
		if err := issue(cl); err != nil {
			return nil, err
		}
	}
	c.sim.Run()

	m := &Metrics{MaxServerQueueMS: c.maxQueue}
	active := 0
	for _, cl := range clients {
		m.Requests += cl.count
		if cl.count > 0 {
			m.AvgResponseMS += cl.sumResp / float64(cl.count)
			m.AvgNetDelayMS += cl.sumNet / float64(cl.count)
			active++
		}
	}
	if active > 0 {
		m.AvgResponseMS /= float64(active)
		m.AvgNetDelayMS /= float64(active)
	}
	return m, nil
}

// sendOnLink serializes one message onto a site's uplink starting no
// earlier than ready, returning the time transmission completes. With
// LinkTxMS = 0 the link is transparent.
func (c *cluster) sendOnLink(site int, ready float64) float64 {
	tx := c.cfg.LinkTxMS
	if tx == 0 {
		return ready
	}
	start := ready
	if c.upBusy[site] > start {
		start = c.upBusy[site]
	}
	done := start + tx
	c.upBusy[site] = done
	return done
}

// sampleQuorum draws a uniformly random q-subset of server indices.
func (c *cluster) sampleQuorum() []int {
	n := len(c.cfg.ServerSites)
	q := c.cfg.QuorumSize
	perm := c.rng.Perm(n)[:q]
	sort.Ints(perm)
	return perm
}

// RunSimAveraged repeats RunSim with seeds seed, seed+1, … and averages
// the metrics, as the paper does ("running each experiment 5 times and
// then taking the mean").
func RunSimAveraged(cfg Config, runs int) (*Metrics, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("protocol: non-positive run count %d", runs)
	}
	var agg Metrics
	for r := 0; r < runs; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		m, err := RunSim(c)
		if err != nil {
			return nil, err
		}
		agg.Requests += m.Requests
		agg.AvgResponseMS += m.AvgResponseMS
		agg.AvgNetDelayMS += m.AvgNetDelayMS
		if m.MaxServerQueueMS > agg.MaxServerQueueMS {
			agg.MaxServerQueueMS = m.MaxServerQueueMS
		}
	}
	agg.Requests /= runs
	agg.AvgResponseMS /= float64(runs)
	agg.AvgNetDelayMS /= float64(runs)
	return &agg, nil
}
