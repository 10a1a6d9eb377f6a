package probe

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// AgentConfig configures one mesh agent: the site it probes from, the
// peers forming its row of the mesh, the transport it measures over,
// and the per-pair smoothing.
type AgentConfig struct {
	// Site is the local site's name (the A side of emitted rtt deltas).
	Site string
	// Peers are the sites this agent measures against. An N-agent mesh
	// covers every pair twice (once per direction); the batcher's
	// coalescing collapses the redundancy.
	Peers []string
	// Transport performs the measurements.
	Transport Transport
	// Smoother tunes the per-peer filters.
	Smoother SmootherConfig
	// Timeout bounds one measurement (default 2s).
	Timeout time.Duration
}

func (c AgentConfig) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

// Agent measures one row of the RTT mesh. Round is synchronous (tests
// drive it directly for determinism); Run loops it on an interval.
type Agent struct {
	cfg    AgentConfig
	smooth map[string]*Smoother
}

// NewAgent validates the configuration and builds the per-peer
// smoothers.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Site == "" {
		return nil, fmt.Errorf("probe: agent needs a site name")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("probe: agent %s needs a transport", cfg.Site)
	}
	smooth := make(map[string]*Smoother, len(cfg.Peers))
	for _, peer := range cfg.Peers {
		if peer == cfg.Site {
			return nil, fmt.Errorf("probe: agent %s lists itself as a peer", cfg.Site)
		}
		if _, dup := smooth[peer]; dup {
			return nil, fmt.Errorf("probe: agent %s lists peer %s twice", cfg.Site, peer)
		}
		smooth[peer] = NewSmoother(cfg.Smoother)
	}
	return &Agent{cfg: cfg, smooth: smooth}, nil
}

// Round probes every peer once, in configured order, and returns the
// rtt deltas that cleared smoothing and hysteresis. A failed
// measurement skips that peer (its smoother keeps its state — a
// dropped probe is not a 0ms sample) and is reported in the joined
// error alongside the successful peers' deltas.
func (a *Agent) Round(ctx context.Context) ([]deploy.Delta, error) {
	var deltas []deploy.Delta
	var errs []error
	for _, peer := range a.cfg.Peers {
		mctx, cancel := context.WithTimeout(ctx, a.cfg.timeout())
		ms, err := a.cfg.Transport.Measure(mctx, peer)
		cancel()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if v, ok := a.smooth[peer].Observe(ms); ok {
			deltas = append(deltas, deploy.Delta{Kind: deploy.KindRTT, A: a.cfg.Site, B: peer, Value: v})
		}
	}
	return deltas, errors.Join(errs...)
}

// Run probes on the interval until the context ends, feeding emitted
// deltas into the sink batcher. Measurement errors are absorbed (and
// counted — see Errors): a mesh with a dead peer keeps measuring the
// live ones.
func (a *Agent) Run(ctx context.Context, interval time.Duration, sink *Batcher) {
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		deltas, _ := a.Round(ctx)
		if len(deltas) > 0 {
			sink.Add(deltas...)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
