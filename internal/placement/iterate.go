package placement

import (
	"fmt"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// IterateConfig parameterizes the iterative algorithm of §4.2.
type IterateConfig struct {
	// Alpha is the load-to-delay factor used for the halting criterion
	// (expected response time).
	Alpha float64
	// MaxIterations bounds the loop (default 8); the paper observes most
	// runs terminate after the first iteration.
	MaxIterations int
	// Candidates as in Options.
	Candidates []int
	// LP passes solver options through to both phases' LPs (the GAP
	// pipeline of the many-to-one placement and the access-strategy LP).
	// The zero value reproduces the original solver's pivot sequence;
	// lp.PricingPartial trades that bit-reproducibility for speed.
	LP lp.Options
}

// PhaseRecord captures the measures after each phase of one iteration,
// feeding Figure 8.9.
type PhaseRecord struct {
	Iteration int
	// Phase1NetDelay is the average network delay of the new placement
	// under the previous (shared) strategy.
	Phase1NetDelay float64
	// Phase2NetDelay is the average network delay after re-optimizing the
	// access strategies.
	Phase2NetDelay float64
	// Response is the expected response time (4.2) closing the iteration.
	Response float64
}

// IterResult is the outcome of the iterative algorithm.
type IterResult struct {
	Placement core.Placement
	Strategy  *core.ExplicitStrategy
	Response  float64
	History   []PhaseRecord
}

// Iterate alternates the many-to-one placement (phase 1, with the average
// of the previous per-client strategies as the shared strategy) and the
// access-strategy LP (phase 2, with capacities set to the loads the new
// placement induces), halting when expected response time stops
// decreasing, exactly as described in §4.2. The system must be
// enumerable.
func Iterate(topo *topology.Topology, sys quorum.System, cfg IterateConfig) (*IterResult, error) {
	if !sys.Enumerable() {
		return nil, fmt.Errorf("placement: iterative algorithm needs an enumerable system, got %s", sys.Name())
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 8
	}
	m := sys.NumQuorums()

	// p0: the uniform distribution for every client.
	shared := make([]core.Access, m)
	for i := range shared {
		shared[i] = core.Access{Q: i, P: 1 / float64(m)}
	}

	var result *IterResult
	for j := 1; j <= maxIter; j++ {
		// Phase 1: many-to-one placement under the shared strategy.
		elemLoads := elementLoadsOf(sys, shared)
		scoreBy := sharedStrategy(topo, shared)
		f, err := ManyToOne(topo, sys, ManyToOneConfig{
			ElementLoads: elemLoads,
			ScoreBy:      scoreBy,
			Candidates:   cfg.Candidates,
			LP:           cfg.LP,
		})
		if err != nil {
			return nil, fmt.Errorf("placement: iteration %d phase 1: %w", j, err)
		}
		e, err := core.NewEval(topo, sys, f, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		phase1Delay := e.AvgNetworkDelay(scoreBy)

		// Phase 2: re-optimize strategies with capacities pinned to the
		// loads the placement currently induces (a hair of slack absorbs
		// LP tolerance at the boundary).
		caps := e.NodeLoads(scoreBy)
		for w := range caps {
			caps[w] += 1e-9
		}
		// Each iteration produces a new placement, so the strategy-LP
		// skeleton cannot be reused across iterations; the Optimizer still
		// carries the configured solver options through.
		opt, err := strategy.NewOptimizer(e, strategy.Config{LP: cfg.LP})
		if err != nil {
			return nil, fmt.Errorf("placement: iteration %d phase 2: %w", j, err)
		}
		res, err := opt.Optimize(caps)
		if err != nil {
			return nil, fmt.Errorf("placement: iteration %d phase 2: %w", j, err)
		}
		resp := e.AvgResponseTime(res.Strategy)
		rec := PhaseRecord{
			Iteration:      j,
			Phase1NetDelay: phase1Delay,
			Phase2NetDelay: res.AvgNetDelay,
			Response:       resp,
		}

		if result != nil && resp >= result.Response {
			// No improvement: halt and return the previous iteration's
			// output, per the paper.
			result.History = append(result.History, rec)
			return result, nil
		}
		hist := []PhaseRecord{rec}
		if result != nil {
			hist = append(result.History, rec)
		}
		result = &IterResult{Placement: f, Strategy: res.Strategy, Response: resp, History: hist}

		// Next shared strategy: the average of the per-client rows,
		// summed entry by entry in client order.
		mean := make([]float64, m)
		for _, row := range res.Strategy.Rows {
			for _, a := range row {
				mean[a.Q] += a.P
			}
		}
		inv := 1 / float64(len(res.Strategy.Rows))
		shared = nil
		for i, p := range mean {
			if p > 0 {
				shared = append(shared, core.Access{Q: i, P: p * inv})
			}
		}
	}
	return result, nil
}

// elementLoadsOf computes load_p(u) = Σ_{Q_i ∋ u} p(i) for a shared
// strategy.
func elementLoadsOf(sys quorum.System, shared []core.Access) []float64 {
	loads := make([]float64, sys.UniverseSize())
	for _, a := range shared {
		for _, u := range sys.Quorum(a.Q) {
			loads[u] += a.P
		}
	}
	return loads
}

// sharedStrategy gives every client the one shared row.
func sharedStrategy(topo *topology.Topology, shared []core.Access) *core.ExplicitStrategy {
	rows := make([][]core.Access, topo.Size())
	for k := range rows {
		rows[k] = shared
	}
	return &core.ExplicitStrategy{Rows: rows, Label: "shared"}
}
