// Package plan turns the paper's one-shot pipeline — topology → quorum
// system → placement → access strategy → evaluation — into a staged
// planner with explicit artifacts and dirty-tracking. A Planner owns
// mutable inputs (the raw RTT matrix, per-site capacities, client demand,
// the system/placement/strategy configuration) and memoizes each stage's
// output; a re-plan costs in proportion to what the deltas since the last
// one changed. A demand-only delta re-runs just the evaluation stage, a
// capacity-only delta re-solves the access-strategy LP warm-started from
// the previous optimal basis (a handful of pivots), and an RTT delta
// folds the edited links into the closed metric, re-scores the placement
// anchors the moved sites can reach, and re-solves the LP with a new
// objective from the retained basis — or, when the edit moved no closed
// distance, re-runs nothing below the topology stage.
//
// Invalidation is by content. A delta marks the stage whose input it
// changes; during Plan a stage that ran marks the next one only if what it
// produced differs:
//
//	SetRTT                      → topology (edits folded into the closed
//	                              matrix); placement only if a closed
//	                              distance moved
//	AddSite, RemoveSite         → topology (raw re-closed in full), and
//	                              everything indexed by site starts over
//	SetSiteCapacity             → placement only if a site crosses the
//	                              one-to-one eligibility threshold
//	                              (always for many-to-one); otherwise
//	                              strategy (warm, RHS-only re-solve)
//	PinPlacement, Clear…        → placement
//	placement ran               → strategy: the LP skeleton is kept and
//	                              re-bound when the targets are the same
//	                              (objective-only warm re-solve), rebuilt
//	                              when they moved
//	SetClientWeights            → strategy (LP skeleton rebuild)
//	SetDemand                   → evaluation only
//
// Dirty(stage) answers before Plan and is therefore conservative: after
// SetRTT every stage "may" re-run. A Reproducible planner keeps the
// by-setter behaviour — an RTT delta re-closes raw with Floyd–Warshall
// and re-runs every stage below with cold LP solves — because its
// contract is bit-equality with a cold pipeline.
//
// The Planner keeps the *raw* distance matrix as the source of truth: the
// closed metric is always derived from it, in full or by folding raw
// edits into the previous closure, so any sequence of deltas followed by
// Plan is equivalent to a cold plan of the final inputs — exactly for a
// Reproducible planner, and for the default profile with the same
// placement, the metric to 1e-9 relative and the LP optimum to 1e-6;
// the package's tests assert both for random delta sequences at every
// pool width.
//
// Each Plan call publishes an immutable, versioned Snapshot: deep-copied
// artifacts, the evaluation measures, and a Provenance recording which
// stages re-ran and which deltas drove them. Snapshots are what the
// deployment-manager and serving layers (internal/deploy,
// internal/serve) hand to concurrent readers. PinPlacement forces the
// placement stage to explicit targets — the hook the deployment layer's
// migration hysteresis uses to hold a placement whose replacement is not
// worth its move cost.
package plan

import (
	"fmt"

	"github.com/quorumnet/quorumnet/internal/quorum"
)

// Stage identifies one pipeline stage.
type Stage int

// Pipeline stages in dependency order: a stage whose output changes
// dirties the next one.
const (
	StageTopology Stage = iota
	StageSystem
	StagePlacement
	StageStrategy
	StageEval
	numStages
)

// String returns the stage's name as used in diagnostics and tables.
func (s Stage) String() string {
	switch s {
	case StageTopology:
		return "topology"
	case StageSystem:
		return "system"
	case StagePlacement:
		return "placement"
	case StageStrategy:
		return "strategy"
	case StageEval:
		return "eval"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Algorithm selects the placement construction the planner runs.
type Algorithm string

// Placement algorithms. The iterative algorithm of §4.2 is deliberately
// not a planner stage: it fuses placement and strategy into one fixpoint
// computation, so it has nothing to reuse across deltas; run it through
// placement.Iterate (or a scenario of kind "iterate") instead.
const (
	AlgoOneToOne  Algorithm = "one-to-one"
	AlgoSingleton Algorithm = "singleton"
	AlgoManyToOne Algorithm = "many-to-one"
)

// StrategyKind selects the access-strategy stage.
type StrategyKind string

// Access strategies: the paper's closest and balanced strategies need no
// optimization; "lp" solves the access-strategy LP (4.3)–(4.6) under the
// planner's current capacities.
const (
	StratClosest  StrategyKind = "closest"
	StratBalanced StrategyKind = "balanced"
	StratLP       StrategyKind = "lp"
)

// SystemSpec names a quorum-system family and its parameter.
type SystemSpec struct {
	// Family is one of "majority" ((t+1, 2t+1)), "bmajority"
	// ((2t+1, 3t+1)), "qumajority" ((4t+1, 5t+1)), "threshold" (explicit
	// (Q, N)), "grid" (k×k), or "singleton".
	Family string `json:"family"`
	// Param is t for the majority families and k for grids; ignored for
	// "threshold" and "singleton".
	Param int `json:"param,omitempty"`
	// Q, N parameterize the "threshold" family.
	Q int `json:"q,omitempty"`
	N int `json:"n,omitempty"`
}

// Build constructs the quorum system the spec names.
func (s SystemSpec) Build() (quorum.System, error) {
	switch s.Family {
	case "majority":
		return quorum.SimpleMajority(s.Param)
	case "bmajority":
		return quorum.ByzantineMajority(s.Param)
	case "qumajority":
		return quorum.QUMajority(s.Param)
	case "threshold":
		return quorum.NewThreshold(s.Q, s.N)
	case "grid":
		return quorum.NewGrid(s.Param)
	case "singleton":
		return quorum.Singleton{}, nil
	default:
		return nil, fmt.Errorf("plan: unknown system family %q", s.Family)
	}
}

// Config fixes the planner's pipeline shape. The zero value is not
// usable; System and (implicitly) Algorithm/Strategy must name valid
// choices.
type Config struct {
	// System names the quorum-system family and parameter.
	System SystemSpec
	// Algorithm selects the placement construction (default one-to-one).
	Algorithm Algorithm
	// Strategy selects the access-strategy stage (default closest; "lp"
	// requires an enumerable system).
	Strategy StrategyKind
	// Demand is the per-client demand in requests; the evaluation's alpha
	// is OpServiceTimeMS × Demand (§7). Zero evaluates pure network delay.
	Demand float64
	// Reproducible forces cold, Dantzig-priced LP solves and a full
	// Floyd–Warshall closure of the raw matrix on every RTT delta, so
	// repeated plans are bit-identical to a cold pipeline; the default
	// carries state from plan to plan — the closed metric is maintained
	// incrementally (equal to the full closure to 1e-9 relative) and the
	// strategy LP re-solves warm-started with partial pricing (same
	// optima, possibly a different optimal vertex on degenerate
	// instances). It exists for
	// the paper-exact tables and the incremental ≡ cold tests. Journal
	// replay does not need it: either profile is a deterministic function
	// of the construction inputs and the delta sequence (strategy.ConfigFor
	// is where the setting becomes solver options).
	Reproducible bool
}

func (c Config) algorithm() Algorithm {
	if c.Algorithm == "" {
		return AlgoOneToOne
	}
	return c.Algorithm
}

func (c Config) strategy() StrategyKind {
	if c.Strategy == "" {
		return StratClosest
	}
	return c.Strategy
}
