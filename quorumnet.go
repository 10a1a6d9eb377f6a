// Package quorumnet places quorum systems on wide-area networks and tunes
// client access strategies to minimize average response time, implementing
// Oprea & Reiter, "Minimizing Response Time for Quorum-System Protocols
// over Wide-Area Networks" (DSN 2007).
//
// The library models a WAN as a round-trip-time metric over sites
// (Topology), a quorum system over logical elements (System), a placement
// of elements onto sites (Placement), and per-client access strategies
// (Strategy). Response time follows the paper's model:
//
//	ρ(v, Q) = max_{w ∈ f(Q)} ( d(v, w) + α·load(w) )
//
// averaged over clients and quorum choices. With α = 0 this is pure
// network delay (light demand); α = 0.007·client_demand models processing
// delay under load.
//
// # Quickstart
//
//	topo := quorumnet.PlanetLab50(1)
//	sys, _ := quorumnet.NewGrid(5)
//	f, _ := quorumnet.OneToOne(topo, sys, quorumnet.PlacementOptions{})
//	e, _ := quorumnet.NewEval(topo, sys, f, quorumnet.AlphaForDemand(4000))
//	fmt.Println(e.AvgResponseTime(quorumnet.Closest))
//
// The package exports what its runnable examples (examples/,
// example_test.go) use: the paper's pipeline from WAN metric through
// quorum system, placement (§4.1), access-strategy LP (§4.2) and
// response-time evaluation (§6–7), the Q/U protocol simulator (§3), and
// the staged Planner with its Deployment and serving plane and the probe
// mesh. An exported name stays only if one of those callers uses it or
// it appears in the declaration of one that does; a test enforces this.
// Everything else — many-to-one placement, the §4.2 iterative
// algorithm, solver options, the paper's figures and ablations, the
// scenario sharding and fleet stack, run journals — is reached through
// the commands under cmd/ and is not a public API.
package quorumnet

import (
	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/faults"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/probe"
	"github.com/quorumnet/quorumnet/internal/protocol"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Topology is a set of wide-area sites with an RTT metric (milliseconds)
// and per-site capacities.
type Topology = topology.Topology

// TopologyConfig parameterizes the synthetic WAN generator.
type TopologyConfig = topology.GenConfig

// RegionSpec is one geographic cluster of a TopologyConfig.
type RegionSpec = topology.RegionSpec

// DefaultSeed reproduces the topologies used in EXPERIMENTS.md.
const DefaultSeed = topology.DefaultSeed

// PlanetLab50 synthesizes the 50-site PlanetLab-like topology of the
// paper's evaluation.
func PlanetLab50(seed int64) *Topology { return topology.PlanetLab50(seed) }

// Daxlist161 synthesizes the 161-site web-server topology of the paper's
// evaluation.
func Daxlist161(seed int64) *Topology { return topology.Daxlist161(seed) }

// GenerateTopology builds a topology from a custom cluster configuration.
func GenerateTopology(cfg TopologyConfig, seed int64) (*Topology, error) {
	return topology.Generate(cfg, seed)
}

// System is a quorum system over a universe of logical elements.
type System = quorum.System

// Threshold is the Majority (voting) quorum system family.
type Threshold = quorum.Threshold

// Grid is the k×k grid quorum system (quorum = one row plus one column).
type Grid = quorum.Grid

// SingletonSystem is the one-element baseline system.
type SingletonSystem = quorum.Singleton

// SimpleMajority returns the (t+1, 2t+1) Majority.
func SimpleMajority(t int) (Threshold, error) { return quorum.SimpleMajority(t) }

// QUMajority returns the (4t+1, 5t+1) Majority used by Q/U.
func QUMajority(t int) (Threshold, error) { return quorum.QUMajority(t) }

// NewGrid returns the k×k Grid system.
func NewGrid(k int) (Grid, error) { return quorum.NewGrid(k) }

// FailureResilience returns the largest f such that the system survives
// every failure of f elements (n − q for thresholds, k − 1 for grids).
func FailureResilience(sys System) int { return quorum.FailureResilience(sys) }

// ErrNoQuorumSurvives reports that a failure kills every quorum.
var ErrNoQuorumSurvives = quorum.ErrNoQuorumSurvives

// Placement maps universe elements to topology sites.
type Placement = core.Placement

// PlacementOptions tunes the placement search.
type PlacementOptions = placement.Options

// OneToOne computes the delay-minimizing one-to-one placement for the
// system (ball construction for Majorities, shell construction for
// Grids).
func OneToOne(topo *Topology, sys System, opts PlacementOptions) (Placement, error) {
	return placement.OneToOne(topo, sys, opts)
}

// SingletonPlacement places an n-element universe on the topology median.
func SingletonPlacement(topo *Topology, n int) (Placement, error) {
	return placement.Singleton(topo, n)
}

// Eval evaluates (topology, system, placement) triples under the response
// time model.
type Eval = core.Eval

// Strategy is a family of per-client quorum-access distributions.
type Strategy = core.Strategy

// Built-in strategies.
var (
	// Closest is §6's deterministic closest-quorum strategy.
	Closest Strategy = core.ClosestStrategy{}
	// Balanced is the uniform (load-dispersing) strategy.
	Balanced Strategy = core.BalancedStrategy{}
)

// NewEval validates and builds an evaluator; alpha converts load into
// milliseconds of processing delay.
func NewEval(topo *Topology, sys System, f Placement, alpha float64) (*Eval, error) {
	return core.NewEval(topo, sys, f, alpha)
}

// AlphaForDemand returns alpha = 0.007 ms × clientDemand, the paper's §7
// setting.
func AlphaForDemand(clientDemand float64) float64 { return core.AlphaForDemand(clientDemand) }

// Heterogeneous client demand (an extension; the paper weighs clients
// equally) is configured per evaluation with (*Eval).SetClientWeights,
// one weight per position in Eval.Clients; nil restores uniform demand.
// Loads, response-time averages, and the strategy LP all honor the
// weights.

// OptimizeResult carries LP-optimized strategies.
type OptimizeResult = strategy.Result

// SweepPoint is one capacity setting's outcome in a sweep.
type SweepPoint = strategy.SweepPoint

// OptimizeStrategies solves the access-strategy LP (4.3)–(4.6) under the
// given per-site capacities (cold, with deterministic Dantzig pricing).
func OptimizeStrategies(e *Eval, caps []float64) (*OptimizeResult, error) {
	return strategy.Optimize(e, caps)
}

// SweepValues returns the capacity grid c_i = Lopt + i·(1−Lopt)/count.
func SweepValues(lopt float64, count int) []float64 { return strategy.SweepValues(lopt, count) }

// UniformCapacitySweep optimizes strategies at each uniform capacity
// value on a bounded worker pool, warm-starting within chunks of
// consecutive points.
func UniformCapacitySweep(e *Eval, values []float64) ([]SweepPoint, error) {
	return strategy.UniformSweep(e, values, strategy.ConfigFor(false))
}

// NonUniformCapacitySweep uses the §7 heuristic (capacity inversely
// proportional to client distance) over intervals [lopt, c].
func NonUniformCapacitySweep(e *Eval, lopt float64, values []float64) ([]SweepPoint, error) {
	return strategy.NonUniformSweep(e, lopt, values, strategy.ConfigFor(false))
}

// BestSweepPoint returns the feasible sweep point minimizing response time.
func BestSweepPoint(points []SweepPoint) (SweepPoint, error) { return strategy.Best(points) }

// ApplyFailures restricts an evaluation to the survivors of node
// failures: elements on failed nodes die, the quorum system shrinks to
// the surviving quorums, and failed nodes leave the client set. Returns
// ErrNoQuorumSurvives (wrapped) when the service becomes unavailable.
func ApplyFailures(e *Eval, failedNodes []int) (*Eval, error) {
	return faults.Apply(e, failedNodes)
}

// Availability estimates by Monte Carlo the probability that some quorum
// survives when each node fails independently with probability pFail.
func Availability(e *Eval, pFail float64, trials int, seed int64) (float64, error) {
	return faults.Availability(e, pFail, trials, seed)
}

// WorstCaseFailure returns a deterministic adversarial choice of f
// support nodes to fail (most elements hosted, then closest to clients).
func WorstCaseFailure(e *Eval, f int) []int { return faults.WorstCaseFailure(e, f) }

// ProtocolConfig configures a Q/U-style protocol run.
type ProtocolConfig = protocol.Config

// ProtocolMetrics summarizes a protocol run.
type ProtocolMetrics = protocol.Metrics

// RunProtocol executes the single-round quorum protocol on a fresh
// discrete-event simulator.
func RunProtocol(cfg ProtocolConfig) (*ProtocolMetrics, error) { return protocol.RunSim(cfg) }

// RunProtocolAveraged averages several runs with consecutive seeds, as
// the paper does.
func RunProtocolAveraged(cfg ProtocolConfig, runs int) (*ProtocolMetrics, error) {
	return protocol.RunSimAveraged(cfg, runs)
}

// Planner owns the staged pipeline — topology → system → placement →
// strategy → evaluation — with dirty-tracking: deltas (SetRTT,
// SetSiteCapacity, SetDemand, AddSite, RemoveSite, …) invalidate only
// the stages they affect, so a re-plan after a demand-only delta re-runs
// just the evaluation and a capacity-only delta re-solves the strategy
// LP warm-started from the previous basis. A Planner is one logical
// deployment being re-tuned over time; it is not safe for concurrent
// use.
type Planner = plan.Planner

// PlannerConfig fixes a planner's pipeline shape: the quorum system,
// placement algorithm, access-strategy kind, demand, and solver options.
type PlannerConfig = plan.Config

// SystemSpec names a quorum-system family and parameter declaratively
// (for PlannerConfig and scenario specs).
type SystemSpec = plan.SystemSpec

// Access-strategy kinds for PlannerConfig.Strategy.
const (
	StratClosest  = plan.StratClosest
	StratBalanced = plan.StratBalanced
	StratLP       = plan.StratLP
)

// NewPlanner builds a staged planner over a starting topology. The
// topology is deep-copied; later deltas mutate only the planner's state.
func NewPlanner(topo *Topology, cfg PlannerConfig) (*Planner, error) {
	return plan.New(topo, cfg)
}

// Deployment is the online-adaptation layer over one Planner: it
// serializes delta ingestion (RTT probes, capacity changes, demand
// telemetry) through a single apply loop, publishes every re-plan as an
// immutable snapshot readers load without blocking, and gates
// placement moves behind the DeployConfig.MoveCost hysteresis threshold
// (strategy-only re-plans are always taken).
type Deployment = deploy.Manager

// DeployConfig tunes a Deployment: the placement-move hysteresis
// threshold, history retention, and delta-log recording.
type DeployConfig = deploy.Config

// NewDeployment wraps a planner (which must not be used elsewhere
// afterwards), runs the initial plan, and publishes it as version 1.
func NewDeployment(p *Planner, cfg DeployConfig) (*Deployment, error) {
	return deploy.New(p, cfg)
}

// PlanServerOptions tunes a ServeRegistry: the long-poll cap and the
// per-tenant watcher and apply-queue limits.
type PlanServerOptions = serve.Options

// ServeRegistry multiplexes named Deployments behind one HTTP handler:
// GET /v1/deployments (roster), /v1/deployments/<name>/{plan,deltas,
// history} per tenant, with the legacy single-tenant routes aliasing
// the default (first-opened) deployment byte-identically. Tenants
// share the process — one planner pool, one deadline wheel — and each
// serves its plan from a per-publish encoding cache, waking parked
// long-poll watchers with a single epoch-channel close per publish.
type ServeRegistry = serve.Registry

// ServeTenant is one named deployment inside a ServeRegistry, with its
// cached current-plan encoding and serving counters.
type ServeTenant = serve.Tenant

// NewServeRegistry builds an empty multi-tenant serving plane; add
// deployments with OpenDeployment and mount Handler().
func NewServeRegistry(opts PlanServerOptions) *ServeRegistry {
	return serve.NewRegistry(opts)
}

// OpenDeployment registers a deployment under name in the registry.
// The first deployment opened becomes the default the legacy
// single-tenant routes alias.
func OpenDeployment(r *ServeRegistry, name string, m *Deployment) (*ServeTenant, error) {
	return r.Open(name, m)
}

// Scenario is a declarative workload: a topology source, quorum-system
// axes, placement algorithm, demand/strategy/measure axes, capacity
// sweeps, fault injections, protocol grids, or a timeline of deltas
// driven through a Planner. The engine validates it, expands its axes
// into plan points, and executes them on a bounded worker pool.
type Scenario = scenario.Spec

// ScenarioConfig carries execution settings a scenario does not fix:
// seed, reproducibility, and protocol-simulation scale.
type ScenarioConfig = scenario.RunConfig

// ScenarioLibrary lists the built-in workload scenarios: regional
// outage, diurnal demand shift, RTT drift, site churn, flash crowd,
// heterogeneous demand, correlated failure (a region outage with
// same-epoch RTT degradation on the survivors), and the multi-seed
// scaled parameter study (seed-scale-study).
func ScenarioLibrary() []Scenario { return scenario.Library() }

// StreamStep is one timeline step exported as a replayable delta batch
// — what quorumgen posts to a live deployment per step.
type StreamStep = scenario.StreamStep

// TimelineStream compiles a timeline scenario's steps into delta
// batches: applying each batch to a deployment seeded with
// TimelinePlanner drives it through exactly the states the scenario
// engine's table records, row for row (asserted by test for every
// library timeline). It is the bridge between declarative workloads and
// live deployments — the quorumgen replayer is a thin CLI over it.
func TimelineStream(spec *Scenario, cfg ScenarioConfig) ([]StreamStep, error) {
	return scenario.TimelineStream(spec, cfg)
}

// TimelinePlanner builds the planner a timeline scenario starts from,
// so a Deployment created around it begins in the state the scenario's
// "initial" row reports.
func TimelinePlanner(spec *Scenario, cfg ScenarioConfig) (*Planner, error) {
	return scenario.TimelinePlanner(spec, cfg)
}

// ProbeAgent measures one row of an N×N RTT ping mesh: each round it
// probes its peers over its transport, feeds each sample through a
// per-pair smoother (windowed median, MAD spike rejection, emission
// hysteresis), and emits rtt deltas only when a link's smoothed value
// genuinely moves — so a noisy-but-stationary mesh emits nothing after
// its warmup baselines, and measurement noise never reaches the
// planner (asserted by test: 0 placement moves over 100 noisy rounds
// with smoothing on, >0 with it off).
type ProbeAgent = probe.Agent

// ProbeAgentConfig configures a ProbeAgent: local site, peer roster,
// transport, smoothing, and per-measurement timeout.
type ProbeAgentConfig = probe.AgentConfig

// ProbeSmoother tunes the per-pair sample filter of a ProbeAgent
// (window length, MAD gate, level-shift recovery, hysteresis band).
type ProbeSmoother = probe.SmootherConfig

// NewProbeAgent validates the configuration and builds an agent.
func NewProbeAgent(cfg ProbeAgentConfig) (*ProbeAgent, error) { return probe.NewAgent(cfg) }

// NewFakeMesh builds a deterministic in-process probe transport with
// programmable pair RTTs, scripted noise, and failures — the unit under
// the hysteresis regression tests.
func NewFakeMesh() *probe.FakeMesh { return probe.NewFakeMesh() }

// DeltaBatcher is the client-side debouncer between delta producers
// (probe agents) and a deployment: it coalesces
// added deltas locally (a later value supersedes an earlier one) and
// posts one batch per cadence window — never mid-window — re-queueing
// batches on transient failures so newer values still supersede them.
type DeltaBatcher = probe.Batcher

// DeltaPoster posts one coalesced batch to a deployment;
// ManagerDeltaPoster applies it in-process.
type DeltaPoster = probe.Poster

// ManagerDeltaPoster applies delta batches straight to an in-process
// Deployment — the no-HTTP path for simulations and embedded use.
type ManagerDeltaPoster = probe.ManagerPoster

// NewDeltaBatcher builds a batcher over the given poster.
func NewDeltaBatcher(p DeltaPoster) *DeltaBatcher { return probe.NewBatcher(p) }
