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
// Subsystems: synthetic WAN topology generation and serialization; the
// Majority and Grid quorum constructions with closed-form balanced-
// strategy evaluation; one-to-one, singleton, and many-to-one placement
// algorithms (the latter via an LP relaxation, Lin–Vitter filtering and
// Shmoys–Tardos rounding over the built-in simplex solver); the
// access-strategy LP; capacity tuning; the §4.2 iterative algorithm; and
// a discrete-event Q/U protocol simulator. The staged Planner re-plans
// deployments incrementally as conditions drift (demand shifts, RTT
// drift, capacity changes, site churn), and the declarative Scenario
// engine executes whole workloads — including every figure of the paper,
// exposed through Experiments and the quorumbench command — from specs.
package quorumnet

import (
	"io"
	"time"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/experiments"
	"github.com/quorumnet/quorumnet/internal/faults"
	"github.com/quorumnet/quorumnet/internal/fleet"
	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/lp"
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

// Site describes one wide-area location.
type Site = topology.Site

// TopologyConfig parameterizes the synthetic WAN generator.
type TopologyConfig = topology.GenConfig

// RegionSpec is one geographic cluster of a TopologyConfig.
type RegionSpec = topology.RegionSpec

// ASGraphSpec switches a TopologyConfig to the power-law AS-graph
// generator for 1k–10k-site internet-scale topologies (closed by the
// sparse parallel closure; see DESIGN.md §13).
type ASGraphSpec = topology.ASGraphSpec

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

// LoadTopology reads a topology in the quorumnet text format, repairing
// asymmetry and triangle violations by metric closure.
func LoadTopology(r io.Reader) (*Topology, error) { return topology.Load(r) }

// SaveTopology writes a topology in the quorumnet text format.
func SaveTopology(w io.Writer, t *Topology) error { return topology.Save(w, t) }

// System is a quorum system over a universe of logical elements.
type System = quorum.System

// Threshold is the Majority (voting) quorum system family.
type Threshold = quorum.Threshold

// Grid is the k×k grid quorum system (quorum = one row plus one column).
type Grid = quorum.Grid

// SingletonSystem is the one-element baseline system.
type SingletonSystem = quorum.Singleton

// NewThreshold returns the threshold system with quorums of size q over n
// elements (requires 2q > n).
func NewThreshold(q, n int) (Threshold, error) { return quorum.NewThreshold(q, n) }

// SimpleMajority returns the (t+1, 2t+1) Majority.
func SimpleMajority(t int) (Threshold, error) { return quorum.SimpleMajority(t) }

// ByzantineMajority returns the (2t+1, 3t+1) Majority.
func ByzantineMajority(t int) (Threshold, error) { return quorum.ByzantineMajority(t) }

// QUMajority returns the (4t+1, 5t+1) Majority used by Q/U.
func QUMajority(t int) (Threshold, error) { return quorum.QUMajority(t) }

// NewGrid returns the k×k Grid system.
func NewGrid(k int) (Grid, error) { return quorum.NewGrid(k) }

// ExplicitSystem is a quorum system given by an explicit quorum list,
// for user-defined constructions.
type ExplicitSystem = quorum.Explicit

// NewExplicitSystem builds a quorum system from explicit quorums over
// {0..n-1}, verifying the pairwise-intersection property.
func NewExplicitSystem(name string, n int, quorums [][]int) (*ExplicitSystem, error) {
	return quorum.NewExplicit(name, n, quorums)
}

// FailureResilience returns the largest f such that the system survives
// every failure of f elements (n − q for thresholds, k − 1 for grids).
func FailureResilience(sys System) int { return quorum.FailureResilience(sys) }

// ErrNoQuorumSurvives reports that a failure kills every quorum.
var ErrNoQuorumSurvives = quorum.ErrNoQuorumSurvives

// Placement maps universe elements to topology sites.
type Placement = core.Placement

// NewPlacement builds a placement from an element→site table.
func NewPlacement(target []int, topo *Topology) (Placement, error) {
	return core.NewPlacement(target, topo)
}

// PlacementOptions tunes the placement search.
type PlacementOptions = placement.Options

// ManyToOneConfig parameterizes the §4.1.2 many-to-one placement.
type ManyToOneConfig = placement.ManyToOneConfig

// IterateConfig parameterizes the §4.2 iterative algorithm.
type IterateConfig = placement.IterateConfig

// IterResult is the outcome of the iterative algorithm.
type IterResult = placement.IterResult

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

// ManyToOne computes the almost-capacity-respecting many-to-one placement
// (LP relaxation → Lin–Vitter filtering → Shmoys–Tardos rounding).
func ManyToOne(topo *Topology, sys System, cfg ManyToOneConfig) (Placement, error) {
	return placement.ManyToOne(topo, sys, cfg)
}

// Iterate runs the §4.2 iterative placement/strategy algorithm.
func Iterate(topo *Topology, sys System, cfg IterateConfig) (*IterResult, error) {
	return placement.Iterate(topo, sys, cfg)
}

// Eval evaluates (topology, system, placement) triples under the response
// time model.
type Eval = core.Eval

// Strategy is a family of per-client quorum-access distributions.
type Strategy = core.Strategy

// ExplicitStrategy is a per-client distribution over enumerated quorums.
type ExplicitStrategy = core.ExplicitStrategy

// LoadMode selects the node-load accounting model.
type LoadMode = core.LoadMode

// Load accounting models: the paper's multiplicity model and the §8
// future-work dedup model.
const (
	LoadMultiplicity = core.LoadMultiplicity
	LoadDedup        = core.LoadDedup
)

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
// equally) is configured per evaluation with (*Eval).SetClientWeights;
// loads, response-time averages, and the strategy LP all honor the
// weights.

// OptimizeResult carries LP-optimized strategies.
type OptimizeResult = strategy.Result

// SweepPoint is one capacity setting's outcome in a sweep.
type SweepPoint = strategy.SweepPoint

// LPOptions tunes the built-in simplex solver. The zero value — cold
// Dantzig pricing — is fully deterministic and reproduces the solver's
// original pivot sequence; PricingPartial is markedly faster on the wide
// LPs this library generates but may return a different (equally
// optimal) vertex on degenerate instances. LPOptions threads through
// PlacementOptions-style configs: ManyToOneConfig.LP, IterateConfig.LP,
// and OptimizerConfig.LP.
type LPOptions = lp.Options

// Pricing rules for LPOptions.
const (
	PricingDantzig = lp.PricingDantzig
	PricingPartial = lp.PricingPartial
)

// OptimizerConfig tunes a StrategyOptimizer: solver options, whether
// successive solves warm-start from the previous optimal basis, and the
// Solver selection (auto/dense/colgen) — auto switches to the
// column-generation path above strategy.DefaultColgenThreshold nc·m
// variables, which solves the same LP to the same optimum while only
// materializing the columns that price attractively.
type OptimizerConfig = strategy.Config

// StrategyOptimizer re-solves the access-strategy LP for one evaluation
// under varying capacities, building the LP skeleton once and mutating
// only the capacity right-hand sides between solves — the workhorse
// behind fast capacity sweeps. It is not safe for concurrent use.
type StrategyOptimizer = strategy.Optimizer

// NewStrategyOptimizer builds the reusable LP workspace for an
// evaluation.
func NewStrategyOptimizer(e *Eval, cfg OptimizerConfig) (*StrategyOptimizer, error) {
	return strategy.NewOptimizer(e, cfg)
}

// OptimizeStrategies solves the access-strategy LP (4.3)–(4.6) under the
// given per-site capacities (cold, with deterministic Dantzig pricing;
// use a StrategyOptimizer for repeated or warm-started solves).
func OptimizeStrategies(e *Eval, caps []float64) (*OptimizeResult, error) {
	return strategy.Optimize(e, caps)
}

// SweepValues returns the capacity grid c_i = Lopt + i·(1−Lopt)/count.
func SweepValues(lopt float64, count int) []float64 { return strategy.SweepValues(lopt, count) }

// UniformCapacitySweep optimizes strategies at each uniform capacity
// value on a bounded worker pool, warm-starting within chunks of
// consecutive points.
func UniformCapacitySweep(e *Eval, values []float64) ([]SweepPoint, error) {
	return strategy.UniformSweep(e, values, strategy.SweepConfig{})
}

// NonUniformCapacitySweep uses the §7 heuristic (capacity inversely
// proportional to client distance) over intervals [lopt, c].
func NonUniformCapacitySweep(e *Eval, lopt float64, values []float64) ([]SweepPoint, error) {
	return strategy.NonUniformSweep(e, lopt, values, strategy.SweepConfig{})
}

// NonUniformCaps computes the heuristic capacities for [beta, gamma].
func NonUniformCaps(e *Eval, beta, gamma float64) ([]float64, error) {
	return strategy.NonUniformCaps(e, beta, gamma)
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

// ThresholdAvailability is the exact binomial availability of a
// one-to-one placed threshold system.
func ThresholdAvailability(q, n int, pFail float64) (float64, error) {
	return faults.ThresholdAvailabilityExact(q, n, pFail)
}

// WorstCaseFailure returns a deterministic adversarial choice of f
// support nodes to fail (most elements hosted, then closest to clients).
func WorstCaseFailure(e *Eval, f int) []int { return faults.WorstCaseFailure(e, f) }

// Slowdown models degraded nodes: delays through them are multiplied by
// factor and the metric re-closed (traffic may route around them).
func Slowdown(e *Eval, slowNodes []int, factor float64) (*Eval, error) {
	return faults.Slowdown(e, slowNodes, factor)
}

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

// PlanSnapshot is the immutable, versioned outcome of one Planner.Plan
// call: deep-copied stage artifacts, the evaluation measures, and a
// provenance recording which stages re-ran and why. Snapshots may be
// shared with concurrent readers.
type PlanSnapshot = plan.Snapshot

// PlanProvenance explains a snapshot: recomputed stages, the deltas
// that drove them, and whether the placement was pinned.
type PlanProvenance = plan.Provenance

// PlanStage identifies one pipeline stage in
// PlanProvenance.Recomputed.
type PlanStage = plan.Stage

// SystemSpec names a quorum-system family and parameter declaratively
// (for PlannerConfig and scenario specs).
type SystemSpec = plan.SystemSpec

// Placement algorithms for PlannerConfig.Algorithm.
const (
	AlgoOneToOne  = plan.AlgoOneToOne
	AlgoSingleton = plan.AlgoSingleton
	AlgoManyToOne = plan.AlgoManyToOne
)

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
// immutable PlanSnapshot readers load without blocking, and gates
// placement moves behind the DeployConfig.MoveCost hysteresis threshold
// (strategy-only re-plans are always taken).
type Deployment = deploy.Manager

// DeployConfig tunes a Deployment: the placement-move hysteresis
// threshold, history retention, and delta-log recording.
type DeployConfig = deploy.Config

// DeployDelta is one typed world change posted to a Deployment: an RTT
// probe, a capacity change, demand telemetry, or per-site demand
// weights.
type DeployDelta = deploy.Delta

// DeployEntry is one published re-plan: the snapshot plus the
// adaptation decision ("adopt …", "move …", "hold …") that produced it.
type DeployEntry = deploy.Entry

// Delta kinds for DeployDelta.Kind.
const (
	DeltaRTT             = deploy.KindRTT
	DeltaCapacity        = deploy.KindCapacity
	DeltaUniformCapacity = deploy.KindUniformCapacity
	DeltaDemand          = deploy.KindDemand
	DeltaWeights         = deploy.KindWeights
	DeltaAddSite         = deploy.KindAddSite
	DeltaRemoveSite      = deploy.KindRemoveSite
)

// NewDeployment wraps a planner (which must not be used elsewhere
// afterwards), runs the initial plan, and publishes it as version 1.
func NewDeployment(p *Planner, cfg DeployConfig) (*Deployment, error) {
	return deploy.New(p, cfg)
}

// CoalesceDeltas collapses a delta batch, dropping every delta whose
// effect a later one overwrites.
func CoalesceDeltas(ds []DeployDelta) []DeployDelta { return deploy.Coalesce(ds) }

// RecoverDeployment builds a Deployment whose applied delta batches are
// durable in an append-only journal at path, replaying any batches
// already recorded there. The planner must be built exactly as it was
// for the journal's original deployment (the daemon restarted with the
// same flags; either solver profile replays exactly): after replay the
// snapshot history — versions, decisions, ETags — is identical to the
// pre-crash deployment's. Returns the number of batches replayed.
func RecoverDeployment(p *Planner, cfg DeployConfig, path string) (*Deployment, int, error) {
	return deploy.Recover(p, cfg, path)
}

// PlanServer exposes a Deployment over HTTP: GET /v1/plan (versioned
// snapshot, ETag, long-poll), POST /v1/deltas, GET /v1/history — the
// transport behind the quorumd daemon.
type PlanServer = serve.Server

// PlanServerOptions tunes a PlanServer (long-poll cap).
type PlanServerOptions = serve.Options

// NewPlanServer wraps a deployment for serving; mount Handler() on any
// http server.
func NewPlanServer(m *Deployment, opts PlanServerOptions) *PlanServer {
	return serve.New(m, opts)
}

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

// EvalUnreplanned evaluates a deployment that does not re-plan around a
// node failure: the placement stays fixed, explicit strategies are
// renormalized over the surviving quorums, and the returned evaluator
// and strategy measure the response time the deployment pays for
// keeping its pre-failure plan.
func EvalUnreplanned(e *Eval, s Strategy, failedNodes []int) (*Eval, Strategy, error) {
	return faults.Unreplanned(e, s, failedNodes)
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

// ScenarioSettings is the serializable identity of a scenario run: the
// ScenarioConfig fields that determine its output bytes (seed,
// reproducibility, protocol scale), without the process-local callbacks.
// It is what run journals and fleet shard requests carry.
type ScenarioSettings = scenario.Settings

// ScenarioTopology names a scenario's WAN source (built-in topology,
// file, or synthesis config).
type ScenarioTopology = scenario.TopologySpec

// ScenarioSystemAxis expands into a sequence of quorum systems (explicit
// parameters or every parameter fitting a universe bound).
type ScenarioSystemAxis = scenario.SystemAxis

// ScenarioStep is one timeline entry: the deltas applied before a
// re-plan.
type ScenarioStep = scenario.Step

// ScenarioFaults injects failures and slowdowns into eval scenarios.
type ScenarioFaults = scenario.FaultSpec

// RunScenario executes a scenario and returns its table.
func RunScenario(spec *Scenario, cfg ScenarioConfig) (*ResultTable, error) {
	return scenario.Run(spec, cfg)
}

// LoadScenario reads and validates a JSON scenario spec.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// ScenarioLibrary lists the built-in workload scenarios: regional
// outage, diurnal demand shift, RTT drift, site churn, flash crowd,
// heterogeneous demand, correlated failure (a region outage with
// same-epoch RTT degradation on the survivors), and the multi-seed
// scaled parameter study (seed-scale-study).
func ScenarioLibrary() []Scenario { return scenario.Library() }

// ScenarioScale multiplies a scenario's study axes in place: Sites
// scales synthetic region counts, Clients scales every demand-bearing
// knob. With the Seeds axis (run the same study over N generated
// topologies, each an independently shardable sub-space), it puts the
// ~100x parameter studies in one spec file.
type ScenarioScale = scenario.ScaleSpec

// ScenarioSpace is a scenario's enumerated point-space: the
// deterministic, ordered list of work units an unsharded run executes.
// Partition it with Shard, execute partitions anywhere, and Merge the
// partials — the merged table is byte-identical to RunScenario.
type ScenarioSpace = scenario.Space

// Partition is one shard's slice of a scenario's point-space: the unit
// of work a fleet worker executes. Execute returns a ScenarioPartial.
type Partition = scenario.Partition

// ScenarioPoint is one self-describing work unit of a point-space.
type ScenarioPoint = scenario.Point

// ScenarioPartial is an executed partition's tagged table fragment —
// the fleet wire format (it serializes through the Table's stable JSON
// encoding).
type ScenarioPartial = scenario.Partial

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

// ProbeTransport measures one peer's RTT; implementations are the UDP
// echo transport (NewUDPProbeTransport) and the deterministic fake
// mesh (NewFakeMesh) for tests and simulations.
type ProbeTransport = probe.Transport

// NewProbeAgent validates the configuration and builds an agent.
func NewProbeAgent(cfg ProbeAgentConfig) (*ProbeAgent, error) { return probe.NewAgent(cfg) }

// NewUDPProbeTransport measures peers by round-tripping nonce-tagged
// datagrams against their UDP echo responders (ListenProbeEcho).
func NewUDPProbeTransport(peers map[string]string, timeout time.Duration) *probe.UDPTransport {
	return probe.NewUDPTransport(peers, timeout)
}

// ListenProbeEcho starts a UDP echo responder for the probe mesh.
func ListenProbeEcho(addr string) (*probe.EchoServer, error) { return probe.ListenEcho(addr) }

// NewFakeMesh builds a deterministic in-process probe transport with
// programmable pair RTTs, noise, and failures — the unit under the
// hysteresis regression tests.
func NewFakeMesh(seed int64) *probe.FakeMesh { return probe.NewFakeMesh(seed) }

// DemandReporter aggregates per-site client request counts into
// windowed demand/weights deltas with relative-change hysteresis:
// steady traffic emits nothing, an empty window emits nothing (missing
// telemetry is not zero demand), and silent sites keep a positive
// floor weight.
type DemandReporter = probe.Reporter

// DemandReporterConfig tunes a DemandReporter.
type DemandReporterConfig = probe.ReporterConfig

// NewDemandReporter builds a reporter.
func NewDemandReporter(cfg DemandReporterConfig) *DemandReporter { return probe.NewReporter(cfg) }

// DeltaBatcher is the client-side debouncer between delta producers
// (probe agents, demand reporters) and a deployment: it coalesces
// added deltas locally (CoalesceDeltas semantics) and posts one batch
// per cadence window — never mid-window — re-queueing batches on
// transient failures so newer values still supersede them.
type DeltaBatcher = probe.Batcher

// DeltaPoster posts one coalesced batch to a deployment; HTTPDeltaPoster
// targets a quorumd deltas endpoint with bounded retry/backoff honoring
// Retry-After, and ManagerDeltaPoster applies in-process.
type DeltaPoster = probe.Poster

// ManagerDeltaPoster applies delta batches straight to an in-process
// Deployment — the no-HTTP path for simulations and embedded use.
type ManagerDeltaPoster = probe.ManagerPoster

// DeltaPostFunc adapts a function to the DeltaPoster interface.
type DeltaPostFunc = probe.PostFunc

// HTTPDeltaPoster posts delta batches to a quorumd deltas endpoint
// with bounded retry and exponential backoff; 429/503 backpressure
// re-coalesces locally instead of hammering a busy apply loop.
type HTTPDeltaPoster = probe.HTTPPoster

// NewDeltaBatcher builds a batcher over the given poster.
func NewDeltaBatcher(p DeltaPoster) *DeltaBatcher { return probe.NewBatcher(p) }

// ScenarioProgress is one point-completion event delivered to
// ScenarioConfig.Progress.
type ScenarioProgress = scenario.Progress

// PartitionScenario enumerates a scenario's point-space for sharded
// execution.
func PartitionScenario(spec *Scenario, cfg ScenarioConfig) (*ScenarioSpace, error) {
	return scenario.NewSpace(spec, cfg)
}

// MergeScenario recombines executed partials into the full table,
// asserting every point of the spec's space appears exactly once.
func MergeScenario(spec *Scenario, cfg ScenarioConfig, partials []*ScenarioPartial) (*ResultTable, error) {
	return scenario.Merge(spec, cfg, partials)
}

// Fleet coordinates sharded scenario execution across worker processes
// over HTTP: it partitions the spec, dispatches shards, retries
// failures on other workers, and merges the results byte-identically
// to a local run. With a FleetRegistry it is elastic: workers join and
// leave mid-run, and a worker that misses heartbeats while holding a
// shard has the shard re-dispatched immediately.
type Fleet = fleet.Coordinator

// FleetConfig tunes a Fleet: its roster (a worker list, pinned for the
// run, or a Registry workers join themselves), shard count, retry
// attempts, backoff, and poll timeouts.
type FleetConfig = fleet.Config

// FleetEvent is one dispatch lifecycle observation (dispatch,
// worker-join, worker-dead, redispatch, backoff, shard-done,
// late-discard, abandon) delivered to FleetConfig.OnEvent.
type FleetEvent = fleet.Event

// NewFleet validates the configuration and builds a coordinator.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// FleetRegistry tracks an elastic fleet's workers: self-registration
// (POST /v1/workers), heartbeats, and liveness expiry after missed
// beats. Mount Handler() next to the coordinator; workers keep a
// registration Lease against it with JoinFleet.
type FleetRegistry = fleet.Registry

// FleetRegistryOptions tunes liveness tracking (heartbeat cadence and
// the missed-beat budget).
type FleetRegistryOptions = fleet.RegistryOptions

// NewFleetRegistry builds a worker registry.
func NewFleetRegistry(opts FleetRegistryOptions) *FleetRegistry { return fleet.NewRegistry(opts) }

// FleetLease keeps one worker registered with a registry: it
// registers, heartbeats at the advertised cadence, and re-registers
// under a fresh id whenever the registry stops recognizing it.
type FleetLease = fleet.Lease

// FleetLeaseOptions tunes a lease's retry cadence and logging.
type FleetLeaseOptions = fleet.LeaseOptions

// JoinFleet starts a lease registering the advertise address (where
// coordinators dispatch shards) with the registry.
func JoinFleet(registryAddr, advertise string, opts FleetLeaseOptions) (*FleetLease, error) {
	return fleet.Join(registryAddr, advertise, opts)
}

// FleetWorker executes shard jobs for coordinators; mount Handler() on
// any http server (quorumbench -fleet-worker does exactly this).
type FleetWorker = fleet.Worker

// FleetWorkerOptions tunes a FleetWorker (long-poll cap, job
// concurrency, logging).
type FleetWorkerOptions = fleet.WorkerOptions

// NewFleetWorker builds a shard-executing worker.
func NewFleetWorker(opts FleetWorkerOptions) *FleetWorker { return fleet.NewWorker(opts) }

// RunJournal is the durable protocol log of one fleet run: a header
// binding the journal to its spec (by hash), then one fsynced record
// per dispatch, completed shard (partial inlined), and the final merge.
// Attach one to FleetConfig.Journal to record; load it after a crash to
// resume with only the missing shards re-dispatched — the merged output
// stays byte-identical to an uninterrupted run.
type RunJournal = runjournal.Run

// RunJournalOptions names the journal's writer and overrides its clock.
type RunJournalOptions = runjournal.Options

// RunJournalState is a loaded journal: spec, settings, shard count,
// recovered partials, epoch, lease owner and freshness, and whether the
// run already merged.
type RunJournalState = runjournal.State

// CreateRunJournal starts a journal for a fresh run (the path must not
// exist).
func CreateRunJournal(path string, spec *Scenario, cfg ScenarioSettings, shards int, opts RunJournalOptions) (*RunJournal, error) {
	return runjournal.Create(path, spec, cfg, shards, opts)
}

// LoadRunJournal reads a journal back, discarding a torn final record
// (the artifact of a crash mid-append) and keeping the first recorded
// result per shard.
func LoadRunJournal(path string) (*RunJournalState, error) { return runjournal.Load(path) }

// ContinueRunJournal reopens a journal at the next epoch, fencing the
// new coordinator's attempts from the dead one's.
func ContinueRunJournal(path string, st *RunJournalState, opts RunJournalOptions) (*RunJournal, error) {
	return runjournal.Continue(path, st, opts)
}

// FleetStandby tails a run journal and takes the run over when the
// primary coordinator's lease goes stale, re-adopting the surviving
// workers and re-dispatching only the shards without a journaled
// result.
type FleetStandby = fleet.Standby

// FleetStandbyOptions tunes a standby: journal path, lease TTL, poll
// cadence, and the takeover coordinator template.
type FleetStandbyOptions = fleet.StandbyOptions

// NewFleetStandby validates the options.
func NewFleetStandby(opts FleetStandbyOptions) (*FleetStandby, error) {
	return fleet.NewStandby(opts)
}

// Experiment regenerates one of the paper's figures.
type Experiment = experiments.Experiment

// ExperimentParams scales the experiment harness.
type ExperimentParams = experiments.Params

// ResultTable is a regenerated figure.
type ResultTable = experiments.Table

// Experiments lists every figure runner in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up a figure runner ("fig6.3", "fig8.9", …).
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// DefaultExperimentParams mirrors the paper's configuration.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }
