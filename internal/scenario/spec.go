// Package scenario is the declarative layer over the planner pipeline: a
// Spec names a topology source, quorum-system axes, a placement
// algorithm, demand and strategy axes, capacity sweeps, fault
// injections, protocol-simulation grids, or delta timelines — and the
// engine validates the spec, expands its axes into plan points, and
// executes them in parallel (package par), producing a Table.
//
// Every figure of the paper is a Spec (Figures), the built-in workload
// library (regional outage, diurnal demand shift, RTT drift, site churn,
// flash crowd, heterogeneous demand) is a set of Specs, and
// cmd/quorumbench loads further Specs from JSON files; all of them run
// through Run or its sharded form.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Kind selects the execution shape of a scenario.
type Kind string

// Scenario kinds.
const (
	// KindEval evaluates each (system, demand, strategy, measure) cell of
	// the axis product on a fixed placement per system.
	KindEval Kind = "eval"
	// KindSweep runs capacity sweeps with LP-optimized strategies per
	// system (§7).
	KindSweep Kind = "sweep"
	// KindIterate runs the §4.2 iterative algorithm across a capacity
	// sweep against the one-to-one baseline.
	KindIterate Kind = "iterate"
	// KindProtocol runs the §3 Q/U discrete-event simulations over a
	// (faults t × clients) grid.
	KindProtocol Kind = "protocol"
	// KindTimeline drives a plan.Planner through a sequence of deltas,
	// re-planning incrementally after each step.
	KindTimeline Kind = "timeline"
)

// Spec declares a scenario. Zero-valued optional fields take documented
// defaults; Validate reports anything inconsistent before execution.
type Spec struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	Kind  Kind   `json:"kind"`
	// Notes are printed under the table.
	Notes []string `json:"notes,omitempty"`
	// Columns overrides the derived column names (the count must match).
	Columns []string `json:"columns,omitempty"`

	Topology TopologySpec `json:"topology"`
	// Systems are the quorum-system axes, expanded in order into the
	// row-major system sequence.
	Systems []SystemAxis `json:"systems,omitempty"`
	// Placement selects the placement algorithm (default one-to-one).
	Placement PlacementSpec `json:"placement,omitempty"`

	// RowColumns picks the identifying prefix cells of each row, from
	// "system", "param", "universe" (eval kind), "universe", "capacity"
	// (sweep), or "t", "universe", "clients" (protocol); unset, all of
	// them in that order. Iterate and timeline rows have fixed columns
	// and take none.
	RowColumns []string `json:"row_columns,omitempty"`
	// Demands lists client demand values (requests); alpha is
	// OpServiceTimeMS × demand, 0 evaluating pure network delay.
	Demands []float64 `json:"demands,omitempty"`
	// Strategies lists access strategies: "closest", "balanced", "lp".
	Strategies []string `json:"strategies,omitempty"`
	// Measures lists the evaluated quantities per (demand, strategy):
	// "response", "net", "maxload".
	Measures []string `json:"measures,omitempty"`
	// UniformCapacity is the per-site capacity the "lp" strategy solves
	// under in eval scenarios (default 1).
	UniformCapacity float64 `json:"uniform_capacity,omitempty"`
	// Faults injects failures/slowdowns before evaluation (eval kind).
	Faults *FaultSpec `json:"faults,omitempty"`

	// Seeds is the seed axis: the whole study repeats over one generated
	// topology per seed, each seed a separate partition-able sub-space of
	// the point-space, and every row gains a leading "seed" column. Seed
	// values pass to the topology source verbatim (so they need a
	// seed-consuming source — anything but "file") and exclude the
	// per-scenario topology.seed override.
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale multiplies study axes in place, so the ~100x parameter
	// studies sharding was built for live in one spec file instead of N
	// hand-edited copies.
	Scale *ScaleSpec `json:"scale,omitempty"`

	Sweep    *SweepSpec    `json:"sweep,omitempty"`
	Iterate  *IterateSpec  `json:"iterate,omitempty"`
	Protocol *ProtocolSpec `json:"protocol,omitempty"`
	Timeline []Step        `json:"timeline,omitempty"`
	// CompareUnreplanned (timeline kind) appends an "unreplanned_ms"
	// column: each step also evaluates the deployment that did NOT
	// re-plan — site-removal steps are replayed as failures against the
	// previous snapshot via internal/faults, demand/capacity/weight
	// steps evaluate the previous artifacts under the new conditions —
	// so the table shows the response-time value of re-planning side by
	// side. Steps with no previous-topology counterpart (scale_rtt,
	// add_sites) render "-"; a failure no quorum survives renders
	// "down".
	CompareUnreplanned bool `json:"compare_unreplanned,omitempty"`
}

// TopologySpec names the WAN the scenario runs on.
type TopologySpec struct {
	// Source is "planetlab50", "daxlist161", "file" (Path, quorumnet text
	// format), or "synth" (Synth config).
	Source string `json:"source"`
	// Seed overrides the run seed for synthesis (0 = RunConfig.Seed).
	Seed int64  `json:"seed,omitempty"`
	Path string `json:"path,omitempty"`
	// Synth parameterizes the "synth" source.
	Synth *topology.GenConfig `json:"synth,omitempty"`
}

// SystemAxis expands into a sequence of concrete quorum systems: either
// the explicit Params, or every parameter whose universe fits under
// MaxUniverse (0 = topology size − 1), stepping by Step.
type SystemAxis struct {
	// Family is one of "majority", "bmajority", "qumajority", "grid",
	// "singleton" (see plan.SystemSpec).
	Family string `json:"family"`
	Params []int  `json:"params,omitempty"`
	// MaxUniverse bounds auto-expansion (0 = topology size − 1).
	MaxUniverse int `json:"max_universe,omitempty"`
	// Step strides auto-expansion (0/1 = every parameter).
	Step int `json:"step,omitempty"`
}

// DisplayName is the family label used in "system" row cells.
func (a SystemAxis) DisplayName() string {
	switch a.Family {
	case "majority":
		return "majority(t+1,2t+1)"
	case "bmajority":
		return "majority(2t+1,3t+1)"
	case "qumajority":
		return "majority(4t+1,5t+1)"
	default:
		return a.Family
	}
}

// expand yields the concrete system specs of the axis given the topology
// size.
func (a SystemAxis) expand(topoSize int) []plan.SystemSpec {
	if a.Family == "singleton" {
		return []plan.SystemSpec{{Family: "singleton"}}
	}
	if len(a.Params) > 0 {
		out := make([]plan.SystemSpec, len(a.Params))
		for i, p := range a.Params {
			out[i] = plan.SystemSpec{Family: a.Family, Param: p}
		}
		return out
	}
	bound := a.MaxUniverse
	if bound <= 0 {
		bound = topoSize - 1
	}
	step := a.Step
	if step <= 0 {
		step = 1
	}
	universeOf := func(p int) int {
		switch a.Family {
		case "majority":
			return 2*p + 1
		case "bmajority":
			return 3*p + 1
		case "qumajority":
			return 5*p + 1
		case "grid":
			return p * p
		default:
			return bound + 1 // unknown families expand to nothing
		}
	}
	start := 1
	if a.Family == "grid" {
		start = 2
	}
	var out []plan.SystemSpec
	for p := start; universeOf(p) <= bound; p += step {
		out = append(out, plan.SystemSpec{Family: a.Family, Param: p})
	}
	return out
}

// ScaleSpec multiplies study axes. Scaling happens once, when the
// point-space is enumerated, so every shard of a fleet derives the
// identical scaled study and merge stays byte-identical to an unsharded
// run of the same spec.
type ScaleSpec struct {
	// Sites multiplies every synthetic region's site count — or, in AS
	// mode, the AS count — rounded up. Requires the "synth" topology
	// source; the measured topologies have a fixed roster.
	Sites float64 `json:"sites,omitempty"`
	// Clients multiplies every demand-bearing knob: Demands, the sweep
	// and iterate demand, protocol clients per site (rounded up, at
	// least 1), and timeline demand steps.
	Clients float64 `json:"clients,omitempty"`
}

// seeded reports whether the spec carries an explicit seed axis.
func (s *Spec) seeded() bool { return len(s.Seeds) > 0 }

// effective returns the spec the engine actually enumerates and
// executes: the Scale multipliers folded into the axes they scale. It
// is a pure function of the spec, so partitioning, execution, and
// merging — on any process — derive the same scaled study.
func (s *Spec) effective() *Spec {
	if s.Scale == nil {
		return s
	}
	c := *s
	sc := *s.Scale
	c.Scale = nil
	if k := sc.Sites; k > 0 && c.Topology.Synth != nil {
		synth := *c.Topology.Synth
		synth.Regions = append([]topology.RegionSpec(nil), synth.Regions...)
		for i := range synth.Regions {
			synth.Regions[i].Count = int(math.Ceil(float64(synth.Regions[i].Count) * k))
		}
		if synth.AS != nil {
			as := *synth.AS
			as.Sites = int(math.Ceil(float64(as.Sites) * k))
			synth.AS = &as
		}
		c.Topology.Synth = &synth
	}
	if k := sc.Clients; k > 0 {
		if len(c.Demands) > 0 {
			d := make([]float64, len(c.Demands))
			for i, v := range c.Demands {
				d[i] = v * k
			}
			c.Demands = d
		}
		if c.Sweep != nil {
			sw := *c.Sweep
			sw.Demand *= k
			c.Sweep = &sw
		}
		if c.Iterate != nil {
			it := *c.Iterate
			it.Demand *= k
			c.Iterate = &it
		}
		if c.Protocol != nil {
			ps := *c.Protocol
			per := make([]int, len(ps.PerSite))
			for i, v := range ps.PerSite {
				per[i] = int(math.Ceil(float64(v) * k))
				if per[i] < 1 {
					per[i] = 1
				}
			}
			ps.PerSite = per
			c.Protocol = &ps
		}
		if len(c.Timeline) > 0 {
			steps := append([]Step(nil), c.Timeline...)
			for i := range steps {
				if steps[i].Demand != nil {
					v := *steps[i].Demand * k
					steps[i].Demand = &v
				}
			}
			c.Timeline = steps
		}
	}
	return &c
}

// PlacementSpec selects the placement construction.
type PlacementSpec struct {
	// Algorithm is "one-to-one" (default), "singleton", or "many-to-one".
	Algorithm string `json:"algorithm,omitempty"`
}

func (p PlacementSpec) algorithm() plan.Algorithm {
	if p.Algorithm == "" {
		return plan.AlgoOneToOne
	}
	return plan.Algorithm(p.Algorithm)
}

// SweepSpec parameterizes capacity sweeps (7.7).
type SweepSpec struct {
	// Points is the sweep resolution (the paper uses 10).
	Points int `json:"points"`
	// Demand sets alpha for the response-time measure.
	Demand float64 `json:"demand"`
	// Variants lists the capacity assignments swept: "uniform" and/or
	// "nonuniform" (default uniform only).
	Variants []string `json:"variants,omitempty"`
}

func (s *SweepSpec) variants() []string {
	if len(s.Variants) == 0 {
		return []string{"uniform"}
	}
	return s.Variants
}

// IterateSpec parameterizes the §4.2 iterative-algorithm sweep.
type IterateSpec struct {
	Points int     `json:"points"`
	Demand float64 `json:"demand,omitempty"`
	// MaxIterations bounds the iterative loop (default 2, as Figure 8.9
	// reports the first two iterations).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Candidates restricts anchor nodes (quick runs).
	Candidates []int `json:"candidates,omitempty"`
}

// ProtocolSpec parameterizes the §3 Q/U simulations. Systems axes are
// ignored: the protocol experiment is defined over the (4t+1, 5t+1)
// majority family.
type ProtocolSpec struct {
	// Ts lists the fault thresholds t (universe 5t+1).
	Ts []int `json:"ts"`
	// PerSite lists clients-per-client-site counts.
	PerSite []int `json:"per_site"`
	// ClientSites is the number of representative client locations
	// (default 10).
	ClientSites int `json:"client_sites,omitempty"`
	// ServiceTimeMS is per-request server processing time (default 1).
	ServiceTimeMS float64 `json:"service_time_ms,omitempty"`
	// LinkTxMS is the per-message access-link serialization time
	// (default 0.8).
	LinkTxMS float64 `json:"link_tx_ms,omitempty"`
}

func (p *ProtocolSpec) clientSites() int {
	if p.ClientSites <= 0 {
		return 10
	}
	return p.ClientSites
}

func (p *ProtocolSpec) serviceTime() float64 {
	if p.ServiceTimeMS <= 0 {
		return 1
	}
	return p.ServiceTimeMS
}

func (p *ProtocolSpec) linkTx() float64 {
	if p.LinkTxMS <= 0 {
		return 0.8
	}
	return p.LinkTxMS
}

// FaultSpec injects failures and slowdowns before evaluation. Slowdowns
// apply first (the metric re-closes around degraded nodes), then crash
// failures restrict the surviving system; when no quorum survives, the
// affected measures render as "down".
type FaultSpec struct {
	// WorstCase fails the f worst-case support nodes (most elements
	// hosted, closest to clients).
	WorstCase int `json:"worst_case,omitempty"`
	// Sites fails the named sites.
	Sites []string `json:"sites,omitempty"`
	// Region fails every site of the region.
	Region string `json:"region,omitempty"`
	// SlowFactor multiplies delays through SlowSites/SlowRegion (> 1).
	SlowFactor float64  `json:"slow_factor,omitempty"`
	SlowSites  []string `json:"slow_sites,omitempty"`
	SlowRegion string   `json:"slow_region,omitempty"`
}

func (f *FaultSpec) empty() bool {
	return f == nil || (f.WorstCase == 0 && len(f.Sites) == 0 && f.Region == "" &&
		f.SlowFactor == 0 && len(f.SlowSites) == 0 && f.SlowRegion == "")
}

// Step is one timeline entry: every set field is applied as a delta to
// the planner, then the scenario re-plans once and records the outcome —
// so a step models one atomic world change (an outage takes several
// sites at once).
type Step struct {
	Label string `json:"label"`
	// Demand re-targets the per-client demand.
	Demand *float64 `json:"demand,omitempty"`
	// UniformCapacity re-targets every site's capacity.
	UniformCapacity *float64 `json:"uniform_capacity,omitempty"`
	// SiteCapacity re-targets named sites' capacities.
	SiteCapacity map[string]float64 `json:"site_capacity,omitempty"`
	// ScaleRTT multiplies raw RTTs (drift, congestion, relief).
	ScaleRTT *ScaleRTTStep `json:"scale_rtt,omitempty"`
	// RemoveSites / RemoveRegion decommission sites (outage, churn).
	RemoveSites  []string `json:"remove_sites,omitempty"`
	RemoveRegion string   `json:"remove_region,omitempty"`
	// AddSites splices new sites in with synthesized RTTs (churn).
	AddSites []NewSiteStep `json:"add_sites,omitempty"`
	// Weights re-targets per-site client demand weights (flash crowds,
	// heterogeneous demand).
	Weights *WeightsStep `json:"weights,omitempty"`
}

// hasDelta reports whether the step changes anything; Validate rejects
// empty steps (a misspelled delta key is caught by the JSON decoder, a
// structurally empty step here).
func (s Step) hasDelta() bool {
	return s.Demand != nil || s.UniformCapacity != nil || len(s.SiteCapacity) > 0 ||
		s.ScaleRTT != nil || len(s.RemoveSites) > 0 || s.RemoveRegion != "" ||
		len(s.AddSites) > 0 || s.Weights != nil
}

// WeightsStep assigns relative demand weights to the sites: every site
// starts at Default (0 = 1), region entries override it, and site
// entries override both. Uniform restores uniform demand instead.
type WeightsStep struct {
	Uniform bool               `json:"uniform,omitempty"`
	Default float64            `json:"default,omitempty"`
	Regions map[string]float64 `json:"regions,omitempty"`
	Sites   map[string]float64 `json:"sites,omitempty"`
}

// ScaleRTTStep multiplies the raw RTT of links by Factor; when Region is
// set, only links with at least one endpoint in that region.
type ScaleRTTStep struct {
	Factor float64 `json:"factor"`
	Region string  `json:"region,omitempty"`
}

// NewSiteStep describes a site to splice into the topology. RTTs to the
// existing sites are synthesized from coordinates with
// topology.EstimateRTT.
type NewSiteStep struct {
	Name     string  `json:"name"`
	Region   string  `json:"region,omitempty"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	AccessMS float64 `json:"access_ms,omitempty"`
	Capacity float64 `json:"capacity,omitempty"`
}

// Load reads and validates a JSON scenario spec. Specs whose name
// collides with a built-in library scenario are rejected — quorumbench
// resolves names against the library first, so a colliding file could
// never be addressed unambiguously.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if IsLibraryName(s.Name) {
		return nil, fmt.Errorf("scenario: spec name %q collides with a built-in library scenario", s.Name)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

var validStrategies = map[string]bool{"closest": true, "balanced": true, "lp": true}
var validMeasures = map[string]bool{"response": true, "net": true, "maxload": true}

// Validate checks the spec for structural problems before execution.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	switch s.Topology.Source {
	case "planetlab50", "daxlist161":
	case "file":
		if s.Topology.Path == "" {
			return fail("topology source \"file\" needs a path")
		}
	case "synth":
		if s.Topology.Synth == nil {
			return fail("topology source \"synth\" needs a synth config")
		}
	case "":
		return fail("topology source missing")
	default:
		return fail("unknown topology source %q", s.Topology.Source)
	}
	switch s.Placement.algorithm() {
	case plan.AlgoOneToOne, plan.AlgoSingleton, plan.AlgoManyToOne:
	default:
		return fail("unknown placement algorithm %q", s.Placement.Algorithm)
	}
	for _, a := range s.Systems {
		switch a.Family {
		case "majority", "bmajority", "qumajority", "grid", "singleton":
		default:
			return fail("unknown system family %q", a.Family)
		}
	}
	if s.seeded() {
		if s.Topology.Source == "file" {
			return fail("seeds axis needs a seed-consuming topology source, not \"file\"")
		}
		if s.Topology.Seed != 0 {
			return fail("seeds axis and topology.seed are exclusive")
		}
		seen := map[int64]bool{}
		for _, seed := range s.Seeds {
			if seed == 0 {
				return fail("seed 0 means \"inherit the run seed\" elsewhere; use an explicit non-zero seed")
			}
			if seen[seed] {
				return fail("seed %d appears twice in the seeds axis", seed)
			}
			seen[seed] = true
		}
	}
	if sc := s.Scale; sc != nil {
		if sc.Sites == 0 && sc.Clients == 0 {
			return fail("scale multiplies nothing (set sites and/or clients)")
		}
		if sc.Sites < 0 || math.IsNaN(sc.Sites) || math.IsInf(sc.Sites, 0) {
			return fail("invalid scale.sites %v", sc.Sites)
		}
		if sc.Clients < 0 || math.IsNaN(sc.Clients) || math.IsInf(sc.Clients, 0) {
			return fail("invalid scale.clients %v", sc.Clients)
		}
		if sc.Sites > 0 && s.Topology.Source != "synth" {
			return fail("scale.sites multiplies synthetic region counts; topology source is %q", s.Topology.Source)
		}
	}
	for _, st := range s.Strategies {
		if !validStrategies[st] {
			return fail("unknown strategy %q", st)
		}
	}
	for _, m := range s.Measures {
		if !validMeasures[m] {
			return fail("unknown measure %q", m)
		}
	}

	switch s.Kind {
	case KindEval:
		if len(s.Systems) == 0 {
			return fail("eval scenario needs at least one system axis")
		}
		if len(s.Demands) == 0 || len(s.Strategies) == 0 || len(s.Measures) == 0 {
			return fail("eval scenario needs demands, strategies, and measures")
		}
	case KindSweep:
		if s.Sweep == nil || s.Sweep.Points <= 0 {
			return fail("sweep scenario needs sweep.points > 0")
		}
		if len(s.Systems) == 0 {
			return fail("sweep scenario needs at least one system axis")
		}
		for _, v := range s.Sweep.variants() {
			if v != "uniform" && v != "nonuniform" {
				return fail("unknown sweep variant %q", v)
			}
		}
	case KindIterate:
		if s.Iterate == nil || s.Iterate.Points <= 0 {
			return fail("iterate scenario needs iterate.points > 0")
		}
		if len(s.Systems) == 0 {
			return fail("iterate scenario needs a system axis")
		}
	case KindProtocol:
		if s.Protocol == nil || len(s.Protocol.Ts) == 0 || len(s.Protocol.PerSite) == 0 {
			return fail("protocol scenario needs protocol.ts and protocol.per_site")
		}
	case KindTimeline:
		if len(s.Timeline) == 0 {
			return fail("timeline scenario needs steps")
		}
		if len(s.Systems) == 0 {
			return fail("timeline scenario needs a system axis")
		}
		// A timeline drives one planner; axes that only make sense as
		// cross products would be silently ignored.
		if len(s.Strategies) > 1 {
			return fail("timeline scenario takes at most one strategy, got %d", len(s.Strategies))
		}
		if len(s.Demands) > 1 {
			return fail("timeline scenario takes at most one starting demand, got %d (change demand with steps)", len(s.Demands))
		}
		if len(s.Measures) > 0 {
			return fail("timeline scenario reports fixed measures; drop the measures field")
		}
		for i, st := range s.Timeline {
			if st.Label == "" {
				return fail("timeline step %d needs a label", i)
			}
			if !st.hasDelta() {
				return fail("timeline step %q has no deltas", st.Label)
			}
			if st.ScaleRTT != nil && st.ScaleRTT.Factor <= 0 {
				return fail("timeline step %q: scale_rtt factor must be positive", st.Label)
			}
			if w := st.Weights; w != nil {
				if w.Uniform && (w.Default != 0 || len(w.Regions) > 0 || len(w.Sites) > 0) {
					return fail("timeline step %q: uniform weights exclude default/regions/sites", st.Label)
				}
				if !w.Uniform && w.Default == 0 && len(w.Regions) == 0 && len(w.Sites) == 0 {
					return fail("timeline step %q: weights step assigns nothing", st.Label)
				}
				if w.Default < 0 || math.IsNaN(w.Default) || math.IsInf(w.Default, 0) {
					return fail("timeline step %q: invalid default weight %v", st.Label, w.Default)
				}
				for name, v := range w.Regions {
					if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						return fail("timeline step %q: invalid weight %v for region %q", st.Label, v, name)
					}
				}
				for name, v := range w.Sites {
					if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						return fail("timeline step %q: invalid weight %v for site %q", st.Label, v, name)
					}
				}
			}
		}
	case "":
		return fail("kind missing")
	default:
		return fail("unknown kind %q", s.Kind)
	}
	if s.CompareUnreplanned && s.Kind != KindTimeline {
		return fail("compare_unreplanned only applies to timeline scenarios")
	}
	allowed := rowColumns[s.Kind]
	for _, rc := range s.RowColumns {
		if allowed == nil {
			return fail("%s scenario rows have fixed columns; drop row_columns", s.Kind)
		}
		if !slices.Contains(allowed, rc) {
			return fail("unknown row column %q for %s scenario (want %s)", rc, s.Kind, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// rowColumns lists the row columns each kind takes, in their default
// order.
var rowColumns = map[Kind][]string{
	KindEval:     {"system", "param", "universe"},
	KindSweep:    {"universe", "capacity"},
	KindProtocol: {"t", "universe", "clients"},
}

// rowColumns returns the spec's row columns, or its kind's default.
func (s *Spec) rowColumns() []string {
	if s.RowColumns == nil {
		return rowColumns[s.Kind]
	}
	return s.RowColumns
}
