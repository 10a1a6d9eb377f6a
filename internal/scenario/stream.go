package scenario

import (
	"fmt"
	"sort"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// StreamStep is one timeline step exported as a replayable delta batch:
// the deltas a live deployment must apply to undergo the same world
// change the scenario engine applies to its planner — the engine takes
// each step through the same advanceStep.
type StreamStep struct {
	// Label is the timeline step's label.
	Label string `json:"label"`
	// Deltas is the step's batch, in compileStep's order. Applying it to
	// a deployment seeded with TimelinePlanner reproduces the engine's
	// planner state after the step.
	Deltas []deploy.Delta `json:"deltas"`
}

// TimelinePlanner builds the planner a timeline scenario starts from —
// runTimelineRows gets its own from the same timelinePlanner — so a
// live deployment (deploy.New around it) begins in the same state the
// table's "initial" row reports.
func TimelinePlanner(spec *Spec, cfg RunConfig) (*plan.Planner, error) {
	if spec.Kind != KindTimeline {
		return nil, fmt.Errorf("scenario %q: not a timeline scenario", spec.Name)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eff := spec.effective()
	topo, err := buildTopology(eff.Topology, cfg)
	if err != nil {
		return nil, err
	}
	systems := expandSystems(eff.Systems, topo.Size())
	if len(systems) == 0 {
		return nil, fmt.Errorf("scenario %q: system axis expands to nothing", spec.Name)
	}
	return timelinePlanner(eff, cfg, topo, systems[0])
}

// timelinePlanner is the one place a timeline's starting planner is
// configured: the first system, strategy and demand of the (effective)
// spec, on the given topology.
func timelinePlanner(spec *Spec, cfg RunConfig, topo *topology.Topology, system systemPoint) (*plan.Planner, error) {
	strat := plan.StratClosest
	if len(spec.Strategies) > 0 {
		strat = plan.StrategyKind(spec.Strategies[0])
	}
	demand := 0.0
	if len(spec.Demands) > 0 {
		demand = spec.Demands[0]
	}
	return plan.New(topo, plan.Config{
		System:       system.spec,
		Algorithm:    spec.Placement.algorithm(),
		Strategy:     strat,
		Demand:       demand,
		Reproducible: cfg.Reproducible,
	})
}

// TimelineStream exports a timeline scenario's steps as delta batches —
// the bridge between the scenario engine (which mutates a local planner
// in-process) and a live deployment (which consumes deploy.Delta
// batches over the wire). Feeding each step's batch through
// deploy.Manager.Apply against a TimelinePlanner deployment drives it
// through the same states the engine's table records, because the
// engine applies the very same deltas and value-producing steps
// (scale_rtt) are resolved against a tracking replica of the planner.
func TimelineStream(spec *Spec, cfg RunConfig) ([]StreamStep, error) {
	replica, err := TimelinePlanner(spec, cfg)
	if err != nil {
		return nil, err
	}
	eff := spec.effective()
	out := make([]StreamStep, 0, len(eff.Timeline))
	for _, step := range eff.Timeline {
		// Advancing the replica lets the next step's value-producing
		// deltas see the post-step world.
		deltas, err := advanceStep(replica, step)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: step %q: %w", spec.Name, step.Label, err)
		}
		out = append(out, StreamStep{Label: step.Label, Deltas: deltas})
	}
	return out, nil
}

// advanceStep takes the planner through one step — compile it, then
// apply each delta the way a deployment does — and returns the deltas.
func advanceStep(p *plan.Planner, step Step) ([]deploy.Delta, error) {
	deltas, err := compileStep(p, step)
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if err := d.ApplyTo(p); err != nil {
			return nil, err
		}
	}
	return deltas, nil
}

// compileStep lowers one Step into deltas — the one interpretation of a
// timeline step, shared by the engine's table and the exported stream —
// in field order: demand, uniform capacity, per-site capacities
// (sorted), weights, RTT scaling (pair loop), additions, removals,
// region removal. The planner supplies current RTTs (scale_rtt emits
// absolute values — the wire protocol has no relative deltas) and the
// site roster for weights and region expansion; it is read, not
// mutated.
func compileStep(p *plan.Planner, step Step) ([]deploy.Delta, error) {
	var out []deploy.Delta
	if step.Demand != nil {
		out = append(out, deploy.Delta{Kind: deploy.KindDemand, Value: *step.Demand})
	}
	if step.UniformCapacity != nil {
		out = append(out, deploy.Delta{Kind: deploy.KindUniformCapacity, Value: *step.UniformCapacity})
	}
	if len(step.SiteCapacity) > 0 {
		names := make([]string, 0, len(step.SiteCapacity))
		for name := range step.SiteCapacity {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if p.SiteIndex(name) < 0 {
				return nil, fmt.Errorf("no site named %q", name)
			}
			out = append(out, deploy.Delta{Kind: deploy.KindCapacity, Site: name, Value: step.SiteCapacity[name]})
		}
	}
	if step.Weights != nil {
		w, err := compileWeights(p, step.Weights)
		if err != nil {
			return nil, err
		}
		out = append(out, deploy.Delta{Kind: deploy.KindWeights, Weights: w})
	}
	if step.ScaleRTT != nil {
		factor, region := step.ScaleRTT.Factor, step.ScaleRTT.Region
		hit := false
		n := p.Size()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if region != "" && p.Site(u).Region != region && p.Site(v).Region != region {
					continue
				}
				hit = true
				out = append(out, deploy.Delta{
					Kind:  deploy.KindRTT,
					A:     p.Site(u).Name,
					B:     p.Site(v).Name,
					Value: p.RTT(u, v) * factor,
				})
			}
		}
		if !hit {
			return nil, fmt.Errorf("scale_rtt matched no links (region %q)", region)
		}
	}
	for _, ns := range step.AddSites {
		out = append(out, deploy.Delta{
			Kind:     deploy.KindAddSite,
			Site:     ns.Name,
			Region:   ns.Region,
			Lat:      ns.Lat,
			Lon:      ns.Lon,
			AccessMS: ns.AccessMS,
			Value:    ns.Capacity,
		})
	}
	for _, name := range step.RemoveSites {
		out = append(out, deploy.Delta{Kind: deploy.KindRemoveSite, Site: name})
	}
	if step.RemoveRegion != "" {
		found := false
		for i := 0; i < p.Size(); i++ {
			if p.Site(i).Region == step.RemoveRegion {
				out = append(out, deploy.Delta{Kind: deploy.KindRemoveSite, Site: p.Site(i).Name})
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no sites in region %q", step.RemoveRegion)
		}
	}
	return out, nil
}

// compileWeights materializes a weights step into the per-site weight
// map of a weights delta: Default (0 = 1) everywhere, region entries
// override it, site entries override both, and every named region and
// site must exist; Uniform compiles to the empty map (the wire encoding
// of "restore uniform demand").
func compileWeights(p *plan.Planner, ws *WeightsStep) (map[string]float64, error) {
	if ws.Uniform {
		return map[string]float64{}, nil
	}
	def := ws.Default
	if def == 0 {
		def = 1
	}
	w := make(map[string]float64, p.Size())
	regionHit := make(map[string]bool, len(ws.Regions))
	siteHit := make(map[string]bool, len(ws.Sites))
	for i := 0; i < p.Size(); i++ {
		site := p.Site(i)
		v := def
		if rw, ok := ws.Regions[site.Region]; ok {
			v = rw
			regionHit[site.Region] = true
		}
		if sw, ok := ws.Sites[site.Name]; ok {
			v = sw
			siteHit[site.Name] = true
		}
		w[site.Name] = v
	}
	for name := range ws.Regions {
		if !regionHit[name] {
			return nil, fmt.Errorf("weights step: no sites in region %q", name)
		}
	}
	for name := range ws.Sites {
		if !siteHit[name] {
			return nil, fmt.Errorf("weights step: no site named %q", name)
		}
	}
	return w, nil
}
