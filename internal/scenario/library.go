package scenario

import (
	"fmt"

	"github.com/quorumnet/quorumnet/internal/topology"
)

func fp(v float64) *float64 { return &v }

// Library returns the built-in workload scenarios: the wide-area
// conditions a deployed quorum system re-plans around, plus the
// multi-seed scaled parameter study the sharded fleet was built for.
// Run them with Run or through `quorumbench -scenario <name>`.
func Library() []Spec {
	return []Spec{
		RegionalOutage(),
		DiurnalDemand(),
		RTTDrift(),
		SiteChurn(),
		FlashCrowd(),
		HeterogeneousDemand(),
		CorrelatedFailure(),
		SeedScaleStudy(),
		ScaleFrontier(),
		ScaleFrontierStrategy(),
	}
}

// LibraryByName finds a built-in scenario.
func LibraryByName(name string) (*Spec, error) {
	for _, s := range Library() {
		if s.Name == name {
			return &s, nil
		}
	}
	return nil, fmt.Errorf("scenario: no built-in scenario %q", name)
}

// IsLibraryName reports whether a name is taken by a built-in scenario;
// Load rejects spec files that collide.
func IsLibraryName(name string) bool {
	_, err := LibraryByName(name)
	return err == nil
}

// RegionalOutage loses all European sites at once, absorbs a demand
// spike while running on the survivors, then recovers partially through
// three replacement sites. The placement stage re-runs on every
// membership change; the planner re-places the grid on the surviving
// WAN.
func RegionalOutage() Spec {
	return Spec{
		Name:  "regional-outage",
		Title: "5x5 Grid on PlanetLab-50, LP strategies: losing and rebuilding a region",
		Kind:  KindTimeline,
		Notes: []string{
			"eu-outage removes every 'europe' site: the planner re-places the grid on the survivors",
			"demand-spike is an evaluation-only re-plan; recovery re-places onto the new sites",
			"unreplanned_ms evaluates the deployment that kept its pre-outage plan (faults.Unreplanned)",
		},
		Topology:           TopologySpec{Source: "planetlab50"},
		Systems:            []SystemAxis{{Family: "grid", Params: []int{5}}},
		Strategies:         []string{"lp"},
		Demands:            []float64{8000},
		CompareUnreplanned: true,
		Timeline: []Step{
			{Label: "eu-outage", RemoveRegion: "europe"},
			{Label: "demand-spike", Demand: fp(16000)},
			{Label: "eu-recovery", AddSites: []NewSiteStep{
				{Name: "eu-new-frankfurt", Region: "europe", Lat: 50.11, Lon: 8.68, AccessMS: 2},
				{Name: "eu-new-paris", Region: "europe", Lat: 48.86, Lon: 2.35, AccessMS: 2},
				{Name: "eu-new-london", Region: "europe", Lat: 51.51, Lon: -0.13, AccessMS: 2},
			}},
			{Label: "demand-normal", Demand: fp(8000)},
		},
	}
}

// DiurnalDemand follows a day of load on a fixed deployment. Every step
// is a demand-only delta, so each re-plan re-runs just the evaluation
// stage — the LP strategy and placement are reused untouched.
func DiurnalDemand() Spec {
	return Spec{
		Name:  "diurnal-demand",
		Title: "5x5 Grid on PlanetLab-50, LP strategies: a day of demand",
		Kind:  KindTimeline,
		Notes: []string{
			"demand-only deltas re-plan in the evaluation stage alone (replanned column: eval)",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{5}}},
		Strategies: []string{"lp"},
		Demands:    []float64{1000},
		Timeline: []Step{
			{Label: "morning", Demand: fp(4000)},
			{Label: "midday-peak", Demand: fp(16000)},
			{Label: "evening", Demand: fp(8000)},
			{Label: "night", Demand: fp(1000)},
		},
	}
}

// RTTDrift models transatlantic congestion: delays through Europe
// inflate, worsen, then mostly relax. RTT deltas re-close the metric and
// re-run placement, strategy, and evaluation.
func RTTDrift() Spec {
	return Spec{
		Name:  "rtt-drift",
		Title: "4x4 Grid on PlanetLab-50, LP strategies: congestion on European links",
		Kind:  KindTimeline,
		Notes: []string{
			"each drift step scales the raw RTT of every link touching 'europe' and re-plans end to end",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{4}}},
		Strategies: []string{"lp"},
		Demands:    []float64{8000},
		Timeline: []Step{
			{Label: "congestion-onset", ScaleRTT: &ScaleRTTStep{Factor: 1.3, Region: "europe"}},
			{Label: "congestion-peak", ScaleRTT: &ScaleRTTStep{Factor: 1.25, Region: "europe"}},
			{Label: "partial-relief", ScaleRTT: &ScaleRTTStep{Factor: 0.7, Region: "europe"}},
		},
	}
}

// FlashCrowd follows a regional demand spike: European clients surge to
// many times their share of the traffic, peak, and recede. Every step is
// a weights-only delta (SetClientWeights), so each re-plan rebuilds the
// strategy LP for the new demand mix while the placement stays put —
// the LP shifts quorum mass toward the crowded region.
func FlashCrowd() Spec {
	return Spec{
		Name:  "flash-crowd",
		Title: "4x4 Grid on PlanetLab-50, LP strategies: a European flash crowd",
		Kind:  KindTimeline,
		Notes: []string{
			"weights deltas rebuild the strategy LP (replanned column: strategy,eval); the placement never moves",
			"unlisted regions keep weight 1: a region entry scales that region's share of total demand",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{4}}},
		Strategies: []string{"lp"},
		Demands:    []float64{8000},
		Timeline: []Step{
			{Label: "crowd-onset", Weights: &WeightsStep{Regions: map[string]float64{"europe": 4}}},
			{Label: "crowd-peak", Weights: &WeightsStep{Regions: map[string]float64{"europe": 12}}},
			{Label: "crowd-decay", Weights: &WeightsStep{Regions: map[string]float64{"europe": 2}}},
			{Label: "back-to-uniform", Weights: &WeightsStep{Uniform: true}},
		},
	}
}

// HeterogeneousDemand models a deployment whose clients never were
// uniform: metro sites carry most of the traffic, remote regions a
// trickle. The initial skew arrives as a weights delta, deepens, and a
// demand spike rides on top of it — demonstrating that weight and
// demand deltas compose (the former rebuilds the strategy LP, the
// latter re-runs only the evaluation).
func HeterogeneousDemand() Spec {
	return Spec{
		Name:  "heterogeneous-demand",
		Title: "3x3 Grid on PlanetLab-50, LP strategies: metro-heavy client demand",
		Kind:  KindTimeline,
		Notes: []string{
			"site entries override region entries; the default weight covers everything else",
			"the demand-spike step is evaluation-only even under skewed weights",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
		Strategies: []string{"lp"},
		Demands:    []float64{4000},
		Timeline: []Step{
			{Label: "metro-skew", Weights: &WeightsStep{
				Regions: map[string]float64{"na-east": 3, "europe": 3},
				Sites:   map[string]float64{"na-east-00": 8, "europe-00": 8},
			}},
			{Label: "deepen-skew", Weights: &WeightsStep{
				Default: 0.5,
				Regions: map[string]float64{"na-east": 4, "europe": 4},
				Sites:   map[string]float64{"na-east-00": 12, "europe-00": 12},
			}},
			{Label: "demand-spike", Demand: fp(12000)},
		},
	}
}

// CorrelatedFailure models the failures that arrive together in real
// outages: a whole region goes down and — in the same epoch — the event
// that took it down (a backbone cut, a routing storm) degrades RTTs
// between the survivors. The first step carries both deltas at once, so
// the planner re-places and re-optimizes against the degraded WAN, not
// the pre-outage one; recovery relaxes the links before membership is
// rebuilt.
func CorrelatedFailure() Spec {
	return Spec{
		Name:  "correlated-failure",
		Title: "4x4 Grid on PlanetLab-50, LP strategies: region loss with correlated RTT degradation",
		Kind:  KindTimeline,
		Notes: []string{
			"backbone-event removes every 'europe' site AND inflates every surviving link 1.4x in one step",
			"one atomic step means one re-plan: the planner never sees the outage without the degradation",
			"links-recover relaxes the survivors' RTTs; eu-rebuild restores membership on the healed WAN",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{4}}},
		Strategies: []string{"lp"},
		Demands:    []float64{8000},
		Timeline: []Step{
			{
				Label:        "backbone-event",
				RemoveRegion: "europe",
				ScaleRTT:     &ScaleRTTStep{Factor: 1.4},
			},
			{Label: "links-recover", ScaleRTT: &ScaleRTTStep{Factor: 1 / 1.4}},
			{Label: "eu-rebuild", AddSites: []NewSiteStep{
				{Name: "eu-new-amsterdam", Region: "europe", Lat: 52.37, Lon: 4.90, AccessMS: 2},
				{Name: "eu-new-milan", Region: "europe", Lat: 45.46, Lon: 9.19, AccessMS: 2},
			}},
		},
	}
}

// SeedScaleStudy is the one-spec shape of the paper's parameter
// studies at fleet scale: the same capacity sweep repeated over three
// independently generated WANs (the seeds axis), with the topology
// doubled and the demand doubled by scale multipliers. Every (seed,
// system, warm-start chunk) is its own shardable point, so the study
// spreads over however many fleet workers are live — and merges
// byte-identically to a local run.
func SeedScaleStudy() Spec {
	return Spec{
		Name:  "seed-scale-study",
		Title: "Grid capacity sweep over 3 seeded synthetic WANs, sites x2, demand x2",
		Kind:  KindSweep,
		Notes: []string{
			"each seed generates an independent 16-site WAN (8 base sites x scale.sites 2)",
			"scale.clients 2 doubles the sweep demand; rows lead with the generating seed",
			"every (seed, system, chunk) point shards independently: run it with -fleet or -shards",
		},
		Seeds: []int64{101, 102, 103},
		Scale: &ScaleSpec{Sites: 2, Clients: 2},
		Topology: TopologySpec{
			Source: "synth",
			Synth: &topology.GenConfig{
				Name:      "seed-scale-8",
				Inflation: 1.4,
				Regions: []topology.RegionSpec{
					{Name: "na-west", Count: 2, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
					{Name: "na-east", Count: 2, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
					{Name: "europe", Count: 2, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
					{Name: "asia", Count: 2, LatMin: 22, LatMax: 38, LonMin: 103, LonMax: 140, AccessMin: 2, AccessMax: 6},
				},
			},
		},
		Systems: []SystemAxis{{Family: "grid", Params: []int{2, 3}}},
		Sweep:   &SweepSpec{Points: 6, Demand: 4000},
	}
}

// ScaleFrontier is the internet-scale planning study: quorum placement
// and strategy evaluation on a 1000-AS power-law internet graph. It
// exercises every perf-path layer at once — the topology's metric comes
// from the parallel sparse closure (the dense O(n³) Floyd–Warshall never
// runs), the one-to-one placements go through the pruned anchor search,
// and the evaluation covers both strategy families at two demand levels.
// The LP strategy is deliberately absent: enumerable systems at this
// scale put millions of variables in the access LP; capacity studies
// belong on the per-anchor sweeps, not the full frontier.
func ScaleFrontier() Spec {
	return Spec{
		Name:  "scale-frontier",
		Title: "Majority and grid planning on a 1000-AS power-law internet graph",
		Kind:  KindEval,
		Notes: []string{
			"the AS metric comes from the parallel sparse closure; Floyd–Warshall never runs",
			"one-to-one placements use the pruned anchor search (output identical to exhaustive)",
			"scale.sites multiplies the AS count: 10 gives the 10k-site study in EXPERIMENTS.md",
		},
		Topology: TopologySpec{
			Source: "synth",
			Synth: &topology.GenConfig{
				Name: "as-frontier-1k",
				AS:   &topology.ASGraphSpec{Sites: 1000},
			},
		},
		Systems: []SystemAxis{
			{Family: "majority", Params: []int{7}},
			{Family: "grid", Params: []int{7}},
		},
		Strategies: []string{"closest", "balanced"},
		Demands:    []float64{0, 8000},
		Measures:   []string{"response", "net"},
	}
}

// ScaleFrontierStrategy is the scale-frontier variant the access LP used
// to be "deliberately out of range" for: the same 1000-AS graph, now
// planning the optimized "lp" strategy over all 1000 clients × 6435
// majority-8-of-15 quorums. At 6.4M variables the LP is above
// strategy.DefaultColgenThreshold, so the optimizer solves it by column
// generation under either solver profile. The closest strategy rides
// along as the baseline the LP improves on.
func ScaleFrontierStrategy() Spec {
	return Spec{
		Name:  "scale-frontier-strategy",
		Title: "LP access strategy on a 1000-AS internet graph (column generation)",
		Kind:  KindEval,
		Notes: []string{
			"1000 clients x 6435 quorums = 6.4M LP variables: the dense simplex wall colgen breaks",
			"the colgen master only materializes priced columns; the optimum is certified for the full LP",
			"the LP is above strategy.DefaultColgenThreshold, so the solver picks column generation by size",
			"capacity 0.6 binds, so the lp column is the capacity-feasible optimum the closest strategy violates",
		},
		Topology: TopologySpec{
			Source: "synth",
			Synth: &topology.GenConfig{
				Name: "as-frontier-1k",
				AS:   &topology.ASGraphSpec{Sites: 1000},
			},
		},
		Systems:         []SystemAxis{{Family: "majority", Params: []int{7}}},
		Strategies:      []string{"closest", "lp"},
		Demands:         []float64{0},
		Measures:        []string{"net"},
		UniformCapacity: 0.6,
	}
}

// SiteChurn decommissions sites and splices replacements in, the
// membership churn a long-lived deployment accumulates.
func SiteChurn() Spec {
	return Spec{
		Name:  "site-churn",
		Title: "3x3 Grid on PlanetLab-50, LP strategies: decommissioning and expansion",
		Kind:  KindTimeline,
		Notes: []string{
			"new sites get synthesized RTTs from their coordinates (topology.EstimateRTT)",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
		Strategies: []string{"lp"},
		Demands:    []float64{4000},
		Timeline: []Step{
			{Label: "decommission-na", RemoveSites: []string{"na-east-00", "na-west-01"}},
			{Label: "expand-chicago", AddSites: []NewSiteStep{
				{Name: "na-central-new-00", Region: "na-central", Lat: 41.88, Lon: -87.63, AccessMS: 2},
			}},
			{Label: "expand-saopaulo", AddSites: []NewSiteStep{
				{Name: "s-america-new-00", Region: "s-america", Lat: -23.55, Lon: -46.63, AccessMS: 4},
			}},
			{Label: "decommission-eu", RemoveSites: []string{"europe-02"}},
		},
	}
}
