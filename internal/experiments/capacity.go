package experiments

import "github.com/quorumnet/quorumnet/internal/scenario"

func sweepCount(p Params) int {
	if p.Quick {
		return 4
	}
	return 10
}

// capacityAxis is the §7 universe axis: every Grid that fits PlanetLab-50
// (k = 2..7), or the 3×3 alone on quick runs.
func capacityAxis(quick bool) scenario.SystemAxis {
	if quick {
		return scenario.SystemAxis{Family: "grid", Params: []int{3}}
	}
	return scenario.SystemAxis{Family: "grid"}
}

// SpecFig76 declares Figure 7.6: response time and network delay as the
// uniform node capacity c_i = Lopt + i·(1−Lopt)/10 varies, per universe
// size, with LP-optimized access strategies.
func SpecFig76(p Params) *scenario.Spec {
	return &scenario.Spec{
		Name:  "fig7.6",
		Title: "Grid on PlanetLab-50, demand 16000: LP strategies under uniform capacities",
		Kind:  scenario.KindSweep,
		Notes: []string{
			"paper: higher capacity lets clients use closer quorums (lower network delay) but concentrates load, raising response time at high demand",
		},
		Topology: scenario.TopologySpec{Source: "planetlab50"},
		Systems:  []scenario.SystemAxis{capacityAxis(p.Quick)},
		Sweep:    &scenario.SweepSpec{Points: sweepCount(p), Demand: 16000},
		Columns:  []string{"universe", "capacity", "net_delay_ms", "response_ms"},
	}
}

// SpecFig77 declares Figure 7.7: the uniform sweep against the
// non-uniform capacity heuristic with [β, γ] = [Lopt, c_i].
func SpecFig77(p Params) *scenario.Spec {
	return &scenario.Spec{
		Name:  "fig7.7",
		Title: "Grid on PlanetLab-50, demand 16000: uniform vs non-uniform capacities",
		Kind:  scenario.KindSweep,
		Notes: []string{
			"paper: the two match at small capacities (interval length ≈ 0) and non-uniform wins as capacities grow",
		},
		Topology: scenario.TopologySpec{Source: "planetlab50"},
		Systems:  []scenario.SystemAxis{capacityAxis(p.Quick)},
		Sweep: &scenario.SweepSpec{
			Points:   sweepCount(p),
			Demand:   16000,
			Variants: []string{"uniform", "nonuniform"},
		},
		Columns: []string{"universe", "capacity",
			"net_uniform", "resp_uniform", "net_nonuniform", "resp_nonuniform"},
	}
}

// SpecFig78 declares Figure 7.8: the k=7 (n=49) slice of the comparison.
func SpecFig78(p Params) *scenario.Spec {
	k := 7
	if p.Quick {
		k = 4
	}
	return &scenario.Spec{
		Name:  "fig7.8",
		Title: "7x7 Grid on PlanetLab-50, demand 16000: response vs capacity",
		Kind:  scenario.KindSweep,
		Notes: []string{
			"paper: response time grows with capacity for both, but more slowly for the non-uniform heuristic",
		},
		Topology:   scenario.TopologySpec{Source: "planetlab50"},
		Systems:    []scenario.SystemAxis{{Family: "grid", Params: []int{k}}},
		RowColumns: []string{"capacity"},
		Sweep: &scenario.SweepSpec{
			Points:   sweepCount(p),
			Demand:   16000,
			Variants: []string{"uniform", "nonuniform"},
		},
		Columns: []string{"capacity",
			"net_uniform", "resp_uniform", "net_nonuniform", "resp_nonuniform"},
	}
}
