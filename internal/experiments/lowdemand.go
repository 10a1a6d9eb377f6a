package experiments

import "github.com/quorumnet/quorumnet/internal/scenario"

// fig63Systems lists the §6 system families in figure order — the
// singleton baseline first, then the three Majorities and the Grid, each
// auto-expanded to every parameter whose universe fits.
func fig63Systems(maxUniverse int) []scenario.SystemAxis {
	return []scenario.SystemAxis{
		{Family: "singleton"},
		{Family: "majority", MaxUniverse: maxUniverse},
		{Family: "bmajority", MaxUniverse: maxUniverse},
		{Family: "qumajority", MaxUniverse: maxUniverse},
		{Family: "grid", MaxUniverse: maxUniverse},
	}
}

// SpecFig63 declares Figure 6.3: average response time (alpha = 0, i.e.
// network delay) of one-to-one placements under the closest access
// strategy, as the universe grows, for all four systems plus the
// singleton baseline.
func SpecFig63(p Params) *scenario.Spec {
	maxUniverse := 0 // topology size − 1
	if p.Quick {
		maxUniverse = 16
	}
	return &scenario.Spec{
		Name:  "fig6.3",
		Title: "Response time (ms) on PlanetLab-50, alpha=0, closest access strategy",
		Kind:  scenario.KindEval,
		Notes: []string{
			"paper: singleton is flat and lowest; smaller-quorum systems win at fixed universe size",
			"paper: grid < (t+1,2t+1) < (2t+1,3t+1) < (4t+1,5t+1) in most of the range",
			"paper: larger majorities degrade gracefully then sharply (critical point)",
		},
		Topology:   scenario.TopologySpec{Source: "planetlab50"},
		Systems:    fig63Systems(maxUniverse),
		RowColumns: []string{"system", "param", "universe"},
		Demands:    []float64{0},
		Strategies: []string{"closest"},
		Measures:   []string{"response"},
		Columns:    []string{"system", "param", "universe", "response_ms"},
	}
}
