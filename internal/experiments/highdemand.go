package experiments

import "github.com/quorumnet/quorumnet/internal/scenario"

// gridAxis expands the k×k Grid over every k that fits the topology,
// striding by 3 on quick runs.
func gridAxis(quick bool) scenario.SystemAxis {
	a := scenario.SystemAxis{Family: "grid"}
	if quick {
		a.Step = 3
	}
	return a
}

// SpecFig64 declares Figure 6.4: Grid response times under the closest
// and balanced strategies at client demands 1000 and 4000 on daxlist-161.
func SpecFig64(p Params) *scenario.Spec {
	return &scenario.Spec{
		Name:  "fig6.4",
		Title: "Grid response time (ms) on daxlist-161, closest vs balanced, demand 1000/4000",
		Kind:  scenario.KindEval,
		Notes: []string{
			"paper: closest wins at demand 1000 (especially at large universes); balanced wins at 4000",
			"paper: the demand-1000 lines cross repeatedly (gray zone between the strategies)",
		},
		Topology:   scenario.TopologySpec{Source: "daxlist161"},
		Systems:    []scenario.SystemAxis{gridAxis(p.Quick)},
		RowColumns: []string{"universe"},
		Demands:    []float64{1000, 4000},
		Strategies: []string{"closest", "balanced"},
		Measures:   []string{"response"},
		Columns: []string{"universe",
			"closest_d1000", "balanced_d1000", "closest_d4000", "balanced_d4000"},
	}
}

// SpecFig65 declares Figure 6.5: network delay and response time for
// both strategies at client demand 16000.
func SpecFig65(p Params) *scenario.Spec {
	return &scenario.Spec{
		Name:  "fig6.5",
		Title: "Grid delay components (ms) on daxlist-161 at demand 16000",
		Kind:  scenario.KindEval,
		Notes: []string{
			"paper: balanced response time decreases with universe size (load spreads); closest does not",
			"paper: network delay increases with universe size for both strategies",
		},
		Topology:   scenario.TopologySpec{Source: "daxlist161"},
		Systems:    []scenario.SystemAxis{gridAxis(p.Quick)},
		RowColumns: []string{"universe"},
		Demands:    []float64{16000},
		Strategies: []string{"closest", "balanced"},
		Measures:   []string{"net", "response"},
		Columns: []string{"universe",
			"net_closest", "resp_closest", "net_balanced", "resp_balanced"},
	}
}
