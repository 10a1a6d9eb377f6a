package experiments

import "github.com/quorumnet/quorumnet/internal/scenario"

// SpecFig89 declares Figure 8.9: network delay achieved by the
// iterative algorithm (after its first and second iterations) on a 5×5
// Grid as the uniform node capacity varies, against the one-to-one
// placement baseline.
func SpecFig89(p Params) *scenario.Spec {
	k := 5
	var candidates []int
	if p.Quick {
		k = 3
		// Limit anchors on quick runs to keep tests fast.
		candidates = []int{0, 5, 10, 15}
	}
	return &scenario.Spec{
		Name:  "fig8.9",
		Title: "Iterative algorithm network delay (ms), 5x5 Grid on PlanetLab-50",
		Kind:  scenario.KindIterate,
		Notes: []string{
			"paper: the big improvement lands after phase 1 of iteration 1; phase 2 adds 2–5 ms",
			"paper: most runs terminate after the first iteration",
			"paper: the iterative (many-to-one) delay beats one-to-one at every capacity",
		},
		Topology: scenario.TopologySpec{Source: "planetlab50"},
		Systems:  []scenario.SystemAxis{{Family: "grid", Params: []int{k}}},
		Iterate: &scenario.IterateSpec{
			Points:        sweepCount(p),
			MaxIterations: 2,
			Candidates:    candidates,
		},
	}
}
