package scenario

// Figures returns the ten figures of the paper's evaluation (there are
// no numbered tables) as specs, in paper order: the Q/U protocol
// measurements of §3, the low-demand placement comparison of §6, the
// high-demand strategy and capacity studies of §7, and the
// iterative-algorithm study of §8. quick trims universe sizes and sweep
// resolution for smoke runs; `quorumbench -quick` also caps the Q/U
// simulation at 2 runs of 3000 ms in the RunConfig it builds.
func Figures(quick bool) []Spec {
	return []Spec{
		fig31(quick),
		fig32a(quick),
		fig32b(quick),
		fig63(quick),
		fig64(quick),
		fig65(quick),
		fig76(quick),
		fig77(quick),
		fig78(quick),
		fig89(quick),
	}
}

// quProtocol fixes the §3 simulation constants: 10 representative client
// locations, 1 ms of application processing per request, and 0.8
// ms/message of access-link serialization (≈ 1 KB Q/U messages on the
// emulated 10 Mbit/s links, which puts per-site uplinks near saturation
// around 100 clients — the knee Figure 3.2b shows past ~50 clients).
func quProtocol(ts, perSite []int) *ProtocolSpec {
	return &ProtocolSpec{
		Ts:            ts,
		PerSite:       perSite,
		ClientSites:   10,
		ServiceTimeMS: 1,
		LinkTxMS:      0.8,
	}
}

// fig31 declares Figure 3.1 — the response-time and network-delay
// surface over (number of clients, universe size) — at the given scale.
func fig31(quick bool) Spec {
	ts := []int{1, 2, 3, 4, 5}
	perSites := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quick {
		ts = []int{1, 3}
		perSites = []int{1, 5}
	}
	return Spec{
		Name:  "fig3.1",
		Title: "Q/U avg response time & network delay (ms) vs clients and universe size",
		Kind:  KindProtocol,
		Notes: []string{
			"paper: response time grows with client count (processing delay) and with universe size (network delay)",
			"paper: network delay is flat in client count for fixed universe",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"t", "universe", "clients"},
		Protocol:   quProtocol(ts, perSites),
		Columns:    []string{"t", "universe", "clients", "net_delay_ms", "response_ms"},
	}
}

// fig32a declares Figure 3.2a: components at 100 clients while t (and
// hence the universe size n = 5t+1) grows.
func fig32a(quick bool) Spec {
	ts := []int{1, 2, 3, 4, 5}
	perSite := 10
	if quick {
		ts = []int{1, 3}
		perSite = 4
	}
	return Spec{
		Name:  "fig3.2a",
		Title: "Q/U delay components at 100 clients vs faults tolerated",
		Kind:  KindProtocol,
		Notes: []string{
			"paper: network delay increases with universe size (quorums spread apart)",
			"paper: processing share shrinks slightly as more servers share the load",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"t", "universe"},
		Protocol:   quProtocol(ts, []int{perSite}),
		Columns:    []string{"t", "universe", "net_delay_ms", "response_ms"},
	}
}

// fig32b declares Figure 3.2b: components at t = 4 (n = 21) while the
// client count grows.
func fig32b(quick bool) Spec {
	perSites := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if quick {
		perSites = []int{1, 6}
	}
	return Spec{
		Name:  "fig3.2b",
		Title: "Q/U delay components at t=4 (n=21) vs number of clients",
		Kind:  KindProtocol,
		Notes: []string{
			"paper: below ~50 clients network delay dominates; beyond that processing delay grows",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"clients"},
		Protocol:   quProtocol([]int{4}, perSites),
		Columns:    []string{"clients", "net_delay_ms", "response_ms"},
	}
}

// fig63Systems lists the §6 system families in figure order — the
// singleton baseline first, then the three Majorities and the Grid, each
// auto-expanded to every parameter whose universe fits.
func fig63Systems(maxUniverse int) []SystemAxis {
	return []SystemAxis{
		{Family: "singleton"},
		{Family: "majority", MaxUniverse: maxUniverse},
		{Family: "bmajority", MaxUniverse: maxUniverse},
		{Family: "qumajority", MaxUniverse: maxUniverse},
		{Family: "grid", MaxUniverse: maxUniverse},
	}
}

// fig63 declares Figure 6.3: average response time (alpha = 0, i.e.
// network delay) of one-to-one placements under the closest access
// strategy, as the universe grows, for all four systems plus the
// singleton baseline.
func fig63(quick bool) Spec {
	maxUniverse := 0 // topology size − 1
	if quick {
		maxUniverse = 16
	}
	return Spec{
		Name:  "fig6.3",
		Title: "Response time (ms) on PlanetLab-50, alpha=0, closest access strategy",
		Kind:  KindEval,
		Notes: []string{
			"paper: singleton is flat and lowest; smaller-quorum systems win at fixed universe size",
			"paper: grid < (t+1,2t+1) < (2t+1,3t+1) < (4t+1,5t+1) in most of the range",
			"paper: larger majorities degrade gracefully then sharply (critical point)",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    fig63Systems(maxUniverse),
		RowColumns: []string{"system", "param", "universe"},
		Demands:    []float64{0},
		Strategies: []string{"closest"},
		Measures:   []string{"response"},
		Columns:    []string{"system", "param", "universe", "response_ms"},
	}
}

// gridAxis expands the k×k Grid over every k that fits the topology,
// striding by 3 on quick runs.
func gridAxis(quick bool) SystemAxis {
	a := SystemAxis{Family: "grid"}
	if quick {
		a.Step = 3
	}
	return a
}

// fig64 declares Figure 6.4: Grid response times under the closest and
// balanced strategies at client demands 1000 and 4000 on daxlist-161.
func fig64(quick bool) Spec {
	return Spec{
		Name:  "fig6.4",
		Title: "Grid response time (ms) on daxlist-161, closest vs balanced, demand 1000/4000",
		Kind:  KindEval,
		Notes: []string{
			"paper: closest wins at demand 1000 (especially at large universes); balanced wins at 4000",
			"paper: the demand-1000 lines cross repeatedly (gray zone between the strategies)",
		},
		Topology:   TopologySpec{Source: "daxlist161"},
		Systems:    []SystemAxis{gridAxis(quick)},
		RowColumns: []string{"universe"},
		Demands:    []float64{1000, 4000},
		Strategies: []string{"closest", "balanced"},
		Measures:   []string{"response"},
		Columns: []string{"universe",
			"closest_d1000", "balanced_d1000", "closest_d4000", "balanced_d4000"},
	}
}

// fig65 declares Figure 6.5: network delay and response time for both
// strategies at client demand 16000.
func fig65(quick bool) Spec {
	return Spec{
		Name:  "fig6.5",
		Title: "Grid delay components (ms) on daxlist-161 at demand 16000",
		Kind:  KindEval,
		Notes: []string{
			"paper: balanced response time decreases with universe size (load spreads); closest does not",
			"paper: network delay increases with universe size for both strategies",
		},
		Topology:   TopologySpec{Source: "daxlist161"},
		Systems:    []SystemAxis{gridAxis(quick)},
		RowColumns: []string{"universe"},
		Demands:    []float64{16000},
		Strategies: []string{"closest", "balanced"},
		Measures:   []string{"net", "response"},
		Columns: []string{"universe",
			"net_closest", "resp_closest", "net_balanced", "resp_balanced"},
	}
}

// SweepPoints is the capacity-sweep resolution of §7 and §8 and of the
// ablations' sweeps: the paper's 10 points (eq. 7.7), or 4 on quick
// runs.
func SweepPoints(quick bool) int {
	if quick {
		return 4
	}
	return 10
}

// capacityAxis is the §7 universe axis: every Grid that fits PlanetLab-50
// (k = 2..7), or the 3×3 alone on quick runs.
func capacityAxis(quick bool) SystemAxis {
	if quick {
		return SystemAxis{Family: "grid", Params: []int{3}}
	}
	return SystemAxis{Family: "grid"}
}

// fig76 declares Figure 7.6: response time and network delay as the
// uniform node capacity c_i = Lopt + i·(1−Lopt)/10 varies, per universe
// size, with LP-optimized access strategies.
func fig76(quick bool) Spec {
	return Spec{
		Name:  "fig7.6",
		Title: "Grid on PlanetLab-50, demand 16000: LP strategies under uniform capacities",
		Kind:  KindSweep,
		Notes: []string{
			"paper: higher capacity lets clients use closer quorums (lower network delay) but concentrates load, raising response time at high demand",
		},
		Topology: TopologySpec{Source: "planetlab50"},
		Systems:  []SystemAxis{capacityAxis(quick)},
		Sweep:    &SweepSpec{Points: SweepPoints(quick), Demand: 16000},
		Columns:  []string{"universe", "capacity", "net_delay_ms", "response_ms"},
	}
}

// fig77 declares Figure 7.7: the uniform sweep against the non-uniform
// capacity heuristic with [β, γ] = [Lopt, c_i].
func fig77(quick bool) Spec {
	return Spec{
		Name:  "fig7.7",
		Title: "Grid on PlanetLab-50, demand 16000: uniform vs non-uniform capacities",
		Kind:  KindSweep,
		Notes: []string{
			"paper: the two match at small capacities (interval length ≈ 0) and non-uniform wins as capacities grow",
		},
		Topology: TopologySpec{Source: "planetlab50"},
		Systems:  []SystemAxis{capacityAxis(quick)},
		Sweep: &SweepSpec{
			Points:   SweepPoints(quick),
			Demand:   16000,
			Variants: []string{"uniform", "nonuniform"},
		},
		Columns: []string{"universe", "capacity",
			"net_uniform", "resp_uniform", "net_nonuniform", "resp_nonuniform"},
	}
}

// fig78 declares Figure 7.8: the k=7 (n=49) slice of the comparison.
func fig78(quick bool) Spec {
	k := 7
	if quick {
		k = 4
	}
	return Spec{
		Name:  "fig7.8",
		Title: "7x7 Grid on PlanetLab-50, demand 16000: response vs capacity",
		Kind:  KindSweep,
		Notes: []string{
			"paper: response time grows with capacity for both, but more slowly for the non-uniform heuristic",
		},
		Topology:   TopologySpec{Source: "planetlab50"},
		Systems:    []SystemAxis{{Family: "grid", Params: []int{k}}},
		RowColumns: []string{"capacity"},
		Sweep: &SweepSpec{
			Points:   SweepPoints(quick),
			Demand:   16000,
			Variants: []string{"uniform", "nonuniform"},
		},
		Columns: []string{"capacity",
			"net_uniform", "resp_uniform", "net_nonuniform", "resp_nonuniform"},
	}
}

// fig89 declares Figure 8.9: network delay achieved by the iterative
// algorithm (after its first and second iterations) on a 5×5 Grid as
// the uniform node capacity varies, against the one-to-one placement
// baseline.
func fig89(quick bool) Spec {
	k := 5
	var candidates []int
	if quick {
		k = 3
		// Limit anchors on quick runs to keep tests fast.
		candidates = []int{0, 5, 10, 15}
	}
	return Spec{
		Name:  "fig8.9",
		Title: "Iterative algorithm network delay (ms), 5x5 Grid on PlanetLab-50",
		Kind:  KindIterate,
		Notes: []string{
			"paper: the big improvement lands after phase 1 of iteration 1; phase 2 adds 2–5 ms",
			"paper: most runs terminate after the first iteration",
			"paper: the iterative (many-to-one) delay beats one-to-one at every capacity",
		},
		Topology: TopologySpec{Source: "planetlab50"},
		Systems:  []SystemAxis{{Family: "grid", Params: []int{k}}},
		Iterate: &IterateSpec{
			Points:        SweepPoints(quick),
			MaxIterations: 2,
			Candidates:    candidates,
		},
	}
}
