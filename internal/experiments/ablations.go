package experiments

import (
	"errors"
	"fmt"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/faults"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Ablations lists the studies that go beyond the paper's figures: the §8
// future-work load model, design choices DESIGN.md calls out, and the
// failure behaviour §6 argues about but defers.
func Ablations() []Experiment {
	return []Experiment{
		{ID: "abl-dedup", Title: "§8 future work: deduplicated load model vs the paper's multiplicity model", Run: AblDedup},
		{ID: "abl-anchor", Title: "placement anchor scoring: uniform vs closest strategy", Run: AblAnchor},
		{ID: "abl-failures", Title: "response time and availability under node failures (§6 fault-tolerance argument)", Run: AblFailures},
		{ID: "abl-sweep", Title: "capacity sweep resolution vs best response found", Run: AblSweep},
		{ID: "abl-baselines", Title: "paper's placement constructions vs naive baselines", Run: AblBaselines},
	}
}

// AblBaselines calibrates the value of the paper's placement algorithms
// against what an operator would do without them: random one-to-one
// placement and the "greedy best-average-RTT nodes" heuristic.
func AblBaselines(cfg scenario.RunConfig, quick bool) (*Table, error) {
	topo := topology.PlanetLab50(cfg.Seed)
	tb := &Table{
		ID:      "abl-baselines",
		Title:   "Placement algorithm vs baselines on PlanetLab-50 (closest-strategy delay, ms, alpha=0)",
		Columns: []string{"system", "universe", "paper_construction", "greedy_median", "random_mean"},
		Notes: []string{
			"random_mean averages 10 seeded random one-to-one placements",
			"greedy-median ignores inter-node distances, which quorum access latency punishes",
		},
	}
	var systems []quorum.System
	if quick {
		g, err := quorum.NewGrid(3)
		if err != nil {
			return nil, err
		}
		systems = append(systems, g)
	} else {
		for _, k := range []int{3, 5, 7} {
			g, err := quorum.NewGrid(k)
			if err != nil {
				return nil, err
			}
			systems = append(systems, g)
		}
		for _, t := range []int{4, 12} {
			m, err := quorum.SimpleMajority(t)
			if err != nil {
				return nil, err
			}
			systems = append(systems, m)
		}
	}
	for _, sys := range systems {
		delay := func(f core.Placement) (float64, error) {
			e, err := core.NewEval(topo, sys, f, 0)
			if err != nil {
				return 0, err
			}
			return e.AvgNetworkDelay(core.ClosestStrategy{}), nil
		}
		paper, err := placement.OneToOne(topo, sys, placement.Options{})
		if err != nil {
			return nil, err
		}
		dPaper, err := delay(paper)
		if err != nil {
			return nil, err
		}
		greedy, err := placement.GreedyMedian(topo, sys)
		if err != nil {
			return nil, err
		}
		dGreedy, err := delay(greedy)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		const randTrials = 10
		for s := int64(0); s < randTrials; s++ {
			rnd, err := placement.Random(topo, sys, cfg.Seed+s)
			if err != nil {
				return nil, err
			}
			d, err := delay(rnd)
			if err != nil {
				return nil, err
			}
			sum += d
		}
		tb.AddRow(sys.Name(), itoa(sys.UniverseSize()),
			f2(dPaper), f2(dGreedy), f2(sum/randTrials))
	}
	return tb, nil
}

// AblDedup quantifies the paper's §8 conjecture: "a variation of our
// model, in which a server hosting multiple universe elements would
// execute a request only once, can clearly improve the performance."
// A many-to-one placement of a 5×5 Grid is evaluated at demand 16000
// under both load models, with LP-optimized strategies per capacity.
func AblDedup(cfg scenario.RunConfig, quick bool) (*Table, error) {
	topo := topology.PlanetLab50(cfg.Seed)
	k := 5
	if quick {
		k = 3
	}
	sys, err := quorum.NewGrid(k)
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "abl-dedup",
		Title:   fmt.Sprintf("%dx%d Grid many-to-one on PlanetLab-50, demand 16000: load models", k, k),
		Columns: []string{"capacity", "resp_multiplicity", "resp_dedup", "dedup_gain_ms"},
		Notes: []string{
			"multiplicity: a node is charged once per hosted element in the accessed quorum (paper's model)",
			"dedup: a node executes each request once (§8 future work); response can only improve",
		},
	}
	var candidates []int
	if quick {
		candidates = []int{0, 5, 10, 15}
	}
	alpha := core.AlphaForDemand(16000)
	for _, c := range strategy.SweepValues(sys.OptimalLoad(), scenario.SweepPoints(quick)) {
		tp := topo.Clone()
		if err := tp.SetUniformCapacity(c); err != nil {
			return nil, err
		}
		f, err := placement.ManyToOne(tp, sys, placement.ManyToOneConfig{Candidates: candidates, LP: lp.OptionsFor(cfg.Reproducible)})
		if err != nil {
			return nil, err
		}
		e, err := core.NewEval(tp, sys, f, alpha)
		if err != nil {
			return nil, err
		}
		caps := make([]float64, tp.Size())
		for w := range caps {
			// The rounding can exceed c; cap the LP at the achieved loads
			// so both modes optimize over the same feasible region scale.
			caps[w] = c * 2
		}
		respOf := func(mode core.LoadMode) (float64, error) {
			e.Mode = mode
			// The load mode changes the LP coefficients, so each mode
			// needs its own optimizer workspace.
			opt, err := strategy.NewOptimizer(e, strategy.ConfigFor(cfg.Reproducible))
			if err != nil {
				return 0, err
			}
			res, err := opt.Optimize(caps)
			if err != nil {
				return 0, err
			}
			return e.AvgResponseTime(res.Strategy), nil
		}
		mult, err := respOf(core.LoadMultiplicity)
		if err != nil {
			if errors.Is(err, lp.ErrInfeasible) {
				continue // capacity too tight for this placement's loads
			}
			return nil, err
		}
		dedup, err := respOf(core.LoadDedup)
		if err != nil {
			return nil, err
		}
		tb.AddRow(f3(c), f2(mult), f2(dedup), f2(mult-dedup))
	}
	return tb, nil
}

// AblAnchor compares the two natural scorings for the one-to-one anchor
// search: the uniform (balanced) strategy the paper prescribes in §4.1,
// and the closest strategy the §6 experiments evaluate with.
func AblAnchor(cfg scenario.RunConfig, quick bool) (*Table, error) {
	topo := topology.PlanetLab50(cfg.Seed)
	tb := &Table{
		ID:      "abl-anchor",
		Title:   "One-to-one placement anchor scoring on PlanetLab-50 (closest-strategy response, alpha=0)",
		Columns: []string{"system", "universe", "resp_uniform_scored", "resp_closest_scored"},
		Notes: []string{
			"scoring by the evaluation strategy (closest) can only help the evaluated measure;",
			"the gap shows how much the paper's uniform-scored placements leave on the table in §6",
		},
	}
	type combo struct {
		sys quorum.System
	}
	var combos []combo
	if quick {
		g, err := quorum.NewGrid(3)
		if err != nil {
			return nil, err
		}
		combos = append(combos, combo{sys: g})
	} else {
		g, err := quorum.NewGrid(5)
		if err != nil {
			return nil, err
		}
		m1, err := quorum.SimpleMajority(12) // (13,25)
		if err != nil {
			return nil, err
		}
		m2, err := quorum.ByzantineMajority(8) // (17,25)
		if err != nil {
			return nil, err
		}
		m3, err := quorum.QUMajority(5) // (21,26)
		if err != nil {
			return nil, err
		}
		combos = append(combos, combo{sys: g}, combo{sys: m1}, combo{sys: m2}, combo{sys: m3})
	}
	for _, c := range combos {
		delayFor := func(score core.Strategy) (float64, error) {
			f, err := placement.OneToOne(topo, c.sys, placement.Options{ScoreBy: score})
			if err != nil {
				return 0, err
			}
			e, err := core.NewEval(topo, c.sys, f, 0)
			if err != nil {
				return 0, err
			}
			return e.AvgNetworkDelay(core.ClosestStrategy{}), nil
		}
		uni, err := delayFor(core.BalancedStrategy{})
		if err != nil {
			return nil, err
		}
		clo, err := delayFor(core.ClosestStrategy{})
		if err != nil {
			return nil, err
		}
		tb.AddRow(c.sys.Name(), itoa(c.sys.UniverseSize()), f2(uni), f2(clo))
	}
	return tb, nil
}

// AblFailures extends §6's fault-tolerance argument with measurements the
// paper defers to future work: closest-strategy response time as
// worst-case node failures accumulate, and Monte Carlo availability under
// independent node failures. The singleton wins on response time but dies
// with its one node; quorum systems degrade gracefully.
func AblFailures(cfg scenario.RunConfig, quick bool) (*Table, error) {
	topo := topology.PlanetLab50(cfg.Seed)
	maxF := 4
	if quick {
		maxF = 2
	}
	cols := []string{"system", "universe"}
	for f := 0; f <= maxF; f++ {
		cols = append(cols, fmt.Sprintf("resp_f%d", f))
	}
	cols = append(cols, "avail_p05", "avail_p10")
	tb := &Table{
		ID:      "abl-failures",
		Title:   "Worst-case node failures: response time (ms, closest, alpha=0) and availability",
		Columns: cols,
		Notes: []string{
			"failures target the support node hosting the most elements, closest to clients",
			"'down' marks failure sets that kill every quorum",
			"availability: Monte Carlo (50k trials) with each support node failing independently",
		},
	}

	systems := []quorum.System{quorum.Singleton{}}
	if quick {
		g, err := quorum.NewGrid(3)
		if err != nil {
			return nil, err
		}
		systems = append(systems, g)
	} else {
		g, err := quorum.NewGrid(5)
		if err != nil {
			return nil, err
		}
		m1, err := quorum.SimpleMajority(12)
		if err != nil {
			return nil, err
		}
		m2, err := quorum.ByzantineMajority(8)
		if err != nil {
			return nil, err
		}
		systems = append(systems, g, m1, m2)
	}

	for _, sys := range systems {
		f, err := placement.OneToOne(topo, sys, placement.Options{})
		if err != nil {
			return nil, err
		}
		e, err := core.NewEval(topo, sys, f, 0)
		if err != nil {
			return nil, err
		}
		cells := []string{sys.Name(), itoa(sys.UniverseSize())}
		for nf := 0; nf <= maxF; nf++ {
			failed := faults.WorstCaseFailure(e, nf)
			fe, err := faults.Apply(e, failed)
			if err != nil {
				if errors.Is(err, quorum.ErrNoQuorumSurvives) {
					cells = append(cells, "down")
					continue
				}
				return nil, err
			}
			cells = append(cells, f2(fe.AvgNetworkDelay(core.ClosestStrategy{})))
		}
		for _, pf := range []float64{0.05, 0.10} {
			a, err := faults.Availability(e, pf, 50000, cfg.Seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, f3(a))
		}
		tb.AddRow(cells...)
	}
	return tb, nil
}

// AblSweep measures how the capacity-sweep resolution (the paper fixes 10
// points, eq. 7.7) trades optimization effort for the best response found.
func AblSweep(cfg scenario.RunConfig, quick bool) (*Table, error) {
	topo := topology.PlanetLab50(cfg.Seed)
	k := 7
	if quick {
		k = 3
	}
	sys, err := quorum.NewGrid(k)
	if err != nil {
		return nil, err
	}
	f, err := placement.OneToOne(topo, sys, placement.Options{})
	if err != nil {
		return nil, err
	}
	e, err := core.NewEval(topo, sys, f, core.AlphaForDemand(16000))
	if err != nil {
		return nil, err
	}
	tb := &Table{
		ID:      "abl-sweep",
		Title:   fmt.Sprintf("Capacity sweep resolution, %dx%d Grid on PlanetLab-50, demand 16000", k, k),
		Columns: []string{"sweep_points", "best_capacity", "best_response_ms", "lp_pivots_total"},
		Notes: []string{
			"the paper uses 10 points; diminishing returns set in quickly",
		},
	}
	counts := []int{3, 5, 10, 20}
	if quick {
		counts = []int{3, 5}
	}
	for _, count := range counts {
		pts, err := strategy.UniformSweep(e, strategy.SweepValues(sys.OptimalLoad(), count), strategy.ConfigFor(cfg.Reproducible))
		if err != nil {
			return nil, err
		}
		best, err := strategy.Best(pts)
		if err != nil {
			return nil, err
		}
		pivots := 0
		for _, pt := range pts {
			if pt.Result != nil {
				pivots += pt.Result.Iterations
			}
		}
		tb.AddRow(itoa(count), f3(best.Cap), f2(best.Response), itoa(pivots))
	}
	return tb, nil
}
