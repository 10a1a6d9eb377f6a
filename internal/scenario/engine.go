package scenario

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/faults"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// RunConfig is a run's identity beyond its spec: the seed,
// reproducibility, and protocol-simulation scale — everything that,
// with the spec, determines the output. It is one value in every
// process: the coordinator sends it in each shard request, workers
// execute under it, every Partial is stamped with it, the run journal
// records it, and Merge rejects partials whose config differs from its
// own — mixing seeds or solver modes across shards would silently
// corrupt the merged table. Cancellation and progress are not part of
// a run's identity: they belong to the call that executes a partition
// (Partition.ExecuteContext).
type RunConfig struct {
	// Seed drives topology synthesis and protocol randomness, passed
	// through verbatim (seed 0 is a real seed, as it was for the
	// pre-engine figure runners; TopologySpec.Seed overrides it per
	// scenario, where 0 means "inherit this seed").
	Seed int64 `json:"seed,omitempty"`
	// Reproducible forces cold, Dantzig-priced, serial-equivalent LP
	// solves, bit-for-bit reproducing the original harness's tables.
	Reproducible bool `json:"reproducible,omitempty"`
	// QURuns averages this many simulation runs per protocol point
	// (0 = 5).
	QURuns int `json:"qu_runs,omitempty"`
	// QUDurationMS is the simulated length of each protocol run
	// (0 = 20000).
	QUDurationMS float64 `json:"qu_duration_ms,omitempty"`
}

func (c RunConfig) quRuns() int {
	if c.QURuns <= 0 {
		return 5
	}
	return c.QURuns
}

func (c RunConfig) quDuration() float64 {
	if c.QUDurationMS <= 0 {
		return 20000
	}
	return c.QUDurationMS
}

// QuickScale returns c with the protocol simulation capped at the quick
// scale `quorumbench -quick` runs Figures(true) and the ablations at: at
// most 2 runs per point, each at most 3000 ms long. A non-positive
// duration means its 20000 ms default and is capped with it; a
// non-positive QURuns keeps its default of 5 runs.
func (c RunConfig) QuickScale() RunConfig {
	if c.QURuns > 2 {
		c.QURuns = 2
	}
	c.QUDurationMS = min(c.quDuration(), 3000)
	return c
}

// Run validates the spec, expands its point-space, executes every point,
// and assembles the result table. It is the single-shard composition of
// the engine's three layers — partition (NewSpace/Shard), execute
// (Partition.Execute: no cancellation, no progress sink), merge
// (Space.Merge) — and produces output byte-identical to any sharded
// execution of the same spec and config.
func Run(spec *Spec, cfg RunConfig) (*Table, error) {
	space, err := NewSpace(spec, cfg)
	if err != nil {
		return nil, err
	}
	part, err := space.Shard(0, 1)
	if err != nil {
		return nil, err
	}
	partial, err := part.Execute()
	if err != nil {
		return nil, err
	}
	return space.Merge([]*Partial{partial})
}

func buildTopology(ts TopologySpec, cfg RunConfig) (*topology.Topology, error) {
	seed := ts.Seed
	if seed == 0 {
		seed = cfg.Seed
	}
	switch ts.Source {
	case "planetlab50":
		return topology.PlanetLab50(seed), nil
	case "daxlist161":
		return topology.Daxlist161(seed), nil
	case "synth":
		return topology.Generate(*ts.Synth, seed)
	case "file":
		f, err := os.Open(ts.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Load(f)
	default:
		return nil, fmt.Errorf("unknown topology source %q", ts.Source)
	}
}

// systemPoint is one expanded entry of the system axes.
type systemPoint struct {
	axis SystemAxis
	spec plan.SystemSpec
}

func expandSystems(axes []SystemAxis, topoSize int) []systemPoint {
	var out []systemPoint
	for _, a := range axes {
		for _, s := range a.expand(topoSize) {
			out = append(out, systemPoint{axis: a, spec: s})
		}
	}
	return out
}

// buildPlacement runs the spec's placement algorithm.
func buildPlacement(spec *Spec, cfg RunConfig, topo *topology.Topology, sys quorum.System) (core.Placement, error) {
	switch spec.Placement.algorithm() {
	case plan.AlgoSingleton:
		return placement.Singleton(topo, sys.UniverseSize())
	case plan.AlgoManyToOne:
		return placement.ManyToOne(topo, sys, placement.ManyToOneConfig{LP: lp.OptionsFor(cfg.Reproducible)})
	default:
		return placement.OneToOne(topo, sys, placement.Options{})
	}
}

// measureName maps a measure to its default column label.
func measureName(m string) string {
	switch m {
	case "response":
		return "response_ms"
	case "net":
		return "net_delay_ms"
	case "maxload":
		return "max_load"
	default:
		return m
	}
}

func formatMeasure(m string, v float64) string {
	if m == "maxload" {
		return f3(v)
	}
	return f2(v)
}

func evalMeasure(e *core.Eval, s core.Strategy, m string) float64 {
	switch m {
	case "net":
		return e.AvgNetworkDelay(s)
	case "maxload":
		return e.MaxNodeLoad(s)
	default:
		return e.AvgResponseTime(s)
	}
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ---------------------------------------------------------------- eval

func evalRow(spec *Spec, cfg RunConfig, topo *topology.Topology, pt systemPoint) ([]string, error) {
	sys, err := pt.spec.Build()
	if err != nil {
		return nil, err
	}
	f, err := buildPlacement(spec, cfg, topo, sys)
	if err != nil {
		return nil, err
	}

	var row []string
	for _, rc := range spec.rowColumns() {
		switch rc {
		case "system":
			row = append(row, pt.axis.DisplayName())
		case "param":
			if pt.spec.Family == "singleton" {
				row = append(row, "-")
			} else {
				row = append(row, itoa(pt.spec.Param))
			}
		case "universe":
			row = append(row, itoa(sys.UniverseSize()))
		}
	}

	// Fault injection and strategy resolution are demand-independent
	// (the strategy LP minimizes network delay; alpha never enters it),
	// so both happen once; only the evaluator's alpha varies per demand.
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		return nil, err
	}
	e, down, err := applyFaults(spec.Faults, e)
	if err != nil {
		return nil, err
	}
	if down {
		for i := 0; i < len(spec.Demands)*len(spec.Strategies)*len(spec.Measures); i++ {
			row = append(row, "down")
		}
		return row, nil
	}
	strats := make([]core.Strategy, len(spec.Strategies))
	infeasible := make([]bool, len(spec.Strategies))
	for si, st := range spec.Strategies {
		strats[si], infeasible[si], err = resolveStrategy(st, e, spec, cfg)
		if err != nil {
			return nil, err
		}
	}
	for _, d := range spec.Demands {
		e.Alpha = core.AlphaForDemand(d)
		for si := range spec.Strategies {
			for _, m := range spec.Measures {
				if infeasible[si] {
					row = append(row, "infeasible")
					continue
				}
				row = append(row, formatMeasure(m, evalMeasure(e, strats[si], m)))
			}
		}
	}
	return row, nil
}

// applyFaults injects the spec's slowdowns and failures into an
// evaluation; down reports that no quorum survived.
func applyFaults(fs *FaultSpec, e *core.Eval) (*core.Eval, bool, error) {
	if fs.empty() {
		return e, false, nil
	}
	var err error
	if fs.SlowFactor > 0 {
		slow, rerr := resolveSites(e.Topo, fs.SlowSites, fs.SlowRegion)
		if rerr != nil {
			return nil, false, rerr
		}
		e, err = faults.Slowdown(e, slow, fs.SlowFactor)
		if err != nil {
			return nil, false, err
		}
	}
	failed, err := resolveSites(e.Topo, fs.Sites, fs.Region)
	if err != nil {
		return nil, false, err
	}
	if fs.WorstCase > 0 {
		failed = append(failed, faults.WorstCaseFailure(e, fs.WorstCase)...)
	}
	if len(failed) == 0 {
		return e, false, nil
	}
	fe, err := faults.Apply(e, dedupe(failed))
	if err != nil {
		if errors.Is(err, quorum.ErrNoQuorumSurvives) {
			return nil, true, nil
		}
		return nil, false, err
	}
	return fe, false, nil
}

func resolveSites(topo *topology.Topology, names []string, region string) ([]int, error) {
	var out []int
	for _, name := range names {
		found := -1
		for i := 0; i < topo.Size(); i++ {
			if topo.Site(i).Name == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("no site named %q", name)
		}
		out = append(out, found)
	}
	if region != "" {
		hit := false
		for i := 0; i < topo.Size(); i++ {
			if topo.Site(i).Region == region {
				out = append(out, i)
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("no sites in region %q", region)
		}
	}
	return out, nil
}

func dedupe(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// resolveStrategy materializes a strategy name against an evaluation;
// "lp" solves the access-strategy LP under the spec's uniform capacity,
// with the spec's solver selection (reproducible runs pin dense).
func resolveStrategy(name string, e *core.Eval, spec *Spec, cfg RunConfig) (core.Strategy, bool, error) {
	switch name {
	case "closest":
		return core.ClosestStrategy{}, false, nil
	case "balanced":
		return core.BalancedStrategy{}, false, nil
	case "lp":
		c := spec.UniformCapacity
		if c == 0 {
			c = 1
		}
		caps := make([]float64, e.Topo.Size())
		for i := range caps {
			caps[i] = c
		}
		opt, err := strategy.NewOptimizer(e, strategy.ConfigFor(cfg.Reproducible))
		if err != nil {
			return nil, false, err
		}
		res, err := opt.Optimize(caps)
		if err != nil {
			if errors.Is(err, lp.ErrInfeasible) {
				return nil, true, nil
			}
			return nil, false, err
		}
		return res.Strategy, false, nil
	default:
		return nil, false, fmt.Errorf("unknown strategy %q", name)
	}
}

// ------------------------------------------------------------- protocol

// RepresentativeClients picks the k nodes whose expected network delay to
// the placement (under uniform access) is closest to the all-nodes
// average — the paper's §3 recipe for its ten client locations. e keeps
// NewEval's clients, every node, so client v is node v.
func RepresentativeClients(e *core.Eval, k int) ([]int, error) {
	n := e.Topo.Size()
	if k > n {
		return nil, fmt.Errorf("scenario: want %d client sites from %d nodes", k, n)
	}
	delays := make([]float64, n)
	sum := 0.0
	for v := 0; v < n; v++ {
		delays[v] = e.ClientResponseTime(core.BalancedStrategy{}, v)
		sum += delays[v]
	}
	avg := sum / float64(n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da := math.Abs(delays[idx[a]] - avg)
		db := math.Abs(delays[idx[b]] - avg)
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out, nil
}

// ---------------------------------------------------------------- sweep

func sweepCells(pt strategy.SweepPoint) []string {
	if pt.Infeasible {
		return []string{"infeasible", "infeasible"}
	}
	return []string{f2(pt.NetDelay), f2(pt.Response)}
}

// ------------------------------------------------------------- timeline

// runTimelineRows drives one planner through the spec's steps and
// returns the rows of the timeline table (a timeline is a single
// indivisible point of the space: each step re-plans the previous
// step's state).
func runTimelineRows(spec *Spec, cfg RunConfig, topo *topology.Topology, systems []systemPoint) ([][]string, error) {
	p, err := timelinePlanner(spec, cfg, topo, systems[0])
	if err != nil {
		return nil, err
	}

	var rows [][]string
	addRow := func(label string, res *plan.Snapshot, unreplanned string) {
		replanned := strings.Join(res.RecomputedNames(), ",")
		if replanned == "" {
			replanned = "-"
		}
		row := []string{label, itoa(p.Size()), f2(res.Response), f2(res.NetDelay), f3(res.MaxLoad), replanned}
		if spec.CompareUnreplanned {
			row = append(row, unreplanned)
		}
		rows = append(rows, row)
	}

	res, err := p.Plan()
	if err != nil {
		return nil, fmt.Errorf("initial plan: %w", err)
	}
	addRow("initial", res, "-")
	prev := res

	for _, step := range spec.Timeline {
		if _, err := advanceStep(p, step); err != nil {
			return nil, fmt.Errorf("step %q: %w", step.Label, err)
		}
		res, err := p.Plan()
		if err != nil {
			return nil, fmt.Errorf("step %q: %w", step.Label, err)
		}
		unreplanned := "-"
		if spec.CompareUnreplanned {
			unreplanned, err = unreplannedCell(prev, step, res)
			if err != nil {
				return nil, fmt.Errorf("step %q: un-replanned evaluation: %w", step.Label, err)
			}
		}
		addRow(step.Label, res, unreplanned)
		prev = res
	}
	return rows, nil
}

// unreplannedCell evaluates the deployment that kept the previous
// snapshot's plan through the step. Site removals are replayed as node
// failures against the previous artifacts (faults.Unreplanned);
// demand/capacity/weight deltas evaluate the previous placement and
// strategy under the new conditions; metric edits and site additions
// have no previous-topology counterpart and render "-".
func unreplannedCell(prev *plan.Snapshot, step Step, cur *plan.Snapshot) (string, error) {
	if step.ScaleRTT != nil || len(step.AddSites) > 0 {
		return "-", nil
	}
	ev, err := core.NewEval(prev.Topology, prev.System, prev.Placement, cur.Alpha)
	if err != nil {
		return "", err
	}

	// The removed sites, as previous-snapshot indices.
	failed, err := resolveSites(prev.Topology, step.RemoveSites, step.RemoveRegion)
	if err != nil {
		return "", err
	}

	if len(failed) == 0 {
		// Same membership: the un-replanned deployment runs under the
		// step's conditions (alpha and weights) with its old placement
		// and strategy.
		if err := ev.SetClientWeights(cur.Weights); err != nil {
			return "", err
		}
		return f2(ev.AvgResponseTime(prev.Strategy)), nil
	}

	// Failure: surviving clients keep their previous weights; the
	// strategy renormalizes over the surviving quorums.
	if err := ev.SetClientWeights(prev.Weights); err != nil {
		return "", err
	}
	fe, strat, err := faults.Unreplanned(ev, prev.Strategy, dedupe(failed))
	if errors.Is(err, quorum.ErrNoQuorumSurvives) {
		return "down", nil
	}
	if err != nil {
		return "", err
	}
	return f2(fe.AvgResponseTime(strat)), nil
}
