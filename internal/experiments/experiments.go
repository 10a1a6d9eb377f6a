// Package experiments regenerates every figure of the paper's evaluation
// (there are no numbered tables): the Q/U protocol measurements of §3,
// the low-demand placement comparison of §6, the high-demand strategy and
// capacity studies of §7, and the iterative-algorithm study of §8.
// Every figure is declared as a scenario spec — the runners in this
// package only choose the axis values (full or Quick scale) and hand the
// spec to the scenario engine, which expands and executes it; the
// ablation studies keep bespoke runners. cmd/quorumbench prints the
// tables and the benchmarks in the repository root regenerate them under
// `go test -bench`.
package experiments

import (
	"fmt"
	"strconv"

	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Params controls experiment scale. DefaultParams reproduces the paper's
// settings; Quick shrinks everything for fast integration tests.
type Params struct {
	// Seed drives topology synthesis and protocol randomness.
	Seed int64
	// QURuns is how many simulation runs are averaged per point (the
	// paper uses 5).
	QURuns int
	// QUDurationMS is the simulated length of each protocol run.
	QUDurationMS float64
	// Quick trims universe sizes and sweep resolution for tests.
	Quick bool
	// Reproducible forces cold, Dantzig-priced, serial-equivalent LP
	// solves throughout, bit-for-bit reproducing the tables the original
	// (pre-optimization) harness generated. The default fast path —
	// warm-started, partially priced, parallel solves — reaches the same
	// LP optima (objective-derived columns are identical), but on
	// degenerate instances it may return a different optimal vertex,
	// which can shift vertex-dependent columns (e.g. response time of an
	// optimal-delay strategy) within the optimal face.
	Reproducible bool
}

// sweepConfig translates the reproducibility setting into sweep options.
func (p Params) sweepConfig() strategy.SweepConfig {
	return strategy.SweepConfig{Reproducible: p.Reproducible}
}

// DefaultParams mirrors the paper's configuration.
func DefaultParams() Params {
	return Params{
		Seed:         topology.DefaultSeed,
		QURuns:       5,
		QUDurationMS: 20000,
	}
}

func (p Params) quRuns() int {
	if p.QURuns <= 0 {
		return 5
	}
	if p.Quick && p.QURuns > 2 {
		return 2
	}
	return p.QURuns
}

func (p Params) quDuration() float64 {
	d := p.QUDurationMS
	if d <= 0 {
		d = 20000
	}
	if p.Quick && d > 3000 {
		d = 3000
	}
	return d
}

// Table is a figure regenerated as rows of formatted cells. It is the
// scenario engine's table type; every figure runner produces one by
// executing its spec.
type Table = scenario.Table

// RunConfig translates experiment parameters into engine settings. It
// is exported so sharded and fleet runs (cmd/quorumbench -shards,
// -fleet) execute a figure's spec under exactly the configuration its
// runner would use.
func (p Params) RunConfig() scenario.RunConfig {
	return scenario.RunConfig{
		Seed:         p.Seed,
		Reproducible: p.Reproducible,
		QURuns:       p.quRuns(),
		QUDurationMS: p.quDuration(),
	}
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }

// Experiment pairs a figure id with its runner and — for figures
// declared as scenario specs — the spec builder sharded runs partition.
type Experiment struct {
	ID    string
	Title string
	// Run regenerates the table. For a spec-declared figure it executes
	// Spec through the scenario engine.
	Run func(Params) (*Table, error)
	// Spec returns the figure's declarative scenario at the given scale,
	// or nil for bespoke runners (the ablations): only spec-declared
	// figures can be sharded across a fleet.
	Spec func(Params) *scenario.Spec
}

// All lists every figure in paper order.
func All() []Experiment {
	figs := []Experiment{
		{ID: "fig3.1", Title: "Q/U response time and network delay vs clients × universe size (PlanetLab-50)", Spec: SpecFig31},
		{ID: "fig3.2a", Title: "Q/U delay components vs faults t at 100 clients", Spec: SpecFig32a},
		{ID: "fig3.2b", Title: "Q/U delay components vs client count at t=4 (n=21)", Spec: SpecFig32b},
		{ID: "fig6.3", Title: "Response time vs universe size, closest access, alpha=0 (PlanetLab-50)", Spec: SpecFig63},
		{ID: "fig6.4", Title: "Grid response: closest vs balanced at demand 1000/4000 (daxlist-161)", Spec: SpecFig64},
		{ID: "fig6.5", Title: "Grid delay components: closest vs balanced at demand 16000 (daxlist-161)", Spec: SpecFig65},
		{ID: "fig7.6", Title: "Grid response vs universe × uniform capacity, LP strategies, demand 16000 (PlanetLab-50)", Spec: SpecFig76},
		{ID: "fig7.7", Title: "Uniform vs non-uniform capacities across universe sizes (PlanetLab-50)", Spec: SpecFig77},
		{ID: "fig7.8", Title: "7×7 Grid: response vs capacity, uniform vs non-uniform (PlanetLab-50)", Spec: SpecFig78},
		{ID: "fig8.9", Title: "Iterative algorithm network delay vs capacity, 5×5 Grid (PlanetLab-50)", Spec: SpecFig89},
	}
	for i := range figs {
		spec := figs[i].Spec
		figs[i].Run = func(p Params) (*Table, error) { return scenario.Run(spec(p), p.RunConfig()) }
	}
	return figs
}

// ByID returns the experiment (figure or ablation) with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown figure %q", id)
}
