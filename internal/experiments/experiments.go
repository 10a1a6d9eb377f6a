// Package experiments holds the ablation studies: measurements beyond
// the paper's figures that no scenario spec can express, each a bespoke
// runner over the library's internals. The paper's ten figures are
// specs (scenario.Figures) and run through the scenario engine;
// cmd/quorumbench prints both, and BenchmarkAblations regenerates the
// ablations under `go test -bench`.
package experiments

import (
	"strconv"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

// Table is an ablation regenerated as rows of formatted cells: the
// scenario engine's table type, so both print the same way.
type Table = scenario.Table

// Experiment pairs an ablation id with its runner. A runner reads the
// seed and the solver profile from cfg; quick trims it to smoke scale.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg scenario.RunConfig, quick bool) (*Table, error)
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
