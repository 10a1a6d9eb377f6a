package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// series collects one metric's values over the untraced runs of one
// workload in a result file.
type series map[string]map[string][]float64 // workload → metric → values

func loadSeries(path string) (series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []record
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seriesOf(records, 0), nil
}

func seriesOf(records []record, trace int) series {
	s := series{}
	for _, r := range records {
		if r.Trace != trace {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's bound to the runs of a baseline a and a
// candidate b. The candidate is worse when its median is worse than the
// baseline's by more than the bound. When the baseline's own runs
// spread wider than the bound the comparison resolves nothing — unless
// every candidate run is better than every baseline run.
func verdict(d metricDef, a, b []float64) string {
	worseBy := (median(b) - median(a)) / median(a)
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	if spread(a) > d.Bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return verdictUnresolved
				}
			}
		}
		return verdictOK
	}
	if worseBy > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

// runCompare prints one row per end-to-end metric and workload with
// both files' medians and the verdict, and fails on any "worse".
func runCompare(def *benchmarkFile, pathA, pathB string) int {
	a, err := loadSeries(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSeries(pathB)
	if err != nil {
		return fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median, runs, spread)\tb (median, runs, spread)\tchange\tbound\tverdict")
	code := 0
	for _, w := range def.Workloads {
		for _, d := range def.EndToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue // a subset run: nothing to compare
			}
			v := verdict(d, va, vb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, d.Name, d.Unit,
				median(va), len(va), spread(va)*100,
				median(vb), len(vb), spread(vb)*100,
				(median(vb)-median(va))/median(va)*100, d.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	return code
}

// printSummary is the report of a full run: every metric of every
// workload by name and unit — medians over the untraced runs with their
// run-to-run spread, then the traced run's per-layer values.
func printSummary(def *benchmarkFile, records []record) {
	e2e, layers := seriesOf(records, 0), seriesOf(records, 1)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\truns\tspread (IQR/median)\tbound")
	for _, w := range def.Workloads {
		for _, d := range def.EndToEnd {
			if v := e2e[w.Name][d.Name]; len(v) > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%d\t%.2f%%\t%.0f%%\n", w.Name, d.Name, median(v), d.Unit, len(v), spread(v)*100, d.Bound*100)
			}
		}
	}
	for _, w := range def.Workloads {
		for _, d := range def.PerLayer {
			if v := layers[w.Name][d.Name]; len(v) > 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%d\t\t\n", w.Name, d.Name, median(v), d.Unit, len(v))
			}
		}
	}
	_ = tw.Flush() // standard output; nothing to do about a failure
}
