// Command bench is the repository's benchmark: it drives real quorumd
// and quorumbench processes over loopback sockets, measures what their
// users wait for, checks that what they returned is correct, and, in a
// separate traced run, splits the time by layer. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory defines them.
//
// Usage (through run.sh, which builds this program first):
//
//	bench/run.sh --workload replan-rtt --seed 1 --seconds 20 --trace 0
//	bench/run.sh -out a.json                 # every workload, both modes
//	bench/run.sh -workloads fanout-64 -repeat 5 -out a.json
//	bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the single declaration of workload
// and metric names, units and regression bounds. The program prints
// exactly the metrics it lists, so the two cannot drift apart.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a single run ends its standard output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as stored in a result file: the result plus what
// is needed to interpret it later.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  int         `json:"seconds"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
}

// environment fingerprints the machine and toolchain of a record.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

// outcome is what a workload run hands back: metric values by name,
// the operations and checks it attempted, and notes for the report.
type outcome struct {
	values    map[string]float64
	attempted int
	failures  []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// attempt counts one operation or check; a non-empty failure fails it.
func (o *outcome) attempt(failure string) {
	o.attempted++
	if failure != "" {
		o.failures = append(o.failures, failure)
	}
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// benchEnv is what every run shares: where the repository and the
// built binaries are, a scratch directory, and the child registry.
type benchEnv struct {
	root  string
	tmp   string
	procs *children
	def   *benchmarkFile
	env   environment
}

func (e *benchEnv) bin(name string) string {
	return filepath.Join(e.root, ".bench_build", "bin", name)
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload once and end standard output with its result line")
		seed      = fs.Int64("seed", 20070625, "workload seed: the same seed generates the same inputs")
		seconds   = fs.Int("seconds", 0, "measured window of one run (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans     = fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>.json)")
		workloads = fs.String("workloads", "", "comma-separated subset of workloads for a full run")
		repeat    = fs.Int("repeat", 1, "untraced runs per workload in a full run, on seeds seed, seed+1, ...")
		out       = fs.String("out", "", "file a full run writes its records to (the input of -compare)")
		compare   = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, def, err := findBenchmark()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		return runCompare(def, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds == 0 {
		*seconds = def.RunSeconds
	}
	if *seconds < 1 || *repeat < 1 {
		return fail(errors.New("-seconds and -repeat must be positive"))
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	selected := names
	switch {
	case *workload != "":
		selected = []string{*workload}
	case *workloads != "":
		selected = strings.Split(*workloads, ",")
	}
	for _, name := range selected {
		if !slices.Contains(names, name) {
			return fail(fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", name, strings.Join(names, ", ")))
		}
	}

	env, err := newBenchEnv(root, def)
	if err != nil {
		return fail(err)
	}
	defer env.close()

	if *workload != "" {
		rec, err := env.runOne(*workload, *seed, *seconds, *trace, *spans)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !rec.Result.Correct {
			return 1
		}
		return 0
	}

	// Full run: every selected workload untraced (-repeat times), then
	// traced once.
	var records []record
	code := 0
	for _, name := range selected {
		for i := 0; i <= *repeat; i++ {
			mode, s := 0, *seed+int64(i)
			if i == *repeat {
				mode, s = 1, *seed
			}
			rec, err := env.runOne(name, s, *seconds, mode, *spans)
			if err != nil {
				return fail(err)
			}
			records = append(records, *rec)
			if !rec.Result.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(records, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	printSummary(def, records)
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// findBenchmark locates the repository root — the nearest directory at
// or above the working directory that holds BENCHMARK.json — and loads
// the file.
func findBenchmark() (string, *benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var def benchmarkFile
			if err := json.Unmarshal(data, &def); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, &def, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// newBenchEnv builds the binaries the workloads run and prepares the
// scratch directory, all under .bench_build in the checkout.
func newBenchEnv(root string, def *benchmarkFile) (*benchEnv, error) {
	env := &benchEnv{root: root, procs: newChildren(), def: def}
	start := time.Now()
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "bin")+string(filepath.Separator),
		"./cmd/quorumd", "./cmd/quorumbench", "./cmd/topogen")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the binaries under test: %w\n%s", err, outp)
	}
	fmt.Fprintf(os.Stderr, "bench: go build of quorumd, quorumbench, topogen: %.1fs (not part of any metric)\n", time.Since(start).Seconds())

	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	env.tmp = tmp
	env.procs.stopOnSignal(tmp)
	env.env = environment{
		Commit:     commitOf(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if lim, err := fdLimit(); err == nil {
		fmt.Fprintf(os.Stderr, "bench: %s, GOMAXPROCS %d of %d CPUs (%s), commit %s, open-file limit %d\n",
			env.env.GoVersion, env.env.GOMAXPROCS, env.env.NumCPU, env.env.CPUModel, env.env.Commit, lim)
	}
	return env, nil
}

// close reaps every child and removes the scratch directory.
func (e *benchEnv) close() {
	e.procs.stopAll()
	_ = os.RemoveAll(e.tmp) // scratch only; a leftover is harmless
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	outp, err := cmd.Output()
	if err != nil {
		return "unknown" // an exported checkout is not a repository
	}
	return strings.TrimSpace(string(outp))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// runOne executes one run of one workload and turns its outcome into a
// record holding exactly the metrics BENCHMARK.json declares for the
// mode. A per-layer metric the workload's path does not touch reads 0.
func (e *benchEnv) runOne(name string, seed int64, seconds, trace int, spansPath string) (*record, error) {
	window := time.Duration(seconds) * time.Second
	if spansPath == "" {
		spansPath = filepath.Join(e.root, ".bench_build", "spans-"+name+".json")
	}
	fmt.Fprintf(os.Stderr, "\n== %s  seed %d  %ds  trace %d ==\n", name, seed, seconds, trace)
	var out *outcome
	var err error
	if name == studyWorkload {
		if trace == 1 {
			out, err = traceStudy(e, seed, spansPath)
		} else {
			out, err = runStudy(e, seed, window)
		}
	} else {
		i := slices.IndexFunc(daemonSpecs, func(s daemonSpec) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("BENCHMARK.json lists workload %q, which this program does not implement", name)
		}
		spec := daemonSpecs[i]
		if trace == 1 {
			out, err = traceDaemon(e, spec, seed, window, spansPath)
		} else {
			out, err = runDaemon(e, spec, seed, window)
		}
	}
	// Whatever the run started is stopped before the next one begins.
	e.procs.stopAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	defs := e.def.EndToEnd
	if trace == 1 {
		defs = e.def.PerLayer
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && trace == 0 {
			return nil, fmt.Errorf("%s: run produced no %s", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", d.Name, v, d.Unit)
	}
	for produced := range out.values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == produced }) {
			return nil, fmt.Errorf("%s: run produced %s, which BENCHMARK.json does not declare", name, produced)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for i, f := range out.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... and %d more failures\n", len(out.failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	return &record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Env: e.env, Result: res}, nil
}
