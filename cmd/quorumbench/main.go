// Command quorumbench regenerates the paper's figures and ablations as
// tables and runs declarative scenarios through the scenario engine —
// locally, sharded across processes, or coordinated over a worker
// fleet. A figure is a scenario spec (scenario.Figures): -fig and -all
// resolve to specs and run exactly as -scenario does, under the one
// scenario.RunConfig the flags build (-seed, -reproducible, -runs,
// -duration) — the run's identity in every process that touches it.
// Every spec run in this process, sharded or not, is NewSpace, each
// shard's execution, then Merge. -quick picks the quick-scale figures
// and caps the Q/U simulation at 2 runs of 3000 ms. The ablations
// (-ablations, -fig abl-…) are bespoke runners that read the seed and
// the solver profile of the same config and run only in this process.
//
// Usage:
//
//	quorumbench -list
//	quorumbench -fig 6.3
//	quorumbench -all
//	quorumbench -all -format markdown > results.md
//	quorumbench -fig 3.1 -seed 7 -runs 3 -duration 10000
//	quorumbench -all -reproducible
//	quorumbench -scenario list
//	quorumbench -scenario diurnal-demand
//	quorumbench -scenario my-workload.json
//	quorumbench -fig 6.3 -format csv
//
// Sharded execution (the merged output is byte-identical to the
// unsharded run, whatever the shard count or completion order):
//
//	quorumbench -fig 6.3 -shards 4                  # all shards locally, merged
//	quorumbench -fig 6.3 -shards 4 -shard 1 > p1.json   # one shard's partial
//	quorumbench -fig 6.3 -shards 4 -merge p0.json,p1.json,p2.json,p3.json
//	quorumbench -fleet-worker -addr :9190           # serve shards for a fleet
//	quorumbench -fig 6.3 -fleet host1:9190,host2:9190   # listed workers, pinned for the run
//
// A listed worker is sent one shard at a time. Elastic fleet — the
// same dispatcher over a roster that changes (workers self-register and
// heartbeat, advertising with -slots how many shards they are sent at
// once; a worker that dies mid-shard has its shard re-dispatched
// immediately, and workers may join mid-run):
//
//	quorumbench -fleet-worker -addr :9190 -join coordinator-host:9200
//	quorumbench -fleet-worker -addr :9190 -join host:9200 -slots 4
//	quorumbench -scenario seed-scale-study -fleet-registry :9200 -min-workers 3 -shards 12
//
// Durable runs (crash recovery): -journal records every dispatch and
// completed shard to an append-only file; -standby tails a journal and
// takes the run over when the primary coordinator's lease goes stale,
// and -resume is the same takeover at once: it reloads the journal,
// verifies the spec hash, and dispatches only the shards without a
// recorded result under the journal's config — the merged output is
// byte-identical to an uninterrupted run. A killed coordinator's
// in-flight shards stop on their workers at their next point boundary:
//
//	quorumbench -fig 6.3 -fleet host1:9190,host2:9190 -shards 8 -journal run.journal
//	quorumbench -resume run.journal -fleet host1:9190,host2:9190
//	quorumbench -standby -journal run.journal -fleet-registry :9201
//
// -scenario runs a workload scenario: "list" prints the built-in
// library, a library name runs that scenario, and anything else is
// loaded as a JSON spec file (see the quorumnet.Scenario type for the
// schema). -shards/-shard/-merge/-fleet/-fleet-registry apply to
// -scenario exactly as they do to -fig; -progress logs per-point
// completions — and, for fleet runs, worker joins/deaths, re-dispatch
// events, and live/dead counts — to stderr so long parameter studies
// are debuggable from the log alone.
//
// By default the LP-heavy figures run on the fast path (warm-started,
// partially priced, parallel solves); -reproducible regenerates the
// tables bit-for-bit as the original serial harness did (see
// EXPERIMENTS.md).
//
// Invocations that would silently ignore a flag are refused (exit 2,
// one line on stderr) before anything runs: at most one of -fig, -all,
// -ablations, -scenario and -list, and none of them with -standby
// (-resume takes one -fig or -scenario to cross-check the journal's
// spec); -list and -scenario list take no other flag; a -fleet-worker
// reads only -addr, -join, -advertise and -slots, which no other mode
// reads; -slots needs -join, -min-workers needs -fleet-registry and
// -lease-ttl needs -standby; -resume and -standby take none of -seed,
// -reproducible, -runs and -duration (the journal records the run), and
// the ablations none of -runs, -duration and -progress; a -shard prints
// JSON whatever -format says; sharded, fleet and resumed runs take one
// spec, never -all or an ablation.
// Contradictory combinations (-fleet with -fleet-registry, -resume with
// -journal, a -shard outside -shards, ...) are refused the same way.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"github.com/quorumnet/quorumnet/internal/experiments"
	"github.com/quorumnet/quorumnet/internal/fleet"
	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func main() { os.Exit(run(os.Args[1:])) }

// options is the parsed command line.
type options struct {
	fig, scen, format                             string
	all, ablations, list, quick, repro, progress  bool
	seed                                          int64
	runs                                          int
	duration                                      float64
	shards, shard, minWorkers                     int
	mergeArg, fleetArg, registry, journal, resume string
	standby                                       bool
	leaseTTL                                      time.Duration
	worker                                        bool
	addr, join, advertise                         string
	slots                                         int
}

// parse reads args into options, refusing with exit code 2 and a
// one-line message the invocations the package comment lists, so a bad
// invocation never half-runs. A nil result means exit with the returned
// code.
func parse(args []string) (*options, int) {
	o := &options{}
	fs := flag.NewFlagSet("quorumbench", flag.ContinueOnError)
	fs.StringVar(&o.fig, "fig", "", "figure or ablation to regenerate (e.g. 6.3, fig6.3, abl-dedup)")
	fs.BoolVar(&o.all, "all", false, "regenerate every paper figure")
	fs.BoolVar(&o.ablations, "ablations", false, "regenerate the ablation studies")
	fs.BoolVar(&o.list, "list", false, "list available figures and ablations")
	fs.StringVar(&o.format, "format", "text", "output format: text, markdown, csv, json")
	fs.BoolVar(&o.quick, "quick", false, "reduced figure scale for smoke testing (-fig, -all or -ablations only)")
	fs.Int64Var(&o.seed, "seed", topology.DefaultSeed, "topology/protocol seed")
	fs.IntVar(&o.runs, "runs", 5, "protocol simulation runs per point")
	fs.Float64Var(&o.duration, "duration", 20000, "protocol simulation length (ms)")
	fs.BoolVar(&o.repro, "reproducible", false, "bit-reproduce the original serial harness's tables (slower)")
	fs.StringVar(&o.scen, "scenario", "", "run a scenario: 'list', a built-in name, or a JSON spec file")
	fs.IntVar(&o.shards, "shards", 0, "split the figure/scenario point-space into this many shards")
	fs.IntVar(&o.shard, "shard", -1, "execute only this shard (0-based, with -shards) and print its partial as JSON")
	fs.StringVar(&o.mergeArg, "merge", "", "comma-separated partial JSON files to merge into the full table")
	fs.StringVar(&o.fleetArg, "fleet", "", "comma-separated fleet worker addresses to run the shards on: a roster pinned for the run (no registration, no heartbeats; a failed shard retries on the others)")
	fs.StringVar(&o.registry, "fleet-registry", "", "listen address for an elastic fleet registry; shards run on self-registered workers (see -join)")
	fs.IntVar(&o.minWorkers, "min-workers", 1, "workers that must be live before an elastic run dispatches (with -fleet-registry)")
	fs.BoolVar(&o.worker, "fleet-worker", false, "serve shard jobs for fleet coordinators (see -addr)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9190", "listen address for -fleet-worker")
	fs.StringVar(&o.join, "join", "", "registry address a -fleet-worker self-registers with (elastic fleet)")
	fs.StringVar(&o.advertise, "advertise", "", "address a -fleet-worker advertises to the registry (default: -addr with 127.0.0.1 for an empty host)")
	fs.IntVar(&o.slots, "slots", 1, "shards a -join worker advertises to the registry; coordinators send it at most this many at once")
	fs.StringVar(&o.journal, "journal", "", "record this fleet run's dispatch/completion protocol to an append-only journal file")
	fs.StringVar(&o.resume, "resume", "", "resume a crashed fleet run from its journal, dispatching only the unrecorded shards")
	fs.BoolVar(&o.standby, "standby", false, "tail -journal as a standby coordinator and take over when the primary's lease goes stale")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 5*time.Second, "journal lease staleness a -standby waits for before taking over")
	fs.BoolVar(&o.progress, "progress", false, "log per-shard/per-point completion counts to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if fs.NArg() > 0 {
		return refuse("unexpected argument %q: every option is a -flag", fs.Arg(0))
	}

	// One pass over the flags given: each mode-only flag needs its mode,
	// a worker takes nothing else, and at most one selector of what to
	// run is given.
	selectors := map[string]bool{"fig": true, "all": true, "ablations": true, "scenario": true, "list": true}
	// The flags that build the scenario.RunConfig: a journaled run
	// already has one, and the ablations read only the seed and the
	// solver profile of it.
	runFlags := map[string]bool{"seed": true, "reproducible": true, "runs": true, "duration": true}
	_, ablation := ablationByID(o.fig)
	ablation = ablation || o.ablations
	needs := map[string]string{"addr": "fleet-worker", "join": "fleet-worker", "advertise": "fleet-worker",
		"slots": "join", "min-workers": "fleet-registry", "lease-ttl": "standby"}
	running := map[string]bool{"fleet-worker": o.worker, "join": o.join != "", "fleet-registry": o.registry != "", "standby": o.standby}
	var picked []string
	var msg string
	fs.Visit(func(f *flag.Flag) {
		mode, modeOnly := needs[f.Name]
		switch {
		case msg != "":
		case o.worker && !modeOnly && f.Name != "fleet-worker":
			msg = fmt.Sprintf("a -fleet-worker only serves shards and reads -addr, -join, -advertise and -slots; drop -%s or drop -fleet-worker", f.Name)
		case o.list && f.Name != "list":
			msg = fmt.Sprintf("-list prints the figures and ablations and reads no other flag; drop -%s", f.Name)
		case o.scen == "list" && f.Name != "scenario":
			msg = fmt.Sprintf("-scenario list prints the scenario library and reads no other flag; drop -%s", f.Name)
		case (o.resume != "" || o.standby) && runFlags[f.Name]:
			msg = fmt.Sprintf("a journaled run keeps the seed, profile and protocol scale its journal records; drop -%s", f.Name)
		case ablation && (f.Name == "runs" || f.Name == "duration" || f.Name == "progress"):
			msg = fmt.Sprintf("the ablations read only -seed and -reproducible (and -quick) and log no progress; drop -%s", f.Name)
		case f.Name == "format" && o.shard >= 0:
			msg = "a -shard always prints its partial as JSON; drop -format"
		case modeOnly && !running[mode]:
			msg = fmt.Sprintf("-%s is read only by -%s; add -%[2]s or drop -%[1]s", f.Name, mode)
		case selectors[f.Name]:
			picked = append(picked, "-"+f.Name)
		}
	})
	switch {
	case msg != "":
		return refuse("%s", msg)
	case len(picked) > 1:
		return refuse("%s each pick what to run; give one of them", strings.Join(picked, " and "))
	case o.standby && len(picked) > 0:
		return refuse("a -standby runs the spec its journal records; drop %s", picked[0])
	}

	switch o.format {
	case "text", "markdown", "csv", "json":
	default:
		return refuse("unknown format %q (text, markdown, csv, json)", o.format)
	}
	if o.shard >= 0 && o.shard >= o.shards {
		return refuse("-shard %d needs a -shards count above it (shards are 0-based: -shards 4 has 0..3)", o.shard)
	}
	if o.quick && o.fig == "" && !o.all && !o.ablations {
		return refuse("-quick scales the figures and ablations only; add -fig <id>, -all or -ablations, or drop -quick")
	}
	oneSpec := o.sharded() || o.resume != ""
	switch {
	case o.worker || o.list || o.standby:
	case ablation:
		if oneSpec {
			return refuse("the ablations are not specs and run only in this process; drop -shards, -shard, -merge, -fleet, -fleet-registry and -resume")
		}
	case oneSpec && (o.all || o.scen == "list"):
		return refuse("sharded, fleet and resumed runs take one spec: -fig <id> or -scenario <name|file>")
	case oneSpec && o.resume == "" && o.fig == "" && o.scen == "":
		return refuse("sharded and fleet runs need -fig <id> or -scenario <name|file>")
	case !oneSpec && len(picked) == 0:
		return refuse("specify -fig <id>, -all, -ablations, -scenario, -fleet-worker, or -list")
	}
	if o.fleetArg != "" && o.registry != "" {
		return refuse("-fleet and -fleet-registry are exclusive; pick a static worker list or an elastic registry")
	}
	if o.resume != "" {
		switch {
		case o.standby:
			return refuse("-resume and -standby are exclusive: a standby resumes by itself when the primary's lease goes stale")
		case o.journal != "":
			return refuse("-resume continues the journal it loads; -journal only starts a new run — drop one of them")
		case o.fleetArg == "" && o.registry == "":
			return refuse("-resume needs workers to dispatch the remaining shards to; add -fleet <addr,...> or -fleet-registry <addr>")
		case o.shard >= 0 || o.mergeArg != "":
			return refuse("-resume re-runs a whole fleet run; it cannot combine with -shard or -merge")
		}
	}
	if o.journal != "" && !o.standby {
		if o.fleetArg == "" && o.registry == "" {
			return refuse("-journal records a fleet run; add -fleet <addr,...> or -fleet-registry <addr> (or -standby to tail an existing journal)")
		}
		if o.shards <= 0 {
			return refuse("-journal needs an explicit -shards count so a -resume knows the partition")
		}
	}
	if o.standby {
		if o.journal == "" {
			return refuse("-standby tails a run journal; name it with -journal <file>")
		}
		if o.fleetArg == "" && o.registry == "" {
			return refuse("-standby needs takeover workers; add -fleet <addr,...> or -fleet-registry <addr>")
		}
	}
	return o, 0
}

// sharded reports whether the run partitions one spec's point-space:
// locally, per shard, by merging partials, or over a fleet.
func (o *options) sharded() bool {
	return o.shards > 0 || o.shard >= 0 || o.mergeArg != "" || o.fleetArg != "" || o.registry != ""
}

func refuse(format string, args ...interface{}) (*options, int) {
	fmt.Fprintf(os.Stderr, "quorumbench: "+format+"\n", args...)
	return nil, 2
}

func run(args []string) int {
	o, code := parse(args)
	if o == nil {
		return code
	}
	switch {
	case o.worker:
		return runFleetWorker(o)
	case o.list:
		for _, s := range scenario.Figures(false) {
			fmt.Printf("%-13s %s\n", s.Name, s.Title)
		}
		for _, a := range experiments.Ablations() {
			fmt.Printf("%-13s %s\n", a.ID, a.Title)
		}
		return 0
	case o.scen == "list":
		for _, s := range scenario.Library() {
			fmt.Printf("%-21s %-9s %s\n", s.Name, s.Kind, s.Title)
		}
		return 0
	case o.standby:
		return runStandby(o)
	case o.resume != "":
		return runResume(o)
	}

	// The one run identity every run below executes under. -quick caps
	// the Q/U simulation here, as it picks the quick-scale figures in
	// resolve.
	cfg := scenario.RunConfig{
		Seed:         o.seed,
		Reproducible: o.repro,
		QURuns:       o.runs,
		QUDurationMS: o.duration,
	}
	if o.quick {
		cfg = cfg.QuickScale()
	}

	// What to run: the selected ablations, or the selected specs, which
	// are also what the sharded and fleet modes partition.
	var ids []string
	var runs []func() (*scenario.Table, error)
	if a, ok := ablationByID(o.fig); ok || o.ablations {
		todo := experiments.Ablations()
		if ok {
			todo = []experiments.Experiment{a}
		}
		for _, a := range todo {
			ids = append(ids, a.ID)
			runs = append(runs, func() (*scenario.Table, error) { return a.Run(cfg, o.quick) })
		}
	} else {
		specs, code := resolve(o)
		if code != 0 {
			return code
		}
		if o.shard >= 0 || o.mergeArg != "" || o.fleetArg != "" || o.registry != "" {
			return runSharded(specs[0], cfg, o) // parse admits one spec here
		}
		for _, spec := range specs {
			ids = append(ids, spec.Name)
			runs = append(runs, func() (*scenario.Table, error) { return runLocal(spec, cfg, o.shards, o.progressSink()) })
		}
	}
	for i, run := range runs {
		if i > 0 && o.format == "text" {
			fmt.Println() // a blank line between the tables of -all and -ablations
		}
		start := time.Now()
		tb, err := run()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", ids[i], err))
		}
		if code := emit(tb, o.format, start); code != 0 {
			return code
		}
	}
	return 0
}

func normalizeFigID(id string) string {
	if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "abl") {
		id = "fig" + id
	}
	return id
}

// ablationByID finds the ablation a -fig argument names, if it names
// one.
func ablationByID(fig string) (experiments.Experiment, bool) {
	id := normalizeFigID(fig)
	for _, a := range experiments.Ablations() {
		if a.ID == id {
			return a, true
		}
	}
	return experiments.Experiment{}, false
}

// resolve turns what the command line selects into the specs to run:
// every figure (-all), one figure (-fig), or a library scenario or spec
// file (-scenario). Figures come at the -quick scale. Returns a
// non-zero exit code on failure.
func resolve(o *options) ([]*scenario.Spec, int) {
	switch {
	case o.all:
		figs := scenario.Figures(o.quick)
		specs := make([]*scenario.Spec, len(figs))
		for i := range figs {
			specs[i] = &figs[i]
		}
		return specs, 0
	case o.fig != "":
		id := normalizeFigID(o.fig)
		for _, spec := range scenario.Figures(o.quick) {
			if spec.Name == id {
				return []*scenario.Spec{&spec}, 0
			}
		}
		return nil, fail(fmt.Errorf("unknown figure %q", id))
	default:
		spec, code := loadSpec(o.scen)
		return []*scenario.Spec{spec}, code
	}
}

// fleetConfig builds the coordinator Config for the selected roster —
// the -fleet addresses, which the coordinator pins, or a registry for
// self-registering workers whose HTTP server it starts (the returned
// cleanup stops it).
func fleetConfig(o *options) (fleet.Config, func(), int) {
	logf := fleetLogf(o.progress)
	if o.registry != "" {
		reg := fleet.NewRegistry(fleet.RegistryOptions{Logf: logf})
		srv := serve.HTTPServer("", reg.Handler())
		ln, err := net.Listen("tcp", o.registry)
		if err != nil {
			return fleet.Config{}, nil, fail(err)
		}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "quorumbench: fleet registry listening on %s\n", ln.Addr())
		return fleet.Config{
			Registry:   reg,
			MinWorkers: o.minWorkers,
			Shards:     o.shards,
			Logf:       logf,
		}, func() { srv.Close() }, 0
	}
	return fleet.Config{
		Workers: strings.Split(o.fleetArg, ","),
		Shards:  o.shards,
		Logf:    logf,
	}, func() {}, 0
}

// runResume takes a crashed fleet run over from its journal at once —
// the standby takeover without waiting for the lease to go stale: load
// the recorded state, cross-check the spec hash when -fig/-scenario is
// also given, continue the journal at the next epoch, and dispatch only
// the shards without a recorded result. The merged output is
// byte-identical to the run the dead coordinator would have produced.
func runResume(o *options) int {
	start := time.Now()
	path := o.resume
	st, err := runjournal.Load(path)
	if err != nil {
		return fail(err)
	}
	if o.fig != "" || o.scen != "" {
		specs, code := resolve(o)
		if code != 0 {
			return code
		}
		h, err := specs[0].Hash()
		if err != nil {
			return fail(err)
		}
		if h != st.SpecHash {
			return fail(fmt.Errorf("journal %s records spec %q (hash %.12s…) but the requested spec hashes %.12s…; resume without -fig/-scenario to use the journal's spec",
				path, st.Spec.Name, st.SpecHash, h))
		}
	}
	if st.Torn {
		fmt.Fprintf(os.Stderr, "quorumbench: journal %s ends mid-record (crash during an append); discarding the torn line\n", path)
	}
	fmt.Fprintf(os.Stderr, "quorumbench: resuming %q from %s: %d/%d shards recorded under %s, continuing at epoch %d\n",
		st.Spec.Name, path, len(st.Completed), st.Shards, st.LeaseOwner, st.Epoch+1)
	fcfg, cleanup, code := fleetConfig(o)
	if code != 0 {
		return code
	}
	defer cleanup()
	sb, err := fleet.NewStandby(fleet.StandbyOptions{Journal: path, Coordinator: fcfg})
	if err != nil {
		return fail(err)
	}
	tb, err := sb.TakeOver(st)
	if err != nil {
		return fail(err)
	}
	return emit(tb, o.format, start)
}

// runStandby tails a run journal until the primary coordinator's lease
// goes stale, then takes the run over on this process's workers. If the
// primary merges the run itself, the standby exits 0 without output.
func runStandby(o *options) int {
	start := time.Now()
	fcfg, cleanup, code := fleetConfig(o)
	if code != 0 {
		return code
	}
	defer cleanup()
	fcfg.Logf = func(f string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}
	sb, err := fleet.NewStandby(fleet.StandbyOptions{
		Journal:     o.journal,
		LeaseTTL:    o.leaseTTL,
		Coordinator: fcfg,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "quorumbench: standby tailing %s (takeover after %s without journal activity)\n", o.journal, o.leaseTTL)
	tb, err := sb.Run(context.Background())
	if err != nil {
		return fail(err)
	}
	if tb == nil {
		return 0 // the primary finished on its own
	}
	return emit(tb, o.format, start)
}

// fleetLogf returns the coordinator/registry log sink: stderr under
// -progress, silent otherwise.
func fleetLogf(progress bool) func(string, ...interface{}) {
	if !progress {
		return nil
	}
	return func(f string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}
}

// runLocal runs one spec in this process, as shards merged (a shard
// count of 0 or 1 is one shard): NewSpace, then each shard's
// ExecuteContext, then Merge. Every local spec run takes this path, so
// a -shards run is the smoke-testable proof that sharding preserves
// bytes.
func runLocal(spec *scenario.Spec, cfg scenario.RunConfig, shards int, progress func(scenario.Progress)) (*scenario.Table, error) {
	space, err := scenario.NewSpace(spec, cfg)
	if err != nil {
		return nil, err
	}
	partials := make([]*scenario.Partial, max(shards, 1))
	for si := range partials {
		part, err := space.Shard(si, len(partials))
		if err != nil {
			return nil, err
		}
		if partials[si], err = part.ExecuteContext(context.Background(), progress); err != nil {
			return nil, err
		}
	}
	return space.Merge(partials)
}

// runSharded executes the merge, fleet and single-shard modes over one
// spec.
func runSharded(spec *scenario.Spec, cfg scenario.RunConfig, o *options) int {
	start := time.Now()
	switch {
	case o.mergeArg != "":
		var partials []*scenario.Partial
		for _, path := range strings.Split(o.mergeArg, ",") {
			data, err := os.ReadFile(strings.TrimSpace(path))
			if err != nil {
				return fail(err)
			}
			var p scenario.Partial
			if err := json.Unmarshal(data, &p); err != nil {
				return fail(fmt.Errorf("%s: %w", path, err))
			}
			partials = append(partials, &p)
		}
		tb, err := scenario.Merge(spec, cfg, partials)
		if err != nil {
			return fail(err)
		}
		return emit(tb, o.format, start)

	case o.registry != "" || o.fleetArg != "":
		// Fleet run: over the listed workers, or a registry waiting for
		// -min-workers self-registrations. With -journal every
		// dispatch and completed shard is made durable for -resume.
		fcfg, cleanup, code := fleetConfig(o)
		if code != 0 {
			return code
		}
		defer cleanup()
		if o.journal != "" {
			jr, err := runjournal.Create(o.journal, spec, cfg, o.shards, runjournal.Options{})
			if err != nil {
				return fail(err)
			}
			defer jr.Close()
			fcfg.Journal = jr
			fmt.Fprintf(os.Stderr, "quorumbench: journaling run to %s\n", o.journal)
		}
		coord, err := fleet.New(fcfg)
		if err != nil {
			return fail(err)
		}
		tb, err := coord.Run(spec, cfg)
		if err != nil {
			return fail(err)
		}
		return emit(tb, o.format, start)

	default: // one shard's partial
		space, err := scenario.NewSpace(spec, cfg)
		if err != nil {
			return fail(err)
		}
		part, err := space.Shard(o.shard, o.shards)
		if err != nil {
			return fail(err)
		}
		partial, err := part.ExecuteContext(context.Background(), o.progressSink())
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(partial); err != nil {
			return fail(err)
		}
		return 0
	}
}

// runFleetWorker serves shard jobs until the process is killed. With
// -join it also keeps a registration lease with an elastic fleet
// registry, heartbeating so coordinators dispatch to it — and re-assign
// its shards the moment it stops answering.
func runFleetWorker(o *options) int {
	advertise := o.advertise
	logf := func(f string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}
	w := fleet.NewWorker(fleet.WorkerOptions{Logf: logf})
	if o.join != "" {
		if advertise == "" {
			advertise = o.addr
			if strings.HasPrefix(advertise, ":") {
				advertise = "127.0.0.1" + advertise
			}
		}
		lease, err := fleet.Join(o.join, advertise, fleet.LeaseOptions{Logf: logf, Slots: o.slots})
		if err != nil {
			return fail(err)
		}
		defer lease.Stop()
		fmt.Fprintf(os.Stderr, "quorumbench: fleet worker joining %s as %s (%d slots)\n", o.join, advertise, o.slots)
	}
	fmt.Fprintf(os.Stderr, "quorumbench: fleet worker listening on %s\n", o.addr)
	return fail(serve.HTTPServer(o.addr, w.Handler()).ListenAndServe())
}

// progressSink is the progress sink of a spec executed in this
// process: under -progress, per-point completion counts with elapsed
// time on stderr; nil otherwise.
func (o *options) progressSink() func(scenario.Progress) {
	if !o.progress {
		return nil
	}
	return func(ev scenario.Progress) {
		fmt.Fprintf(os.Stderr, "progress: %s shard %d/%d: point %d/%d done (%s, %.1fs)\n",
			ev.Scenario, ev.Shard, ev.Shards, ev.Done, ev.Total, ev.Point.Label, ev.Elapsed.Seconds())
	}
}

// emit writes one table in the selected format; text appends a timing
// line naming the table.
func emit(tb *scenario.Table, format string, start time.Time) int {
	switch format {
	case "markdown":
		if err := tb.FormatMarkdown(os.Stdout); err != nil {
			return fail(err)
		}
	case "csv":
		if err := tb.WriteCSV(os.Stdout); err != nil {
			return fail(err)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tb); err != nil {
			return fail(err)
		}
	default:
		if err := tb.Format(os.Stdout); err != nil {
			return fail(err)
		}
		fmt.Printf("(%s in %.1fs)\n", tb.ID, time.Since(start).Seconds())
	}
	return 0
}

// loadSpec resolves a -scenario argument to a spec: a built-in library
// name or a JSON spec file path.
func loadSpec(arg string) (*scenario.Spec, int) {
	spec, err := scenario.LibraryByName(arg)
	if err == nil {
		return spec, 0
	}
	f, ferr := os.Open(arg)
	if ferr != nil {
		return nil, fail(fmt.Errorf("%q is neither a built-in scenario nor a readable spec file: %w", arg, ferr))
	}
	defer f.Close()
	spec, err = scenario.Load(f)
	if err != nil {
		return nil, fail(err)
	}
	return spec, 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "quorumbench:", err)
	return 1
}
