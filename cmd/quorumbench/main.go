// Command quorumbench regenerates the paper's figures as text tables and
// runs declarative scenarios through the scenario engine — locally,
// sharded across processes, or coordinated over a worker fleet.
//
// Usage:
//
//	quorumbench -list
//	quorumbench -fig 6.3
//	quorumbench -all
//	quorumbench -all -markdown > results.md
//	quorumbench -fig 3.1 -seed 7 -runs 3 -duration 10000
//	quorumbench -fig 7.6 -cpuprofile fig76.prof
//	quorumbench -all -reproducible
//	quorumbench -scenario list
//	quorumbench -scenario diurnal-demand
//	quorumbench -scenario my-workload.json
//	quorumbench -fig 6.3 -format csv
//	quorumbench -bench-out BENCH_plan.json -bench-sites 100,1000,10000
//	quorumbench -bench-out BENCH_plan.json -bench-sites 1000 -bench-clients 1000 -bench-system 8-of-15
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
// Elastic fleet — the same dispatcher over a roster that changes
// (workers self-register and heartbeat; a worker that dies mid-shard
// has its shard re-dispatched immediately, and workers may join
// mid-run):
//
//	quorumbench -fleet-worker -addr :9190 -join coordinator-host:9200
//	quorumbench -fleet-worker -addr :9190 -join host:9200 -slots 4 -cores 8
//	quorumbench -scenario seed-scale-study -fleet-registry :9200 -min-workers 3 -shards 12
//
// Durable runs (crash recovery): -journal records every dispatch and
// completed shard to an append-only file; -resume reloads it, verifies
// the spec hash, and dispatches only the shards without a recorded
// result — the merged output is byte-identical to an uninterrupted run.
// -standby tails a journal and takes over automatically when the
// primary coordinator's lease goes stale:
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
// EXPERIMENTS.md). -cpuprofile/-memprofile write pprof profiles of the
// figure runs so performance work does not need throwaway harnesses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/quorumnet/quorumnet/internal/experiments"
	"github.com/quorumnet/quorumnet/internal/fleet"
	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func main() { os.Exit(run()) }

// run carries the real main body so deferred profile writers execute
// before the process exits, even on figure errors — a failing run is
// exactly the one worth profiling.
func run() int {
	var (
		fig       = flag.String("fig", "", "figure or ablation to regenerate (e.g. 6.3, fig6.3, abl-dedup)")
		all       = flag.Bool("all", false, "regenerate every paper figure")
		ablations = flag.Bool("ablations", false, "regenerate the ablation studies")
		list      = flag.Bool("list", false, "list available figures and ablations")
		markdown  = flag.Bool("markdown", false, "emit markdown tables (same as -format markdown)")
		format    = flag.String("format", "", "output format: text (default), markdown, csv, json")
		quick     = flag.Bool("quick", false, "reduced figure scale for smoke testing (-fig, -all or -ablations only)")
		seed      = flag.Int64("seed", topology.DefaultSeed, "topology/protocol seed")
		runs      = flag.Int("runs", 5, "protocol simulation runs per point")
		duration  = flag.Float64("duration", 20000, "protocol simulation length (ms)")
		repro     = flag.Bool("reproducible", false, "bit-reproduce the original serial harness's tables (slower)")
		scen      = flag.String("scenario", "", "run a scenario: 'list', a built-in name, or a JSON spec file")
		shards    = flag.Int("shards", 0, "split the figure/scenario point-space into this many shards")
		shard     = flag.Int("shard", -1, "execute only this shard (0-based, with -shards) and print its partial as JSON")
		mergeArg  = flag.String("merge", "", "comma-separated partial JSON files to merge into the full table")
		fleetArg  = flag.String("fleet", "", "comma-separated fleet worker addresses to run the shards on: a roster pinned for the run (no registration, no heartbeats; a failed shard retries on the others)")
		fleetReg  = flag.String("fleet-registry", "", "listen address for an elastic fleet registry; shards run on self-registered workers (see -join)")
		minWork   = flag.Int("min-workers", 1, "workers that must be live before an elastic run dispatches")
		worker    = flag.Bool("fleet-worker", false, "serve shard jobs for fleet coordinators (see -addr)")
		addr      = flag.String("addr", "127.0.0.1:9190", "listen address for -fleet-worker")
		join      = flag.String("join", "", "registry address a -fleet-worker self-registers with (elastic fleet)")
		advertise = flag.String("advertise", "", "address the worker advertises to the registry (default: -addr with 127.0.0.1 for an empty host)")
		slots     = flag.Int("slots", 1, "shard slots a -fleet-worker advertises; coordinators weight dispatch by free slots")
		cores     = flag.Int("cores", 0, "cores a -fleet-worker advertises (informational; shown in the registry roster)")
		jpath     = flag.String("journal", "", "record this fleet run's dispatch/completion protocol to an append-only journal file")
		resumeArg = flag.String("resume", "", "resume a crashed fleet run from its journal, dispatching only the unrecorded shards")
		standby   = flag.Bool("standby", false, "tail -journal as a standby coordinator and take over when the primary's lease goes stale")
		leaseTTL  = flag.Duration("lease-ttl", 5*time.Second, "journal lease staleness a -standby waits for before taking over")
		progress  = flag.Bool("progress", false, "log per-shard/per-point completion counts to stderr")
		benchOut  = flag.String("bench-out", "", "time the planning pipeline per stage on AS-graph topologies and write the JSON report here (see BENCH_plan.json)")
		benchSite = flag.String("bench-sites", "100,1000", "comma-separated site counts for -bench-out")
		benchCli  = flag.String("bench-clients", "", "comma-separated client counts for the -bench-out strategy stage (default: every site is a client)")
		benchSys  = flag.String("bench-system", "3-of-5", "threshold system for the -bench-out strategy stage, as k-of-n (8-of-15 is the colgen showcase)")
		benchCaps = flag.Float64("bench-caps", 1, "multiplier on every site capacity for the -bench-out strategy stage; below 1 the capacity rows bind")
		benchBase = flag.Bool("bench-baselines", true, "time the dense Floyd–Warshall and dense-simplex baselines alongside the fast paths (false: fast paths only, for smoke runs)")
		benchSrv  = flag.String("bench-serve", "", "load-test the multi-tenant serving plane in-process (long-poll watcher fan-out, cached-read allocs) and write the JSON report here (see BENCH_serve.json)")
		benchWtch = flag.String("bench-watchers", "10000,100000,1000000", "comma-separated watcher counts for -bench-serve")
		benchTen  = flag.String("bench-serve-tenants", "1,4,16", "comma-separated tenant counts for -bench-serve")
		benchRnds = flag.Int("bench-serve-rounds", 4, "publish rounds per -bench-serve point")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile after the figure runs to this file")
	)
	flag.Parse()

	outFormat := *format
	if outFormat == "" {
		outFormat = "text"
		if *markdown {
			outFormat = "markdown"
		}
	}
	switch outFormat {
	case "text", "markdown", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "quorumbench: unknown format %q (text, markdown, csv, json)\n", outFormat)
		return 2
	}

	// Contradictory-flag rejection: each message names the conflict and
	// the fix, so a bad invocation never half-runs.
	if *worker && (*jpath != "" || *resumeArg != "" || *standby) {
		fmt.Fprintln(os.Stderr, "quorumbench: -journal/-resume/-standby are coordinator flags; a -fleet-worker serves shards and keeps no journal — drop them or drop -fleet-worker")
		return 2
	}
	if *shard >= 0 && *shards > 0 && *shard >= *shards {
		fmt.Fprintf(os.Stderr, "quorumbench: -shard %d is out of range for -shards %d (shards are 0-based: 0..%d)\n", *shard, *shards, *shards-1)
		return 2
	}
	if *quick && *fig == "" && !*all && !*ablations {
		fmt.Fprintln(os.Stderr, "quorumbench: -quick scales the figure runners only; add -fig <id>, -all or -ablations, or drop -quick")
		return 2
	}
	if *fleetArg != "" && *fleetReg != "" {
		fmt.Fprintln(os.Stderr, "quorumbench: -fleet and -fleet-registry are exclusive; pick a static worker list or an elastic registry")
		return 2
	}
	if *resumeArg != "" {
		if *standby {
			fmt.Fprintln(os.Stderr, "quorumbench: -resume and -standby are exclusive: a standby resumes by itself when the primary's lease goes stale")
			return 2
		}
		if *jpath != "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -resume continues the journal it loads; -journal only starts a new run — drop one of them")
			return 2
		}
		if *fleetArg == "" && *fleetReg == "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -resume needs workers to dispatch the remaining shards to; add -fleet <addr,...> or -fleet-registry <addr>")
			return 2
		}
		if *shard >= 0 || *mergeArg != "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -resume re-runs a whole fleet run; it cannot combine with -shard or -merge")
			return 2
		}
	}
	if *jpath != "" && !*standby {
		if *fleetArg == "" && *fleetReg == "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -journal records a fleet run; add -fleet <addr,...> or -fleet-registry <addr> (or -standby to tail an existing journal)")
			return 2
		}
		if *shards <= 0 {
			fmt.Fprintln(os.Stderr, "quorumbench: -journal needs an explicit -shards count so a -resume knows the partition")
			return 2
		}
	}
	if *standby {
		if *jpath == "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -standby tails a run journal; name it with -journal <file>")
			return 2
		}
		if *fleetArg == "" && *fleetReg == "" {
			fmt.Fprintln(os.Stderr, "quorumbench: -standby needs takeover workers; add -fleet <addr,...> or -fleet-registry <addr>")
			return 2
		}
	}

	if *worker {
		return runFleetWorker(*addr, *join, *advertise, *slots, *cores)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprof)

	if *benchOut != "" {
		return runBenchOut(*benchOut, *benchSite, *benchCli, *benchSys, *benchCaps, *benchBase, *seed)
	}

	if *benchSrv != "" {
		return runBenchServe(*benchSrv, *benchWtch, *benchTen, *benchRnds, *seed)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Ablations() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	params := experiments.Params{
		Seed:         *seed,
		QURuns:       *runs,
		QUDurationMS: *duration,
		Quick:        *quick,
		Reproducible: *repro,
	}
	// Every -scenario mode runs under this engine configuration; figures
	// derive theirs from params, which also applies -quick trimming.
	scenCfg := scenario.RunConfig{
		Seed:         *seed,
		Reproducible: *repro,
		QURuns:       *runs,
		QUDurationMS: *duration,
	}
	if *progress {
		scenCfg.Progress = logProgress
	}

	// Sharded, fleet, merge, resume, and standby modes operate on one
	// spec's point-space.
	if *shards > 0 || *shard >= 0 || *mergeArg != "" || *fleetArg != "" || *fleetReg != "" || *resumeArg != "" || *standby {
		opts := shardedOptions{
			shards:     *shards,
			shard:      *shard,
			mergeArg:   *mergeArg,
			fleetArg:   *fleetArg,
			registry:   *fleetReg,
			minWorkers: *minWork,
			format:     outFormat,
			progress:   *progress,
			journal:    *jpath,
			leaseTTL:   *leaseTTL,
		}
		if *standby {
			return runStandby(opts)
		}
		if *resumeArg != "" {
			return runResume(*fig, *scen, params, scenCfg, *resumeArg, opts)
		}
		spec, cfg, code := resolveSpec(*fig, *scen, params, scenCfg)
		if code != 0 {
			return code
		}
		return runSharded(spec, cfg, opts)
	}

	if *scen != "" {
		return runScenario(*scen, scenCfg, outFormat)
	}

	var todo []experiments.Experiment
	switch {
	case *all:
		todo = experiments.All()
	case *ablations:
		todo = experiments.Ablations()
	case *fig != "":
		e, err := experiments.ByID(normalizeFigID(*fig))
		if err != nil {
			return fail(err)
		}
		todo = []experiments.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "specify -fig <id>, -all, -ablations, -scenario, -fleet-worker, or -list")
		return 2
	}

	for _, e := range todo {
		start := time.Now()
		tb, err := e.Run(params)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		if code := emit(tb, outFormat, e.ID, start, "\n\n"); code != 0 {
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

// resolveSpec finds the declarative spec sharded modes partition: a
// figure's (-fig), run under its params' configuration, or a
// scenario's (-scenario), run under scenCfg. Returns a non-zero exit
// code on failure.
func resolveSpec(fig, scen string, params experiments.Params, scenCfg scenario.RunConfig) (*scenario.Spec, scenario.RunConfig, int) {
	switch {
	case fig != "" && scen != "":
		fmt.Fprintln(os.Stderr, "quorumbench: sharded runs take -fig or -scenario, not both")
		return nil, scenario.RunConfig{}, 2
	case fig != "":
		e, err := experiments.ByID(normalizeFigID(fig))
		if err != nil {
			return nil, scenario.RunConfig{}, fail(err)
		}
		if e.Spec == nil {
			return nil, scenario.RunConfig{}, fail(fmt.Errorf("%s is a bespoke runner without a declarative spec; it cannot shard", e.ID))
		}
		cfg := params.RunConfig()
		cfg.Progress = scenCfg.Progress
		return e.Spec(params), cfg, 0
	case scen != "" && scen != "list":
		spec, code := loadSpec(scen)
		if code != 0 {
			return nil, scenario.RunConfig{}, code
		}
		return spec, scenCfg, 0
	default:
		fmt.Fprintln(os.Stderr, "quorumbench: sharded runs need -fig <id> or -scenario <name|file>")
		return nil, scenario.RunConfig{}, 2
	}
}

// shardedOptions carries the sharded/fleet/merge mode selection.
type shardedOptions struct {
	shards     int
	shard      int
	mergeArg   string
	fleetArg   string
	registry   string
	minWorkers int
	format     string
	progress   bool
	journal    string
	leaseTTL   time.Duration
}

// fleetConfig builds the coordinator Config for the selected roster —
// the -fleet addresses, which the coordinator pins, or a registry for
// self-registering workers whose HTTP server it starts (the returned
// cleanup stops it).
func fleetConfig(opts shardedOptions) (fleet.Config, func(), int) {
	logf := fleetLogf(opts.progress)
	if opts.registry != "" {
		reg := fleet.NewRegistry(fleet.RegistryOptions{Logf: logf})
		srv := serve.HTTPServer("", reg.Handler())
		ln, err := net.Listen("tcp", opts.registry)
		if err != nil {
			return fleet.Config{}, nil, fail(err)
		}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "quorumbench: fleet registry listening on %s\n", ln.Addr())
		return fleet.Config{
			Registry:   reg,
			MinWorkers: opts.minWorkers,
			Shards:     opts.shards,
			Logf:       logf,
		}, func() { srv.Close() }, 0
	}
	return fleet.Config{
		Workers: strings.Split(opts.fleetArg, ","),
		Shards:  opts.shards,
		Logf:    logf,
	}, func() {}, 0
}

// runResume continues a crashed fleet run from its journal: load the
// recorded state, cross-check the spec hash when -fig/-scenario is also
// given, reopen the journal at the next epoch, and dispatch only the
// shards without a recorded result. The merged output is byte-identical
// to the run the dead coordinator would have produced.
func runResume(fig, scen string, params experiments.Params, scenCfg scenario.RunConfig, path string, opts shardedOptions) int {
	start := time.Now()
	st, err := runjournal.Load(path)
	if err != nil {
		return fail(err)
	}
	if fig != "" || scen != "" {
		spec, _, code := resolveSpec(fig, scen, params, scenCfg)
		if code != 0 {
			return code
		}
		h, err := spec.Hash()
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
	jr, err := runjournal.Continue(path, st, runjournal.Options{Owner: "resume"})
	if err != nil {
		return fail(err)
	}
	defer jr.Close()

	opts.shards = st.Shards
	fcfg, cleanup, code := fleetConfig(opts)
	if code != 0 {
		return code
	}
	defer cleanup()
	fcfg.Journal = jr
	coord, err := fleet.New(fcfg)
	if err != nil {
		return fail(err)
	}
	cfg := st.Config.RunConfig()
	if opts.progress {
		cfg.Progress = logProgress
	}
	tb, err := coord.Resume(st.Spec, cfg, st.Completed)
	if err != nil {
		return fail(err)
	}
	return emit(tb, opts.format, st.Spec.Name, start, "\n")
}

// runStandby tails a run journal until the primary coordinator's lease
// goes stale, then takes the run over on this process's workers. If the
// primary merges the run itself, the standby exits 0 without output.
func runStandby(opts shardedOptions) int {
	start := time.Now()
	fcfg, cleanup, code := fleetConfig(opts)
	if code != 0 {
		return code
	}
	defer cleanup()
	fcfg.Logf = func(f string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}
	sb, err := fleet.NewStandby(fleet.StandbyOptions{
		Journal:     opts.journal,
		LeaseTTL:    opts.leaseTTL,
		Coordinator: fcfg,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "quorumbench: standby tailing %s (takeover after %s without journal activity)\n", opts.journal, opts.leaseTTL)
	tb, err := sb.Run(context.Background())
	if err != nil {
		return fail(err)
	}
	if tb == nil {
		return 0 // the primary finished on its own
	}
	name := "run"
	if st, err := runjournal.Load(opts.journal); err == nil && st.Spec != nil {
		name = st.Spec.Name
	}
	return emit(tb, opts.format, name, start, "\n")
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

// runSharded executes the sharded/fleet/merge modes over one spec.
func runSharded(spec *scenario.Spec, cfg scenario.RunConfig, opts shardedOptions) int {
	start := time.Now()
	shards, shard := opts.shards, opts.shard
	mergeArg, fleetArg, format := opts.mergeArg, opts.fleetArg, opts.format
	switch {
	case mergeArg != "":
		var partials []*scenario.Partial
		for _, path := range strings.Split(mergeArg, ",") {
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
		return emit(tb, format, spec.Name, start, "\n")

	case opts.registry != "" || fleetArg != "":
		// Fleet run: over the listed workers, or a registry waiting for
		// -min-workers self-registrations. With -journal every
		// dispatch and completed shard is made durable for -resume.
		fcfg, cleanup, code := fleetConfig(opts)
		if code != 0 {
			return code
		}
		defer cleanup()
		if opts.journal != "" {
			jr, err := runjournal.Create(opts.journal, spec, cfg.Settings(), shards, runjournal.Options{})
			if err != nil {
				return fail(err)
			}
			defer jr.Close()
			fcfg.Journal = jr
			fmt.Fprintf(os.Stderr, "quorumbench: journaling run to %s\n", opts.journal)
		}
		coord, err := fleet.New(fcfg)
		if err != nil {
			return fail(err)
		}
		tb, err := coord.Run(spec, cfg)
		if err != nil {
			return fail(err)
		}
		return emit(tb, format, spec.Name, start, "\n")

	case shard >= 0:
		if shards <= 0 {
			fmt.Fprintln(os.Stderr, "quorumbench: -shard needs -shards")
			return 2
		}
		space, err := scenario.NewSpace(spec, cfg)
		if err != nil {
			return fail(err)
		}
		part, err := space.Shard(shard, shards)
		if err != nil {
			return fail(err)
		}
		partial, err := part.Execute()
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(partial); err != nil {
			return fail(err)
		}
		return 0

	default:
		// All shards in this process, merged — the smoke-testable proof
		// that sharding preserves bytes.
		space, err := scenario.NewSpace(spec, cfg)
		if err != nil {
			return fail(err)
		}
		partials := make([]*scenario.Partial, shards)
		for si := 0; si < shards; si++ {
			part, err := space.Shard(si, shards)
			if err != nil {
				return fail(err)
			}
			if partials[si], err = part.Execute(); err != nil {
				return fail(err)
			}
		}
		tb, err := space.Merge(partials)
		if err != nil {
			return fail(err)
		}
		return emit(tb, format, spec.Name, start, "\n")
	}
}

// runFleetWorker serves shard jobs until the process is killed. With
// -join it also keeps a registration lease with an elastic fleet
// registry, heartbeating so coordinators dispatch to it — and re-assign
// its shards the moment it stops answering.
func runFleetWorker(addr, join, advertise string, slots, cores int) int {
	logf := func(f string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, f+"\n", args...)
	}
	w := fleet.NewWorker(fleet.WorkerOptions{Logf: logf})
	if join != "" {
		if advertise == "" {
			advertise = addr
			if strings.HasPrefix(advertise, ":") {
				advertise = "127.0.0.1" + advertise
			}
		}
		lease, err := fleet.Join(join, advertise, fleet.LeaseOptions{Logf: logf, Slots: slots, Cores: cores})
		if err != nil {
			return fail(err)
		}
		defer lease.Stop()
		fmt.Fprintf(os.Stderr, "quorumbench: fleet worker joining %s as %s (%d slots)\n", join, advertise, slots)
	}
	fmt.Fprintf(os.Stderr, "quorumbench: fleet worker listening on %s\n", addr)
	return fail(serve.HTTPServer(addr, w.Handler()).ListenAndServe())
}

// logProgress is the -progress handler: per-point completion counts
// with elapsed time.
func logProgress(ev scenario.Progress) {
	fmt.Fprintf(os.Stderr, "progress: %s shard %d/%d: point %d/%d done (%s, %.1fs)\n",
		ev.Scenario, ev.Shard, ev.Shards, ev.Done, ev.Total, ev.Point.Label, ev.Elapsed.Seconds())
}

// emit writes one table in the selected format; text appends the timing
// line the classic paths printed (trailer is its tail: "\n" after
// figures, "" after scenarios keeps historic spacing).
func emit(tb *scenario.Table, format, id string, start time.Time, trailer string) int {
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
		fmt.Printf("(%s in %.1fs)%s", id, time.Since(start).Seconds(), trailer)
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

// runScenario resolves the -scenario argument: "list", a built-in
// library name, or a JSON spec file path.
func runScenario(arg string, cfg scenario.RunConfig, format string) int {
	if arg == "list" {
		for _, s := range scenario.Library() {
			fmt.Printf("%-21s %-9s %s\n", s.Name, s.Kind, s.Title)
		}
		return 0
	}
	spec, code := loadSpec(arg)
	if code != 0 {
		return code
	}
	start := time.Now()
	tb, err := scenario.Run(spec, cfg)
	if err != nil {
		return fail(err)
	}
	return emit(tb, format, spec.Name, start, "\n")
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumbench:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "quorumbench:", err)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "quorumbench:", err)
	return 1
}
