// Command quorumd is the plan-serving daemon: a registry of named
// quorum deployments in one process, each owning a staged planner
// wrapped in a deployment manager. It accepts world deltas (RTT
// probes, capacity changes, demand telemetry) over HTTP per tenant,
// adapts each plan online with placement-move hysteresis, and serves
// the current versioned snapshots to any number of concurrent readers
// — reads come from per-publish cached bytes, and long-polls ride a
// per-tenant epoch broadcast, so one publish wakes every watcher with
// a single channel close.
//
// Usage:
//
//	quorumd -addr :8080 -topology planetlab50 -system grid:5 -strategy lp -demand 8000
//	quorumd -topology wan.txt -system majority:2 -move-cost 10
//	quorumd -deployment "edge:system=grid:4,demand=12000" \
//	        -deployment "core:topology=daxlist161,system=majority:3" \
//	        -journal-dir /var/lib/quorumd -debug-addr 127.0.0.1:8081
//
// API (see internal/serve):
//
//	GET  /v1/deployments                              tenant roster
//	GET  /v1/deployments/<name>/plan                  current snapshot (ETag = version)
//	GET  /v1/deployments/<name>/plan?after=3&timeout=30s  long-poll (timeout=0: don't wait)
//	POST /v1/deployments/<name>/deltas                {"deltas":[{"kind":"demand","value":16000}, ...]}
//	GET  /v1/deployments/<name>/history?limit=10      recent re-plans with provenance
//	GET  /v1/plan, POST /v1/deltas, GET /v1/history   legacy aliases of the default tenant
//
// Each -deployment flag declares one named tenant as
// "name:key=value,...". Keys topology, seed, system, algorithm,
// strategy, demand, move-cost, history override the same-named global
// flags, which act as defaults; the first -deployment is the default
// tenant behind the legacy routes. Without -deployment, the daemon
// serves one tenant named "default" built from the global flags.
//
// -move-cost is the hysteresis threshold in milliseconds of predicted
// average response time: placement moves are taken only when they are
// predicted to win at least that much; strategy-only re-plans are
// always taken. 0 disables hysteresis.
//
// -journal (single-tenant) or -journal-dir (any tenant count) makes
// deployments durable: every applied delta batch is fsynced to the
// tenant's journal, and a daemon restarted with the same flags replays
// each tenant to its exact pre-crash version/ETag history. Journaling
// changes nothing else: a journaled tenant plans exactly as an
// unjournaled one does and serves the same bytes, because the planner
// is a deterministic function of its inputs and the batch sequence.
//
// Re-plans run their wide loops (closure sources, placement anchors,
// pricing groups) on up to GOMAXPROCS cores, shared by every tenant of
// the process; bound that with the GOMAXPROCS environment variable, as
// for any Go program.
//
// -debug-addr starts a second listener with net/http/pprof and
// /debug/vars (expvar), where the per-tenant serving counters — reads,
// 304s, long-poll parks/wakeups, delta batches, re-plan durations —
// are published under "quorumd", so serving regressions are
// diagnosable on a live daemon.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// tenantSpec is one -deployment declaration after parsing: a name plus
// the per-tenant overrides of the global defaults.
type tenantSpec struct {
	name     string
	topo     string
	seed     int64
	system   string
	algo     string
	strat    string
	demand   float64
	moveCost float64
	history  int
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		debugAddr = flag.String("debug-addr", "", "debug listen address: net/http/pprof + /debug/vars with per-tenant serving counters")
		topoArg   = flag.String("topology", "planetlab50", "topology: planetlab50, daxlist161, or a quorumnet-format file path")
		seed      = flag.Int64("seed", topology.DefaultSeed, "topology synthesis seed")
		system    = flag.String("system", "grid:5", "quorum system family:param (e.g. grid:5, majority:2, qumajority:1)")
		algo      = flag.String("algorithm", "one-to-one", "placement algorithm: one-to-one, singleton, many-to-one")
		strat     = flag.String("strategy", "lp", "access strategy: closest, balanced, lp")
		demand    = flag.Float64("demand", 8000, "initial per-client demand (requests)")
		moveCost  = flag.Float64("move-cost", 5, "placement-move hysteresis threshold (ms of predicted response time; 0 disables)")
		history   = flag.Int("history", 64, "re-plan history entries retained")
		maxWait   = flag.Duration("max-wait", 30*time.Second, "long-poll timeout cap")
		maxWatch  = flag.Int("max-watchers", 0, "parked long-poll watchers allowed per tenant before 503 (0 = default cap)")
		jpath     = flag.String("journal", "", "durable delta journal for the single default tenant (restart with the same flags; incompatible with -deployment)")
		jdir      = flag.String("journal-dir", "", "directory of per-tenant delta journals (<dir>/<name>.journal), replayed on restart")
	)
	var deployments []string
	flag.Func("deployment", `named tenant as "name:key=value,..." (keys: topology, seed, system, algorithm, strategy, demand, move-cost, history); repeatable, first one is the legacy-route default`, func(s string) error {
		deployments = append(deployments, s)
		return nil
	})
	flag.Parse()

	if *jpath != "" && len(deployments) > 0 {
		fatal(fmt.Errorf("-journal names one tenant's journal; with -deployment use -journal-dir"))
	}
	if *jpath != "" && *jdir != "" {
		fatal(fmt.Errorf("-journal and -journal-dir are exclusive"))
	}

	defaults := tenantSpec{
		name: serve.DefaultTenant, topo: *topoArg, seed: *seed, system: *system,
		algo: *algo, strat: *strat, demand: *demand, moveCost: *moveCost, history: *history,
	}
	specs := []tenantSpec{defaults}
	if len(deployments) > 0 {
		specs = specs[:0]
		for _, arg := range deployments {
			spec, err := parseTenantSpec(arg, defaults)
			if err != nil {
				fatal(err)
			}
			specs = append(specs, spec)
		}
	}

	journaled := *jpath != "" || *jdir != ""
	reg := serve.NewRegistry(serve.Options{MaxWait: *maxWait, MaxWatchers: *maxWatch})
	for _, spec := range specs {
		start := time.Now()
		m, replayed, err := buildTenant(spec, journalPath(spec.name, *jpath, *jdir))
		if err != nil {
			fatal(fmt.Errorf("deployment %q: %w", spec.name, err))
		}
		if _, err := reg.Open(spec.name, m); err != nil {
			fatal(err)
		}
		snap := m.Current().Snapshot
		if replayed > 0 {
			log.Printf("quorumd: %s: replayed %d journaled delta batches to version %d",
				spec.name, replayed, snap.Version)
		}
		log.Printf("quorumd: %s: planned %s on %s (%d sites) in %s: response %.2fms, net delay %.2fms",
			spec.name, snap.System.Name(), snap.Topology.Name(), snap.Topology.Size(),
			time.Since(start).Round(time.Millisecond), snap.Response, snap.NetDelay)
	}

	if *debugAddr != "" {
		expvar.Publish("quorumd", expvar.Func(func() interface{} { return reg.Stats() }))
		dmux := http.NewServeMux()
		dmux.Handle("/debug/vars", expvar.Handler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Bind before serving, so a taken address stops quorumd as a
		// taken -addr does instead of leaving it up without the listener.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(fmt.Errorf("debug listener: %w", err))
		}
		go func() {
			if err := serve.HTTPServer(*debugAddr, dmux).Serve(ln); err != nil {
				log.Printf("quorumd: debug listener: %v", err)
			}
		}()
		log.Printf("quorumd: debug listener on %s (pprof + expvar)", ln.Addr())
	}

	mode := ""
	if journaled {
		mode = ", journaled"
	}
	log.Printf("quorumd: serving %d deployment(s) %v on %s (default %q%s)",
		len(specs), reg.Names(), *addr, reg.Default().Name(), mode)
	if err := serve.HTTPServer(*addr, reg.Handler()).ListenAndServe(); err != nil {
		fatal(err)
	}
}

// journalPath resolves one tenant's journal path: the explicit
// single-tenant -journal, or <journal-dir>/<name>.journal, or none.
func journalPath(name, jpath, jdir string) string {
	switch {
	case jpath != "":
		return jpath
	case jdir != "":
		return filepath.Join(jdir, name+".journal")
	}
	return ""
}

// buildTenant constructs one tenant's planner and manager, recovering
// from its journal when one is configured. The planner is the same
// either way: durability does not pick the solver profile.
func buildTenant(spec tenantSpec, journal string) (*deploy.Manager, int, error) {
	topo, err := buildTopology(spec.topo, spec.seed)
	if err != nil {
		return nil, 0, err
	}
	sys, err := parseSystem(spec.system)
	if err != nil {
		return nil, 0, err
	}
	p, err := plan.New(topo, plan.Config{
		System:    sys,
		Algorithm: plan.Algorithm(spec.algo),
		Strategy:  plan.StrategyKind(spec.strat),
		Demand:    spec.demand,
	})
	if err != nil {
		return nil, 0, err
	}
	dcfg := deploy.Config{MoveCost: spec.moveCost, HistoryLimit: spec.history}
	if journal == "" {
		m, err := deploy.New(p, dcfg)
		return m, 0, err
	}
	if dir := filepath.Dir(journal); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	return deploy.Recover(p, dcfg, journal)
}

// parseTenantSpec parses one -deployment argument
// ("name:key=value,...") over the global-flag defaults.
func parseTenantSpec(arg string, defaults tenantSpec) (tenantSpec, error) {
	bad := func(format string, args ...interface{}) (tenantSpec, error) {
		return tenantSpec{}, fmt.Errorf("-deployment %q: %s", arg, fmt.Sprintf(format, args...))
	}
	name, rest, _ := strings.Cut(arg, ":")
	if !serve.ValidTenantName(name) {
		return bad("invalid name %q (want 1-64 of [a-zA-Z0-9._-])", name)
	}
	spec := defaults
	spec.name = name
	if rest == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return bad("option %q: want key=value", kv)
		}
		var err error
		switch key {
		case "topology":
			spec.topo = val
		case "seed":
			spec.seed, err = strconv.ParseInt(val, 10, 64)
		case "system":
			spec.system = val
		case "algorithm":
			spec.algo = val
		case "strategy":
			spec.strat = val
		case "demand":
			spec.demand, err = strconv.ParseFloat(val, 64)
		case "move-cost":
			spec.moveCost, err = strconv.ParseFloat(val, 64)
		case "history":
			spec.history, err = strconv.Atoi(val)
		default:
			return bad("unknown key %q (want topology, seed, system, algorithm, strategy, demand, move-cost, history)", key)
		}
		if err != nil {
			return bad("option %q: %v", kv, err)
		}
	}
	return spec, nil
}

func buildTopology(arg string, seed int64) (*topology.Topology, error) {
	switch arg {
	case "planetlab50":
		return topology.PlanetLab50(seed), nil
	case "daxlist161":
		return topology.Daxlist161(seed), nil
	default:
		f, err := os.Open(arg)
		if err != nil {
			return nil, fmt.Errorf("topology %q is neither built-in nor a readable file: %w", arg, err)
		}
		defer f.Close()
		return topology.Load(f)
	}
}

func parseSystem(arg string) (plan.SystemSpec, error) {
	fam, paramStr, found := strings.Cut(arg, ":")
	if fam == "singleton" {
		return plan.SystemSpec{Family: "singleton"}, nil
	}
	if !found {
		return plan.SystemSpec{}, fmt.Errorf("system %q: want family:param (e.g. grid:5) or threshold:q:n", arg)
	}
	if fam == "threshold" {
		qStr, nStr, ok := strings.Cut(paramStr, ":")
		if !ok {
			return plan.SystemSpec{}, fmt.Errorf("system %q: want threshold:q:n", arg)
		}
		q, err := strconv.Atoi(qStr)
		if err != nil {
			return plan.SystemSpec{}, fmt.Errorf("system %q: bad q: %w", arg, err)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil {
			return plan.SystemSpec{}, fmt.Errorf("system %q: bad n: %w", arg, err)
		}
		return plan.SystemSpec{Family: "threshold", Q: q, N: n}, nil
	}
	param, err := strconv.Atoi(paramStr)
	if err != nil {
		return plan.SystemSpec{}, fmt.Errorf("system %q: bad parameter: %w", arg, err)
	}
	return plan.SystemSpec{Family: fam, Param: param}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quorumd:", err)
	os.Exit(1)
}
