// Command quorumgen replays library workloads against a live quorumd
// as timed delta streams — the load generator of the telemetry loop.
// It compiles a timeline scenario (flash crowd, diurnal demand, RTT
// drift, regional outage, ...) into the exact delta batches the
// scenario engine would apply to its own planner
// (scenario.TimelineStream), then posts them to a deployment's deltas
// endpoint on the timeline's cadence. Because the stream is a pure
// function of (workload, seed) and planning is deterministic, a quorumd
// driven by quorumgen — journaled or not — ends with a version history
// that matches the engine's table (same solver profile) row for row;
// the replay tests assert exactly that under both profiles.
//
// Usage:
//
//	quorumgen -list
//	quorumgen -workload flash-crowd -dry-run
//	quorumgen -workload flash-crowd -target http://127.0.0.1:8080/v1/deltas \
//	          -interval 10s -speedup 60
//
// The target quorumd must be seeded with the workload's deployment
// (same topology, system, strategy, and demand — see -describe), or the
// stream's site names will not resolve. -speedup divides the step
// interval: 60 replays a 10s-cadence day in seconds. -seed feeds the
// scenario engine; two runs with the same workload and seed post
// byte-identical batches in the same order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/quorumnet/quorumnet/internal/probe"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

type genConfig struct {
	target   string
	workload string
	interval time.Duration
	speedup  float64
	seed     int64
	dryRun   bool
	describe bool
	list     bool
}

func main() {
	var cfg genConfig
	flag.StringVar(&cfg.target, "target", "http://127.0.0.1:8080/v1/deltas", "quorumd deltas endpoint to post to")
	flag.StringVar(&cfg.workload, "workload", "", "library timeline workload to replay (see -list)")
	flag.DurationVar(&cfg.interval, "interval", 10*time.Second, "wall-clock spacing between timeline steps before speedup")
	flag.Float64Var(&cfg.speedup, "speedup", 1, "replay acceleration: the step interval is divided by this")
	flag.Int64Var(&cfg.seed, "seed", 1, "scenario seed; same workload + seed = identical delta stream")
	flag.BoolVar(&cfg.dryRun, "dry-run", false, "print the compiled delta stream as JSON instead of posting")
	flag.BoolVar(&cfg.describe, "describe", false, "print the workload's deployment requirements and exit")
	flag.BoolVar(&cfg.list, "list", false, "list replayable timeline workloads and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quorumgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg genConfig, out io.Writer) error {
	if cfg.list {
		for _, spec := range scenario.Library() {
			if spec.Kind == scenario.KindTimeline {
				fmt.Fprintf(out, "%-22s %s\n", spec.Name, spec.Title)
			}
		}
		return nil
	}
	if cfg.workload == "" {
		return fmt.Errorf("-workload is required (try -list)")
	}
	spec, err := scenario.LibraryByName(cfg.workload)
	if err != nil {
		return err
	}
	if spec.Kind != scenario.KindTimeline {
		return fmt.Errorf("workload %q is a %s scenario, not a replayable timeline", cfg.workload, spec.Kind)
	}
	if cfg.speedup <= 0 {
		return fmt.Errorf("-speedup must be positive, got %v", cfg.speedup)
	}

	rcfg := scenario.RunConfig{Seed: cfg.seed}

	if cfg.describe {
		return describe(spec, rcfg, out)
	}

	steps, err := scenario.TimelineStream(spec, rcfg)
	if err != nil {
		return err
	}
	if cfg.dryRun {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(steps)
	}

	pause := time.Duration(float64(cfg.interval) / cfg.speedup)
	poster := &probe.HTTPPoster{URL: cfg.target}
	log.Printf("quorumgen: replaying %s (%d steps, seed %d) against %s, %s per step",
		spec.Name, len(steps), cfg.seed, cfg.target, pause)
	for i, step := range steps {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(pause):
			}
		}
		start := time.Now()
		if err := poster.Post(ctx, step.Deltas); err != nil {
			return fmt.Errorf("step %q: %w", step.Label, err)
		}
		log.Printf("quorumgen: step %d/%d %q: posted %d deltas in %s",
			i+1, len(steps), step.Label, len(step.Deltas), time.Since(start).Round(time.Millisecond))
	}
	log.Printf("quorumgen: replay complete")
	return nil
}

// describe prints what the target deployment must look like for the
// stream's deltas to resolve, derived from the same planner the
// scenario engine would build.
func describe(spec *scenario.Spec, rcfg scenario.RunConfig, out io.Writer) error {
	p, err := scenario.TimelinePlanner(spec, rcfg)
	if err != nil {
		return err
	}
	strat := "closest"
	if len(spec.Strategies) > 0 {
		strat = spec.Strategies[0]
	}
	demand := 0.0
	if len(spec.Demands) > 0 {
		demand = spec.Demands[0]
	}
	fmt.Fprintf(out, "workload:  %s (%s)\n", spec.Name, spec.Title)
	fmt.Fprintf(out, "topology:  %s (%d sites)\n", spec.Topology.Source, p.Size())
	fmt.Fprintf(out, "strategy:  %s\n", strat)
	fmt.Fprintf(out, "demand:    %g\n", demand)
	fmt.Fprintf(out, "steps:     %d\n", len(spec.Timeline))
	fmt.Fprintf(out, "\nquorumd must be seeded to match, e.g.:\n")
	fmt.Fprintf(out, "  quorumd -topology %s -system %s -strategy %s -demand %g\n",
		spec.Topology.Source, systemArg(spec), strat, demand)
	return nil
}

func systemArg(spec *scenario.Spec) string {
	if len(spec.Systems) == 0 {
		return "grid:5"
	}
	a := spec.Systems[0]
	if len(a.Params) == 0 {
		return a.Family
	}
	return fmt.Sprintf("%s:%d", a.Family, a.Params[0])
}
