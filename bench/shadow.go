package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// shadowPlanConfig is the plan.Config quorumd builds for the daemon
// workloads' flags (cmd/quorumd buildTenant, no journal).
func shadowPlanConfig() plan.Config {
	return plan.Config{
		System:    plan.SystemSpec{Family: "grid", Param: daemonGridParam},
		Algorithm: plan.AlgoOneToOne,
		Strategy:  plan.StratLP,
		Demand:    daemonDemand,
	}
}

// shadow is an in-process deployment built like the daemon's tenant:
// replaying the batches the daemon was sent through it must reproduce
// the daemon's replies, placements and plan bodies.
type shadow struct {
	m *deploy.Manager
	t *serve.Tenant
}

func newShadow(topo *topology.Topology) (*shadow, error) {
	p, err := plan.New(topo, shadowPlanConfig())
	if err != nil {
		return nil, err
	}
	m, err := deploy.New(p, deploy.Config{MoveCost: daemonMoveCost, HistoryLimit: daemonHistory})
	if err != nil {
		return nil, err
	}
	t, err := serve.NewRegistry(serve.Options{}).Open(serve.DefaultTenant, m)
	if err != nil {
		return nil, err
	}
	return &shadow{m: m, t: t}, nil
}

// check applies one recorded batch and compares the outcome with what
// the daemon answered; it returns "" when they agree. Placements,
// decisions and versions must match exactly, response times to 1e-6
// relative, and the encoded plan body byte for byte. With a tracer the
// two calls are recorded as deploy.apply and serve.encode spans.
func (s *shadow) check(o *op, tr *tracer) string {
	var entry *deploy.Entry
	var err error
	apply, _ := tr.time("deploy.apply", o.seq, -1, func() { entry, err = s.m.Apply(o.batch) })
	if err != nil {
		return fmt.Sprintf("batch %d: replay failed: %v", o.seq, err)
	}
	var enc *serve.Encoded
	tr.time("serve.encode", o.seq, apply, func() { enc = s.t.Encoded() })

	snap, r := entry.Snapshot, o.reply
	sites := make([]string, snap.Placement.UniverseSize())
	for u := range sites {
		sites[u] = snap.Topology.Site(snap.Placement.Node(u)).Name
	}
	switch {
	case snap.Version != r.Version:
		return fmt.Sprintf("batch %d: daemon published version %d, replay %d", o.seq, r.Version, snap.Version)
	case entry.Decision != r.Provenance.Decision:
		return fmt.Sprintf("batch %d: daemon decided %q, replay %q", o.seq, r.Provenance.Decision, entry.Decision)
	case math.Abs(snap.Response-r.ResponseMS) > 1e-6*math.Abs(snap.Response):
		return fmt.Sprintf("batch %d: daemon predicts %.9g ms, replay %.9g ms", o.seq, r.ResponseMS, snap.Response)
	case !slices.Equal(sites, o.elementSites):
		return fmt.Sprintf("batch %d: daemon placed elements on %v, replay on %v", o.seq, o.elementSites, sites)
	case hashBody(enc.Body) != o.bodyHash:
		return fmt.Sprintf("batch %d: plan body of version %d differs from the replay's encoding", o.seq, r.Version)
	}
	return ""
}

// layerProbe times the public stage functions the planner runs inside
// Plan, on the state the planner is in, so that a re-plan's time can be
// split by layer without instrumenting the program. It keeps a bare
// planner (no manager, so exactly one Plan per batch) and the stage
// inputs in step with the batches it is given.
type layerProbe struct {
	tr *tracer
	p  *plan.Planner

	// Stage inputs, mirroring the planner's.
	name  string
	sites []topology.Site
	raw   *graph.Matrix
	caps  []float64
	alpha float64
	sys   quorum.System
	// Stage artifacts, rebuilt by full.
	topo  *topology.Topology
	eval  *core.Eval
	opt   *strategy.Optimizer
	strat core.Strategy

	coldMS    float64
	itersCold []float64
	itersWarm []float64
	warmHits  int // warm solves the LP answered from the previous basis
}

func newLayerProbe(tr *tracer, topo *topology.Topology) (*layerProbe, error) {
	cfg := shadowPlanConfig()
	sys, err := cfg.System.Build()
	if err != nil {
		return nil, err
	}
	pr := &layerProbe{
		tr:    tr,
		name:  topo.Name(),
		sites: make([]topology.Site, topo.Size()),
		raw:   topo.Distances().Clone(),
		caps:  topo.Capacities(),
		alpha: core.AlphaForDemand(cfg.Demand),
		sys:   sys,
	}
	for i := range pr.sites {
		pr.sites[i] = topo.Site(i)
	}
	_, pr.coldMS = tr.time("plan.cold", -1, -1, func() {
		if pr.p, err = plan.New(topo, cfg); err == nil {
			_, err = pr.p.Plan()
		}
	})
	if err != nil {
		return nil, err
	}
	// The stage-by-stage counterpart of that cold plan.
	if err := pr.full(-1, -1); err != nil {
		return nil, err
	}
	return pr, nil
}

// measure applies one batch to the planner and the stage inputs and
// times its re-plan, then replays the stages that re-plan ran as child
// spans of the plan span. They run right after the call they explain,
// not inside it: the planner is not instrumented.
func (pr *layerProbe) measure(o *op) error {
	for _, d := range o.batch {
		if err := d.ApplyTo(pr.p); err != nil {
			return err
		}
		switch d.Kind {
		case deploy.KindRTT:
			pr.raw.Set(pr.p.SiteIndex(d.A), pr.p.SiteIndex(d.B), d.Value)
		case deploy.KindCapacity:
			pr.caps[pr.p.SiteIndex(d.Site)] = d.Value
		case deploy.KindDemand:
			pr.alpha = core.AlphaForDemand(d.Value)
		default:
			return fmt.Errorf("layer probe: no stage mirror for %q deltas", d.Kind)
		}
	}
	var snap *plan.Snapshot
	var err error
	id, _ := pr.tr.time("plan.replan_"+o.batch[0].Kind, o.seq, -1, func() { snap, err = pr.p.Plan() })
	if err != nil {
		return err
	}
	ran := snap.Provenance.Recomputed
	switch {
	case slices.Contains(ran, plan.StagePlacement):
		return pr.full(o.seq, id)
	case slices.Contains(ran, plan.StageStrategy):
		if err := pr.optimize("strategy.optimize_warm", o.seq, id); err != nil {
			return err
		}
	}
	pr.measures(o.seq, id)
	return nil
}

// full runs every stage from the raw matrix down, as a cold or
// topology-dirty Plan does.
func (pr *layerProbe) full(trace, parent int) error {
	tr := pr.tr
	var closed *graph.Matrix
	tr.time("graph.closure", trace, parent, func() {
		closed = pr.raw.Clone()
		closed.MetricClosure()
	})
	topo, err := topology.NewMetric(pr.name, pr.sites, closed)
	if err != nil {
		return err
	}
	for v, c := range pr.caps {
		if err := topo.SetCapacity(v, c); err != nil {
			return err
		}
	}
	pr.topo = topo
	var f core.Placement
	tr.time("placement.one_to_one", trace, parent, func() {
		f, err = placement.OneToOne(topo, pr.sys, placement.Options{})
	})
	if err != nil {
		return err
	}
	if pr.eval, err = core.NewEval(topo, pr.sys, f, pr.alpha); err != nil {
		return err
	}
	tr.time("strategy.build", trace, parent, func() {
		// The options of a non-reproducible planner (plan.computeStrategy).
		pr.opt, err = strategy.NewOptimizer(pr.eval, strategy.Config{
			LP:        lp.Options{Pricing: lp.PricingPartial},
			WarmStart: true,
		})
	})
	if err != nil {
		return err
	}
	if err := pr.optimize("strategy.optimize_cold", trace, parent); err != nil {
		return err
	}
	pr.measures(trace, parent)
	return nil
}

// optimize solves the access LP under the current capacities: cold on a
// fresh optimizer, warm from the previous basis otherwise.
func (pr *layerProbe) optimize(span string, trace, parent int) error {
	var res *strategy.Result
	var err error
	pr.tr.time(span, trace, parent, func() { res, err = pr.opt.Optimize(pr.caps) })
	if err != nil {
		return err
	}
	pr.strat = res.Strategy
	if span == "strategy.optimize_cold" {
		pr.itersCold = append(pr.itersCold, float64(res.Iterations))
		return nil
	}
	pr.itersWarm = append(pr.itersWarm, float64(res.Iterations))
	if strings.HasPrefix(res.LPMethod, "warm") {
		pr.warmHits++
	}
	return nil
}

// measures evaluates the three measures a snapshot carries and clones
// the topology the way Plan does for the snapshot.
func (pr *layerProbe) measures(trace, parent int) {
	pr.eval.Alpha = pr.alpha
	pr.tr.time("core.eval", trace, parent, func() {
		pr.eval.AvgResponseTime(pr.strat)
		pr.eval.AvgNetworkDelay(pr.strat)
		pr.eval.MaxNodeLoad(pr.strat)
	})
	pr.tr.time("topology.clone", trace, parent, func() { pr.topo.Clone() })
}

// traceDaemon is the traced run of a daemon workload. Part one repeats
// the socket-level workload with every second batch traced: client-side
// spans and a scrape of the daemon's counters afterwards. The
// difference between the traced and the plain batches' medians is the
// tracing overhead. Part two replays the same
// batches in this process through a shadow deployment and the layer
// probe. Every span goes to spansPath.
func traceDaemon(env *benchEnv, spec daemonSpec, seed int64, window time.Duration, spansPath string) (*outcome, error) {
	topoArg, topo, loadMS, err := daemonTopology(env, spec)
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemon(env, spec, topoArg)
	if err != nil {
		return nil, err
	}
	defer d.stop() // a second stop, after the explicit one below, does nothing
	tr := newTracer()
	gen := newGenerator(spec.mix, seed, topo, daemonDemand)
	seq := 0
	all, _, _, err := d.phase(spec, gen, &seq, warmUp/2, nil)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	mixed, traces, mixedWall, err := d.phase(spec, gen, &seq, window/2, tr)
	if err != nil {
		return nil, err
	}
	self1 := selfCPUSeconds()
	d.stop() // part two wants both cores
	all = append(all, mixed...)

	out := newOutcome()
	for _, o := range all {
		out.attempt(o.failure)
	}
	var plain, traced, first, mid, last, repark, overhead []float64
	for i, o := range mixed {
		ot := traces[i]
		if ot.wakeMS == nil {
			plain = append(plain, o.latencyMS)
			continue
		}
		traced = append(traced, o.latencyMS)
		w := sortedCopy(ot.wakeMS)
		first = append(first, w[0])
		mid = append(mid, percentile(w, 50))
		last = append(last, w[len(w)-1])
		repark = append(repark, ot.reparkMS)
		overhead = append(overhead, o.postMS-ot.replanMS)
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("the window held no traced round")
	}
	out.set("bench.trace_overhead_pct", (median(traced)-median(plain))/median(plain)*100)
	out.set("bench.generator_cpu_pct", (self1-self0)/mixedWall.Seconds()*100)
	out.notef("part one: %d plain and %d traced batches in alternating blocks, p50 %.3f ms and %.3f ms", len(plain), len(traced), median(plain), median(traced))
	out.set("serve.wake_first_ms", median(first))
	out.set("serve.wake_p50_ms", median(mid))
	out.set("serve.wake_last_ms", median(last))
	out.set("serve.us_per_watcher", median(last)*1000/float64(spec.watchers))
	out.set("serve.repark_ms", median(repark))
	out.set("serve.post_overhead_ms", median(overhead))

	// Part two.
	sh, err := newShadow(topo)
	if err != nil {
		return nil, err
	}
	probe, err := newLayerProbe(tr, topo)
	if err != nil {
		return nil, err
	}
	var bodyBytes []float64
	var batchLen, coalescedLen, holds, replayed int
	for i := range all {
		o := &all[i]
		if o.failure != "" {
			break
		}
		out.attempt(sh.check(o, tr))
		replayed++
		bodyBytes = append(bodyBytes, float64(len(sh.t.Encoded().Body)))
		batchLen += len(o.batch)
		coalescedLen += len(deploy.Coalesce(o.batch))
		if strings.HasPrefix(o.reply.Provenance.Decision, "hold") {
			holds++
		}
		if i < spec.probed {
			if err := probe.measure(o); err != nil {
				return nil, fmt.Errorf("layer probe, batch %d: %w", o.seq, err)
			}
		}
	}
	out.notef("part two: replayed %d of %d batches in process, stages timed on the first %d", replayed, len(all), min(replayed, spec.probed))
	if replayed == 0 {
		return nil, fmt.Errorf("no batch could be replayed")
	}

	med := func(name string) float64 { return median(tr.durations(name)) }
	out.set("topology.load_ms", loadMS)
	out.set("topology.clone_ms", med("topology.clone"))
	out.set("graph.closure_ms", med("graph.closure"))
	out.set("placement.one_to_one_ms", med("placement.one_to_one"))
	out.set("strategy.build_ms", med("strategy.build"))
	out.set("strategy.optimize_cold_ms", med("strategy.optimize_cold"))
	out.set("strategy.optimize_warm_ms", med("strategy.optimize_warm"))
	out.set("lp.iterations_cold", median(probe.itersCold))
	out.set("lp.iterations_warm", median(probe.itersWarm))
	if n := len(probe.itersWarm); n > 0 {
		out.set("lp.method_warm_pct", float64(probe.warmHits)/float64(n)*100)
	}
	out.set("core.eval_ms", med("core.eval"))
	out.set("plan.cold_ms", probe.coldMS)
	var planMS, self []float64
	for _, kind := range []string{deploy.KindRTT, deploy.KindCapacity, deploy.KindDemand} {
		out.set("plan.replan_"+kind+"_ms", med("plan.replan_"+kind))
		planMS = append(planMS, tr.durations("plan.replan_"+kind)...)
		self = append(self, tr.selfTimes("plan.replan_"+kind)...)
	}
	out.set("plan.self_ms", median(self))
	if rtt := med("plan.replan_rtt"); rtt > 0 {
		out.set("graph.closure_share_pct", med("graph.closure")/rtt*100)
		out.set("placement.share_pct", med("placement.one_to_one")/rtt*100)
	}
	// The planner's version counts Plan calls, so its growth over the
	// replayed batches is the number of plans the manager ran for them.
	plans := float64(all[replayed-1].reply.Version-all[0].reply.Version) / float64(max(replayed-1, 1))
	applyMS := med("deploy.apply")
	out.set("deploy.apply_ms", applyMS)
	out.set("deploy.plans_per_apply", plans)
	out.set("deploy.self_ms", applyMS-plans*median(planMS))
	out.set("deploy.coalesce_ratio", float64(coalescedLen)/float64(batchLen))
	out.set("deploy.hold_pct", float64(holds)/float64(replayed)*100)
	out.set("serve.encode_ms", med("serve.encode"))
	out.set("serve.body_bytes", median(bodyBytes))
	setProbeBaseline(out, seed)

	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	out.notef("%d spans written to %s", len(tr.spans), spansPath)
	return out, nil
}
