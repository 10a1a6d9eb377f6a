package plan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// smallTopo builds a compact three-region WAN so the property tests stay
// fast even under the race detector.
func smallTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "plan-test-18",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 6, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 6, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 6, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustPlan(t *testing.T, p *Planner) *Snapshot {
	t.Helper()
	res, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func stageNames(res *Snapshot) string { return fmt.Sprint(res.RecomputedNames()) }

// tryPlan plans, tolerating LP infeasibility (a legitimate outcome of a
// random capacity sequence) and failing the test on any other error.
func tryPlan(t *testing.T, p *Planner) (*Snapshot, error) {
	t.Helper()
	res, err := p.Plan()
	if err != nil && !errors.Is(err, lp.ErrInfeasible) {
		t.Fatal(err)
	}
	return res, err
}

// TestDirtyTracking pins the invalidation rules: each delta recomputes
// exactly the stages its documentation promises.
func TestDirtyTracking(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{
		System:       SystemSpec{Family: "grid", Param: 3},
		Strategy:     StratLP,
		Demand:       4000,
		Reproducible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustPlan(t, p)
	if got, want := stageNames(res), "[topology system placement strategy eval]"; got != want {
		t.Fatalf("first plan recomputed %v, want %v", got, want)
	}

	res = mustPlan(t, p)
	if len(res.Provenance.Recomputed) != 0 {
		t.Fatalf("no-delta plan recomputed %v, want nothing", stageNames(res))
	}

	if err := p.SetDemand(16000); err != nil {
		t.Fatal(err)
	}
	res = mustPlan(t, p)
	if got, want := stageNames(res), "[eval]"; got != want {
		t.Fatalf("demand delta recomputed %v, want %v", got, want)
	}

	// A capacity tweak that stays on the eligible side of the one-to-one
	// threshold re-solves the LP but keeps the placement.
	if err := p.SetSiteCapacity(0, 0.9); err != nil {
		t.Fatal(err)
	}
	res = mustPlan(t, p)
	if got, want := stageNames(res), "[strategy eval]"; got != want {
		t.Fatalf("capacity delta recomputed %v, want %v", got, want)
	}

	// Dropping a site below the per-element load crosses the eligibility
	// threshold, so the placement must be reconsidered.
	minCap := res.System.UniformElementLoad()
	if err := p.SetSiteCapacity(0, minCap/2); err != nil {
		t.Fatal(err)
	}
	res = mustPlan(t, p)
	if got, want := stageNames(res), "[placement strategy eval]"; got != want {
		t.Fatalf("threshold-crossing capacity delta recomputed %v, want %v", got, want)
	}

	if err := p.SetRTT(0, 1, 250); err != nil {
		t.Fatal(err)
	}
	res = mustPlan(t, p)
	if got, want := stageNames(res), "[topology placement strategy eval]"; got != want {
		t.Fatalf("RTT delta recomputed %v, want %v", got, want)
	}

	// The rows above are a reproducible planner's: its contract is
	// bit-equality with a cold pipeline, so an RTT delta always re-closes
	// from raw and re-runs everything below. The default profile
	// invalidates by content: what an RTT delta re-runs depends on whether
	// it moved the closed metric.
	q, err := New(topo, Config{
		System:   SystemSpec{Family: "grid", Param: 3},
		Strategy: StratLP,
		Demand:   4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPlan(t, q)
	// Raising a direct link moves at least that pair's distance (onto a
	// detour): every stage below re-runs.
	if err := q.SetRTT(0, 1, 250); err != nil {
		t.Fatal(err)
	}
	moved := mustPlan(t, q)
	if got, want := stageNames(moved), "[topology placement strategy eval]"; got != want {
		t.Fatalf("RTT delta that moves the metric recomputed %v, want %v", got, want)
	}
	if got := q.LastPlan(); got.Closure != "incremental" || got.ChangedSites < 2 || got.LPMethod != lp.MethodWarmPrimal {
		t.Errorf("RTT delta that moves the metric: counters %+v, want an incremental closure, >= 2 changed sites and a warm-primal LP", got)
	}
	// The link now carries no shortest path, so raising it further changes
	// no distance. Dirty must still answer "may re-place" — the deployment
	// layer picks its path from it before Plan finds out — but Plan runs
	// the topology stage alone and keeps every artifact below it.
	if err := q.SetRTT(0, 1, 300); err != nil {
		t.Fatal(err)
	}
	if !q.Dirty(StagePlacement) || !q.Dirty(StageStrategy) {
		t.Fatal("an RTT delta must leave the placement and strategy stages dirty until Plan")
	}
	same := mustPlan(t, q)
	if got, want := stageNames(same), "[topology]"; got != want {
		t.Fatalf("RTT delta on a link no shortest path uses recomputed %v, want %v", got, want)
	}
	if same.LP != moved.LP || same.Topology.Distances() != moved.Topology.Distances() {
		t.Error("an RTT delta that moved nothing must keep the LP result and share the closed matrix")
	}
	if got := q.LastPlan(); got.ChangedSites != 0 || got.Anchors != 0 || got.LPMethod != "" {
		t.Errorf("RTT delta that moved nothing: counters %+v, want no changed site, anchor or LP solve", got)
	}
	// A placement dirtied for its own reasons re-runs whatever the metric did.
	if err := q.SetRTT(0, 1, 350); err != nil {
		t.Fatal(err)
	}
	if err := q.PinPlacement(same.Placement.Targets()); err != nil {
		t.Fatal(err)
	}
	if got, want := stageNames(mustPlan(t, q)), "[topology placement strategy eval]"; got != want {
		t.Fatalf("pin with an RTT delta that moved nothing recomputed %v, want %v", got, want)
	}
}

// applyRandomDelta mutates the planner with one random delta, returning a
// description for failure messages. The generator only produces valid
// deltas, so every call must succeed.
func applyRandomDelta(t *testing.T, rng *rand.Rand, p *Planner, churn bool) string {
	t.Helper()
	n := p.Size()
	for {
		switch op := rng.Intn(7); op {
		case 0, 1: // RTT edit
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			ms := 5 + rng.Float64()*295
			if err := p.SetRTT(u, v, ms); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("SetRTT(%d,%d,%.2f)", u, v, ms)
		case 2, 3: // capacity edit (kept above typical optimal loads so the
			// strategy LP stays feasible throughout the sequence)
			v := rng.Intn(n)
			c := 0.6 + rng.Float64()*0.4
			if err := p.SetSiteCapacity(v, c); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("SetSiteCapacity(%d,%.3f)", v, c)
		case 4: // demand edit
			d := float64(rng.Intn(5)) * 4000
			if err := p.SetDemand(d); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("SetDemand(%.0f)", d)
		case 5: // add a site
			if !churn {
				continue
			}
			name := fmt.Sprintf("new-%d", rng.Int63())
			rtts := make([]float64, n)
			for i := range rtts {
				rtts[i] = 10 + rng.Float64()*200
			}
			site := topology.Site{Name: name, Region: "new", Lat: 10, Lon: 10}
			if err := p.AddSite(site, rtts, 1); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("AddSite(%s)", name)
		default: // remove a site
			if !churn || n <= 14 {
				continue
			}
			name := p.Site(rng.Intn(n)).Name
			if err := p.RemoveSite(name); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("RemoveSite(%s)", name)
		}
	}
}

// TestReplanEquivalence is the package's core property: any sequence of
// deltas with Plan() interleaved after each one ends in exactly the state
// a cold plan of the final inputs produces — for every placement
// algorithm, strategy kind, and pool width.
func TestReplanEquivalence(t *testing.T) {
	topo := smallTopo(t)
	cases := []struct {
		name  string
		cfg   Config
		churn bool
	}{
		{name: "one-to-one/lp", cfg: Config{System: SystemSpec{Family: "grid", Param: 3}, Strategy: StratLP, Demand: 16000, Reproducible: true}, churn: true},
		{name: "one-to-one/closest", cfg: Config{System: SystemSpec{Family: "majority", Param: 3}, Strategy: StratClosest, Demand: 4000, Reproducible: true}, churn: true},
		{name: "many-to-one/lp", cfg: Config{System: SystemSpec{Family: "grid", Param: 3}, Algorithm: AlgoManyToOne, Strategy: StratLP, Demand: 16000, Reproducible: true}, churn: false},
		{name: "singleton/balanced", cfg: Config{System: SystemSpec{Family: "singleton"}, Algorithm: AlgoSingleton, Strategy: StratBalanced, Reproducible: true}, churn: true},
	}
	const deltas = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range []int{1, 2, 3, 8} {
				partest.SetGOMAXPROCS(t, width)
				cfg := tc.cfg
				rng := rand.New(rand.NewSource(int64(width) * 977))

				inc, err := New(topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := New(topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := inc.Plan(); err != nil {
					t.Fatal(err)
				}

				var trace []string
				rngCold := rand.New(rand.NewSource(int64(width) * 977))
				var incRes *Snapshot
				var incErr error
				for i := 0; i < deltas; i++ {
					trace = append(trace, applyRandomDelta(t, rng, inc, tc.churn))
					applyRandomDelta(t, rngCold, cold, tc.churn)
					incRes, incErr = tryPlan(t, inc)
				}
				coldRes, coldErr := tryPlan(t, cold)

				ctx := fmt.Sprintf("GOMAXPROCS=%d trace=%v", width, trace)
				if (incErr == nil) != (coldErr == nil) {
					t.Fatalf("%s: incremental err %v, cold err %v", ctx, incErr, coldErr)
				}
				if incErr != nil {
					continue // both infeasible at the final inputs: equivalent
				}
				if got, want := incRes.Placement.Targets(), coldRes.Placement.Targets(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental placement %v != cold %v", ctx, got, want)
				}
				if incRes.Response != coldRes.Response {
					t.Fatalf("%s: response %v != cold %v", ctx, incRes.Response, coldRes.Response)
				}
				if incRes.NetDelay != coldRes.NetDelay {
					t.Fatalf("%s: net delay %v != cold %v", ctx, incRes.NetDelay, coldRes.NetDelay)
				}
				if incRes.MaxLoad != coldRes.MaxLoad {
					t.Fatalf("%s: max load %v != cold %v", ctx, incRes.MaxLoad, coldRes.MaxLoad)
				}
				if (incRes.LP == nil) != (coldRes.LP == nil) {
					t.Fatalf("%s: LP presence mismatch", ctx)
				}
				if incRes.LP != nil && !reflect.DeepEqual(incRes.LP.Strategy.Rows, coldRes.LP.Strategy.Rows) {
					t.Fatalf("%s: LP strategies differ", ctx)
				}
			}
		})
	}
}

// TestReplanEquivalenceDefaultProfile is TestReplanEquivalence's twin for
// the default profile, whose RTT path carries state from plan to plan —
// the incrementally maintained closure, the retained anchor scores, the
// re-bound LP skeleton and its basis. It cannot promise bit-equality with
// a cold plan (the closure differs from Floyd–Warshall in summation
// order, a warm LP may stop on another optimal vertex), so the property
// is: after any chain of rtt, capacity, demand, weights and pin deltas
// with a Plan after each, the placement targets equal a cold plan's of
// the final inputs exactly, the closed metric agrees to 1e-9 relative and
// the LP optimum to 1e-6 relative, at every pool width.
func TestReplanEquivalenceDefaultProfile(t *testing.T) {
	topo := smallTopo(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"one-to-one/lp", Config{System: SystemSpec{Family: "grid", Param: 3}, Strategy: StratLP, Demand: 16000}},
		{"one-to-one/closest", Config{System: SystemSpec{Family: "majority", Param: 3}, Strategy: StratClosest, Demand: 4000}},
	}
	const deltas = 40
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range []int{1, 2, 3, 8} {
				partest.SetGOMAXPROCS(t, width)
				cfg := tc.cfg
				rng := rand.New(rand.NewSource(int64(width) * 131))
				inc, err := New(topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := New(topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				incRes := mustPlan(t, inc)
				both := func(apply func(p *Planner) error) {
					for _, p := range []*Planner{inc, cold} {
						if err := apply(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				var trace []string
				var incErr error
				skipped := 0
				n := inc.Size()
				for i := 0; i < deltas; i++ {
					switch op := rng.Intn(8); op {
					case 0, 1, 2, 3: // rtt: raise, lower, back to the topology's value, or
						// far up twice (the second time the link is already unused
						// and the metric stays as it is)
						u := rng.Intn(n)
						v := (u + 1 + rng.Intn(n-1)) % n
						ms := inc.RTT(u, v) * (0.4 + 1.4*rng.Float64())
						switch rng.Intn(4) {
						case 0:
							ms = topo.RTT(u, v)
						case 1:
							ms = inc.RTT(u, v) * 8
							both(func(p *Planner) error { return p.SetRTT(u, v, ms/2) })
							_, _ = tryPlan(t, inc) // infeasible here is caught at the next Plan
						}
						both(func(p *Planner) error { return p.SetRTT(u, v, ms) })
						trace = append(trace, fmt.Sprintf("SetRTT(%d,%d,%.2f)", u, v, ms))
					case 4: // capacity (kept above typical optimal loads, so the LP stays feasible)
						v, c := rng.Intn(n), 0.6+rng.Float64()*0.4
						both(func(p *Planner) error { return p.SetSiteCapacity(v, c) })
						trace = append(trace, fmt.Sprintf("SetSiteCapacity(%d,%.3f)", v, c))
					case 5:
						d := float64(rng.Intn(5)) * 4000
						both(func(p *Planner) error { return p.SetDemand(d) })
						trace = append(trace, fmt.Sprintf("SetDemand(%.0f)", d))
					case 6:
						w := make([]float64, n)
						for k := range w {
							w[k] = 0.5 + rng.Float64()*3
						}
						both(func(p *Planner) error { return p.SetClientWeights(w) })
						trace = append(trace, "SetClientWeights")
					default: // hold the current placement, or let it go
						if incErr != nil {
							break
						}
						if incRes.Provenance.Pinned {
							both(func(p *Planner) error { p.ClearPlacementPin(); return nil })
							trace = append(trace, "ClearPlacementPin")
						} else {
							pin := incRes.Placement.Targets()
							both(func(p *Planner) error { return p.PinPlacement(pin) })
							trace = append(trace, "PinPlacement")
						}
					}
					var res *Snapshot
					if res, incErr = tryPlan(t, inc); incErr == nil {
						incRes = res
						if !slices.Contains(res.Provenance.Recomputed, StagePlacement) && slices.Contains(res.Provenance.Recomputed, StageTopology) {
							skipped++
						}
					}
				}
				coldRes, coldErr := tryPlan(t, cold)

				ctx := fmt.Sprintf("GOMAXPROCS=%d trace=%v", width, trace)
				if (incErr == nil) != (coldErr == nil) {
					t.Fatalf("%s: incremental err %v, cold err %v", ctx, incErr, coldErr)
				}
				if incErr != nil {
					continue
				}
				if got, want := incRes.Placement.Targets(), coldRes.Placement.Targets(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: incremental placement %v != cold %v", ctx, got, want)
				}
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got, want := incRes.Topology.RTT(u, v), coldRes.Topology.RTT(u, v)
						if math.Abs(got-want) > 1e-9*want {
							t.Fatalf("%s: closed RTT(%d,%d) %v, cold %v", ctx, u, v, got, want)
						}
					}
				}
				if (incRes.LP == nil) != (coldRes.LP == nil) {
					t.Fatalf("%s: LP presence mismatch", ctx)
				}
				if incRes.LP != nil {
					got, want := incRes.LP.AvgNetDelay, coldRes.LP.AvgNetDelay
					if math.Abs(got-want) > 1e-6*want {
						t.Fatalf("%s: LP optimum %v, cold %v", ctx, got, want)
					}
				} else if incRes.NetDelay != coldRes.NetDelay {
					// Without an LP nothing is vertex-dependent: the measures
					// differ only through the metric.
					if math.Abs(incRes.NetDelay-coldRes.NetDelay) > 1e-9*coldRes.NetDelay {
						t.Fatalf("%s: net delay %v, cold %v", ctx, incRes.NetDelay, coldRes.NetDelay)
					}
				}
				if skipped == 0 {
					t.Errorf("%s: no rtt delta in the chain left the metric unchanged; the skip path went untested", ctx)
				}
			}
		})
	}
}

// TestWarmReplanMatchesColdObjective checks the fast path: warm-started
// capacity re-solves reach the same LP optimum a cold reproducible solve
// finds (the vertex may differ on degenerate instances, the objective may
// not).
func TestWarmReplanMatchesColdObjective(t *testing.T) {
	topo := smallTopo(t)
	mk := func(repro bool) *Planner {
		p, err := New(topo, Config{
			System:       SystemSpec{Family: "grid", Param: 3},
			Strategy:     StratLP,
			Demand:       16000,
			Reproducible: repro,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	warm, cold := mk(false), mk(true)
	if _, err := warm.Plan(); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Plan(); err != nil {
		t.Fatal(err)
	}
	lopt := 5.0 / 9 // grid(3x3) optimal load (2k-1)/k²
	for i := 0; i < 6; i++ {
		c := lopt + float64(i+1)*(1-lopt)/7
		for _, p := range []*Planner{warm, cold} {
			if err := p.SetUniformCapacity(c); err != nil {
				t.Fatal(err)
			}
		}
		w := mustPlan(t, warm)
		cd := mustPlan(t, cold)
		if w.LP == nil || cd.LP == nil {
			t.Fatalf("cap %.3f: missing LP result", c)
		}
		if diff := math.Abs(w.LP.AvgNetDelay - cd.LP.AvgNetDelay); diff > 1e-6*(1+math.Abs(cd.LP.AvgNetDelay)) {
			t.Fatalf("cap %.3f: warm objective %v vs cold %v (diff %v)", c, w.LP.AvgNetDelay, cd.LP.AvgNetDelay, diff)
		}
	}
}

// TestCapacityTightenStaysWarm pins the dual warm re-solve wiring:
// capacity-only tightening deltas must re-solve the strategy LP from the
// retained skeleton — dual-simplex repair when the tightened right-hand
// sides break the previous basis, never a cold rebuild — while matching a
// reproducible (all-cold) planner fed the same deltas.
func TestCapacityTightenStaysWarm(t *testing.T) {
	topo := smallTopo(t)
	mk := func(repro bool) *Planner {
		p, err := New(topo, Config{
			System:       SystemSpec{Family: "grid", Param: 3},
			Strategy:     StratLP,
			Demand:       16000,
			Reproducible: repro,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	warm, cold := mk(false), mk(true)
	first := mustPlan(t, warm)
	mustPlan(t, cold)
	if first.LP.LPMethod != lp.MethodCold {
		t.Fatalf("first solve reported %q, want %q", first.LP.LPMethod, lp.MethodCold)
	}
	lopt := 5.0 / 9 // grid(3x3) optimal load (2k-1)/k²
	dualSeen := false
	// Walk capacities downward toward Lopt: each step tightens every RHS.
	for i := 5; i >= 0; i-- {
		c := lopt + float64(i+1)*(1-lopt)/8
		for _, p := range []*Planner{warm, cold} {
			if err := p.SetUniformCapacity(c); err != nil {
				t.Fatal(err)
			}
		}
		w, errW := tryPlan(t, warm)
		cd, errC := tryPlan(t, cold)
		if (errW == nil) != (errC == nil) {
			t.Fatalf("cap %.3f: warm err=%v, cold err=%v", c, errW, errC)
		}
		if errW != nil {
			continue
		}
		switch w.LP.LPMethod {
		case lp.MethodWarmDual:
			dualSeen = true
		case lp.MethodWarmPrimal:
		default:
			t.Errorf("cap %.3f: tightening re-solve reported %q, want a warm method", c, w.LP.LPMethod)
		}
		if diff := math.Abs(w.LP.AvgNetDelay - cd.LP.AvgNetDelay); diff > 1e-6*(1+math.Abs(cd.LP.AvgNetDelay)) {
			t.Fatalf("cap %.3f: warm objective %v vs cold %v (diff %v)", c, w.LP.AvgNetDelay, cd.LP.AvgNetDelay, diff)
		}
	}
	if !dualSeen {
		t.Error("no tightening step exercised the dual-simplex repair path")
	}
}

// TestMetricRawSkipsReclosure pins the closure-skip invariant: planners
// seeded from an already-metric topology must produce the same planned
// metric whether or not the topology stage re-runs the closure, and an
// RTT edit (which can break the triangle inequality) must bring the
// closure back.
func TestMetricRawSkipsReclosure(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{System: SystemSpec{Family: "grid", Param: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.rawMetric {
		t.Fatal("planner seeded from a Topology should trust its metric")
	}
	snap := mustPlan(t, p)
	for u := 0; u < topo.Size(); u++ {
		for v := 0; v < topo.Size(); v++ {
			if got, want := snap.Topology.RTT(u, v), topo.RTT(u, v); got != want {
				t.Fatalf("RTT(%d,%d): closure-skipped plan has %v, source metric %v", u, v, got, want)
			}
		}
	}
	// A drastic shortcut edit violates the triangle inequality in raw; the
	// closure must run again and ripple the shortcut through other pairs.
	if err := p.SetRTT(0, topo.Size()-1, 0.01); err != nil {
		t.Fatal(err)
	}
	if p.rawMetric {
		t.Fatal("SetRTT must clear the trusted-metric flag")
	}
	snap2 := mustPlan(t, p)
	if !snap2.Topology.Distances().IsMetric(1e-6) {
		t.Fatal("re-closed topology is not a metric")
	}
}

// TestPlannerValidation exercises input checking on the delta surface.
func TestPlannerValidation(t *testing.T) {
	topo := smallTopo(t)
	if _, err := New(topo, Config{System: SystemSpec{Family: "nope"}}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := New(topo, Config{System: SystemSpec{Family: "majority", Param: 30}, Strategy: StratLP}); err == nil {
		t.Error("LP over the non-enumerable majority(31,61) was accepted")
	}
	p, err := New(topo, Config{System: SystemSpec{Family: "grid", Param: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bad := []error{
		p.SetRTT(0, 0, 10),
		p.SetRTT(0, 1, -1),
		p.SetRTT(0, 99, 10),
		p.SetSiteCapacity(0, 0),
		p.SetSiteCapacity(0, math.NaN()),
		p.SetDemand(-1),
		p.SetClientWeights([]float64{1}),
		p.AddSite(topology.Site{}, nil, 1),
		p.RemoveSite("no-such-site"),
	}
	for i, err := range bad {
		if err == nil {
			t.Errorf("invalid delta %d accepted", i)
		}
	}
	if res, err := p.Plan(); err != nil {
		t.Fatal(err)
	} else if len(res.Provenance.Recomputed) != 5 {
		t.Fatalf("first plan recomputed %v", res.RecomputedNames())
	}
}

// TestSnapshotVersioningAndProvenance checks the snapshot contract:
// versions increase by one per Plan, provenance records the deltas that
// drove the re-plan, and the summary labels match the stage sets.
func TestSnapshotVersioningAndProvenance(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{
		System:   SystemSpec{Family: "grid", Param: 3},
		Strategy: StratLP,
		Demand:   4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustPlan(t, p)
	if s1.Version != 1 || !s1.Provenance.Cold() || s1.Provenance.Summary() != "cold" {
		t.Fatalf("cold snapshot: version %d, provenance %+v", s1.Version, s1.Provenance)
	}
	if err := p.SetDemand(16000); err != nil {
		t.Fatal(err)
	}
	s2 := mustPlan(t, p)
	if s2.Version != 2 || !s2.Provenance.EvalOnly() || s2.Provenance.Summary() != "eval-only" {
		t.Fatalf("demand snapshot: version %d, provenance %+v", s2.Version, s2.Provenance)
	}
	if len(s2.Provenance.Deltas) != 1 || s2.Provenance.Deltas[0] != "demand=16000" {
		t.Fatalf("demand snapshot deltas %v", s2.Provenance.Deltas)
	}
	if s2.Demand != 16000 {
		t.Fatalf("snapshot demand %v, want 16000", s2.Demand)
	}
	s3 := mustPlan(t, p)
	if s3.Version != 3 || s3.Provenance.Summary() != "none" || len(s3.Provenance.Deltas) != 0 {
		t.Fatalf("no-op snapshot: version %d, provenance %+v", s3.Version, s3.Provenance)
	}
}

// TestSnapshotImmutable checks that later deltas do not reach into an
// already-published snapshot: its topology keeps the capacities and
// sites of its plan.
func TestSnapshotImmutable(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{System: SystemSpec{Family: "grid", Param: 3}})
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustPlan(t, p)
	oldCap := s1.Topology.Capacity(0)
	oldSize := s1.Topology.Size()
	if err := p.SetSiteCapacity(0, oldCap*2); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveSite(p.Site(p.Size() - 1).Name); err != nil {
		t.Fatal(err)
	}
	s2 := mustPlan(t, p)
	if s1.Topology.Capacity(0) != oldCap {
		t.Errorf("published snapshot capacity mutated: %v -> %v", oldCap, s1.Topology.Capacity(0))
	}
	if s1.Topology.Size() != oldSize {
		t.Errorf("published snapshot size mutated: %v -> %v", oldSize, s1.Topology.Size())
	}
	if s2.Topology.Size() != oldSize-1 || s2.Topology.Capacity(0) != oldCap*2 {
		t.Errorf("new snapshot missed the deltas: size %d cap %v", s2.Topology.Size(), s2.Topology.Capacity(0))
	}

	// An rtt delta is folded into a copy of the closed matrix, never into
	// the one published snapshots share: s2 keeps its distances.
	n := s2.Topology.Size()
	before := s2.Topology.Distances().Clone()
	if err := p.SetRTT(0, n-1, 0.5); err != nil {
		t.Fatal(err)
	}
	s3 := mustPlan(t, p)
	if s3.Topology.RTT(0, n-1) != 0.5 || s3.Topology.Distances() == s2.Topology.Distances() {
		t.Fatalf("rtt delta did not reach the new snapshot: RTT(0,%d) = %v", n-1, s3.Topology.RTT(0, n-1))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := s2.Topology.RTT(u, v), before.At(u, v); got != want {
				t.Fatalf("published snapshot RTT(%d,%d) mutated: %v -> %v", u, v, want, got)
			}
		}
	}
	// And a delta that moves no distance (restoring a link the shortcut
	// has made redundant keeps it redundant) publishes a snapshot that
	// shares the matrix of the one before.
	if err := p.SetRTT(1, n-1, p.RTT(1, n-1)*2); err != nil {
		t.Fatal(err)
	}
	if s4 := mustPlan(t, p); s4.Topology.Distances() != s3.Topology.Distances() {
		t.Error("consecutive snapshots across a no-change rtt delta do not share one matrix")
	}
}

// TestPinPlacement checks the deployment layer's hold primitive: a pin
// survives re-plans that would otherwise move the placement, pinned
// capacity deltas never dirty the placement stage, and clearing the pin
// re-runs the construction.
func TestPinPlacement(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{
		System:   SystemSpec{Family: "grid", Param: 3},
		Strategy: StratLP,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustPlan(t, p)
	pinned := s1.Placement.Targets()
	if err := p.PinPlacement(pinned); err != nil {
		t.Fatal(err)
	}

	// A drastic RTT change re-closes the topology; without the pin the
	// construction could move, but the pinned targets must hold.
	for v := 1; v < p.Size(); v++ {
		if err := p.SetRTT(0, v, p.RTT(0, v)*10); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustPlan(t, p)
	if !reflect.DeepEqual(s2.Placement.Targets(), pinned) {
		t.Fatalf("pinned placement moved: %v -> %v", pinned, s2.Placement.Targets())
	}
	if !s2.Provenance.Pinned {
		t.Error("pinned snapshot not flagged in provenance")
	}

	// Capacity deltas on a pinned planner can never dirty the placement.
	if err := p.SetSiteCapacity(pinned[0], 0.05); err != nil {
		t.Fatal(err)
	}
	if p.Dirty(StagePlacement) {
		t.Error("capacity delta dirtied a pinned placement")
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}

	// Clearing the pin re-runs the construction under the new metric —
	// the same result as a cold plan of the current inputs.
	p.ClearPlacementPin()
	s3, err3 := tryPlan(t, p)
	cold, err := New(topo, Config{
		System:   SystemSpec{Family: "grid", Param: 3},
		Strategy: StratLP,
		Demand:   8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < cold.Size(); v++ {
		if err := cold.SetRTT(0, v, cold.RTT(0, v)*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := cold.SetSiteCapacity(pinned[0], 0.05); err != nil {
		t.Fatal(err)
	}
	coldRes, coldErr := tryPlan(t, cold)
	if (err3 == nil) != (coldErr == nil) {
		t.Fatalf("unpinned err %v, cold err %v", err3, coldErr)
	}
	if err3 == nil && !reflect.DeepEqual(s3.Placement.Targets(), coldRes.Placement.Targets()) {
		t.Fatalf("unpinned placement %v != cold %v", s3.Placement.Targets(), coldRes.Placement.Targets())
	}

	// Membership changes drop the pin (targets index the old site set).
	if err := p.PinPlacement(s3.Placement.Targets()); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveSite(p.Site(p.Size() - 1).Name); err != nil {
		t.Fatal(err)
	}
	if s4 := mustPlan(t, p); s4.Provenance.Pinned {
		t.Error("pin survived a membership change")
	}

	// Pin validation.
	if err := p.PinPlacement(nil); err == nil {
		t.Error("empty pin accepted")
	}
	if err := p.PinPlacement([]int{-1, 0, 1, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Error("out-of-range pin accepted")
	}
}

// TestProvenanceHygiene: rejected deltas never reach the provenance
// log, and overflow is summarized with a count.
func TestProvenanceHygiene(t *testing.T) {
	topo := smallTopo(t)
	p, err := New(topo, Config{System: SystemSpec{Family: "grid", Param: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	if err := p.SetSiteCapacity(0, -5); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := p.SetUniformCapacity(math.NaN()); err == nil {
		t.Fatal("NaN capacity accepted")
	}
	if got := p.PendingDeltas(); got != 0 {
		t.Fatalf("rejected deltas logged: %d pending", got)
	}
	snap := mustPlan(t, p)
	if len(snap.Provenance.Deltas) != 0 {
		t.Fatalf("rejected deltas in provenance: %v", snap.Provenance.Deltas)
	}

	// Overflow: more than 64 effective deltas summarize as "+N more".
	for i := 0; i < 70; i++ {
		if err := p.SetRTT(0, 1, 100+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap = mustPlan(t, p)
	ds := snap.Provenance.Deltas
	if len(ds) != 65 {
		t.Fatalf("overflowed delta log has %d entries, want 64 + marker", len(ds))
	}
	if ds[64] != "… (+6 more)" {
		t.Fatalf("overflow marker %q, want \"… (+6 more)\"", ds[64])
	}
}

// TestPlannerReproducibleProfile: a reproducible planner solves the
// access LP cold with Dantzig pricing, on the algorithm the problem's
// size picks — dense at this size, so no colgen provenance.
func TestPlannerReproducibleProfile(t *testing.T) {
	p, err := New(smallTopo(t), Config{
		System:       SystemSpec{Family: "grid", Param: 3},
		Strategy:     StratLP,
		Reproducible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := mustPlan(t, p)
	if snap.LP == nil || snap.LP.LPMethod != lp.MethodCold || snap.LP.Colgen != nil {
		t.Fatalf("reproducible planner did not solve dense and cold: %+v", snap.LP)
	}
}
