package strategy

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func testTopo(t *testing.T, n int, seed int64) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1+rng.Float64()*99)
		}
	}
	m.MetricClosure()
	tp, err := topology.New("test", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func gridEval(t *testing.T, n, k int, seed int64, alpha float64) *core.Eval {
	t.Helper()
	topo := testTopo(t, n, seed)
	sys, err := quorum.NewGrid(k)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, sys.UniverseSize())
	for u := range target {
		target[u] = u % n
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func uniformCaps(n int, c float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func TestOptimizeUnconstrainedMatchesClosest(t *testing.T) {
	// With capacity 1 everywhere (no binding constraint), the LP should
	// route every client to its closest quorum.
	e := gridEval(t, 12, 3, 1, 0)
	res, err := Optimize(e, uniformCaps(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := e.AvgNetworkDelay(core.ClosestStrategy{})
	if math.Abs(res.AvgNetDelay-want) > 1e-6 {
		t.Errorf("LP delay %v, closest strategy %v", res.AvgNetDelay, want)
	}
	// And the reported objective must match re-evaluating the strategy.
	if got := e.AvgNetworkDelay(res.Strategy); math.Abs(got-res.AvgNetDelay) > 1e-6 {
		t.Errorf("objective %v but evaluation says %v", res.AvgNetDelay, got)
	}
}

func TestOptimizeRespectsCapacities(t *testing.T) {
	e := gridEval(t, 12, 3, 2, 0)
	lopt := e.Sys.OptimalLoad()
	caps := uniformCaps(12, lopt*1.2)
	res, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	loads := e.NodeLoads(res.Strategy)
	for w, l := range loads {
		if l > caps[w]+1e-6 {
			t.Errorf("node %d load %v exceeds cap %v", w, l, caps[w])
		}
	}
}

func TestOptimizeMonotoneInCapacity(t *testing.T) {
	e := gridEval(t, 12, 3, 3, 0)
	lopt := e.Sys.OptimalLoad()
	prev := math.Inf(1)
	for _, c := range []float64{lopt * 1.05, lopt * 1.5, lopt * 3, 1} {
		res, err := Optimize(e, uniformCaps(12, math.Min(c, 1)))
		if err != nil {
			t.Fatalf("cap %v: %v", c, err)
		}
		if res.AvgNetDelay > prev+1e-6 {
			t.Errorf("delay %v increased when capacity grew to %v (prev %v)", res.AvgNetDelay, c, prev)
		}
		prev = res.AvgNetDelay
	}
}

func TestOptimizeInfeasibleBelowOptimalLoad(t *testing.T) {
	e := gridEval(t, 12, 3, 4, 0)
	lopt := e.Sys.OptimalLoad()
	_, err := Optimize(e, uniformCaps(12, lopt*0.5))
	if !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizeRejectsNonEnumerable(t *testing.T) {
	topo := testTopo(t, 60, 5)
	sys, err := quorum.NewThreshold(26, 51)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, 51)
	for u := range target {
		target[u] = u % 60
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(e, uniformCaps(60, 1)); err == nil {
		t.Error("Optimize accepted non-enumerable system")
	}
}

func TestSweepValues(t *testing.T) {
	vals := SweepValues(0.5, 10)
	if len(vals) != 10 {
		t.Fatalf("len = %d, want 10", len(vals))
	}
	if math.Abs(vals[0]-0.55) > 1e-12 {
		t.Errorf("first = %v, want 0.55", vals[0])
	}
	if math.Abs(vals[9]-1.0) > 1e-12 {
		t.Errorf("last = %v, want 1.0", vals[9])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Errorf("values not increasing at %d", i)
		}
	}
}

func TestUniformSweepShape(t *testing.T) {
	e := gridEval(t, 12, 3, 6, core.AlphaForDemand(16000))
	lopt := e.Sys.OptimalLoad()
	pts, err := UniformSweep(e, SweepValues(lopt, 5), ConfigFor(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	// Net delay is non-increasing in capacity among feasible points.
	prev := math.Inf(1)
	for _, p := range pts {
		if p.Infeasible {
			continue
		}
		if p.NetDelay > prev+1e-6 {
			t.Errorf("net delay %v increased at cap %v", p.NetDelay, p.Cap)
		}
		prev = p.NetDelay
		if p.Response < p.NetDelay-1e-6 {
			t.Errorf("response %v below net delay %v", p.Response, p.NetDelay)
		}
	}
}

func TestNonUniformCapsFormula(t *testing.T) {
	e := gridEval(t, 12, 3, 7, 0)
	beta, gamma := 0.3, 0.9
	caps, err := NonUniformCaps(e, beta, gamma)
	if err != nil {
		t.Fatal(err)
	}
	support := e.F.Support()
	// Identify the closest and farthest support nodes from the clients.
	closest, farthest := support[0], support[0]
	for _, w := range support {
		if avgDistanceTo(e, w) < avgDistanceTo(e, closest) {
			closest = w
		}
		if avgDistanceTo(e, w) > avgDistanceTo(e, farthest) {
			farthest = w
		}
	}
	if math.Abs(caps[closest]-gamma) > 1e-9 {
		t.Errorf("closest support node capacity %v, want gamma %v", caps[closest], gamma)
	}
	if math.Abs(caps[farthest]-beta) > 1e-9 {
		t.Errorf("farthest support node capacity %v, want beta %v", caps[farthest], beta)
	}
	for _, w := range support {
		if caps[w] < beta-1e-9 || caps[w] > gamma+1e-9 {
			t.Errorf("cap[%d] = %v outside [%v,%v]", w, caps[w], beta, gamma)
		}
	}
}

func TestNonUniformCapsValidation(t *testing.T) {
	e := gridEval(t, 12, 3, 8, 0)
	for _, iv := range [][2]float64{{0, 0.5}, {0.5, 0.4}, {0.5, 1.5}} {
		if _, err := NonUniformCaps(e, iv[0], iv[1]); err == nil {
			t.Errorf("interval %v accepted", iv)
		}
	}
}

func TestNonUniformSweepRuns(t *testing.T) {
	e := gridEval(t, 12, 3, 9, core.AlphaForDemand(16000))
	lopt := e.Sys.OptimalLoad()
	pts, err := NonUniformSweep(e, lopt, SweepValues(lopt, 4), ConfigFor(false))
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for _, p := range pts {
		if !p.Infeasible {
			feasible++
		}
	}
	if feasible == 0 {
		t.Error("no feasible non-uniform sweep point")
	}
}

func TestBest(t *testing.T) {
	pts := []SweepPoint{
		{Cap: 0.3, Infeasible: true},
		{Cap: 0.5, Response: 90},
		{Cap: 0.7, Response: 70},
		{Cap: 0.9, Response: 85},
	}
	best, err := Best(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cap != 0.7 {
		t.Errorf("best cap = %v, want 0.7", best.Cap)
	}
	if _, err := Best([]SweepPoint{{Infeasible: true}}); err == nil {
		t.Error("Best of all-infeasible succeeded")
	}
}

func TestOptimizeDedupMode(t *testing.T) {
	// Dedup load coefficients are pointwise ≤ multiplicity coefficients,
	// so any multiplicity-feasible strategy is dedup-feasible: at equal
	// capacities the dedup optimum can only be at least as good, and its
	// loads must respect the caps under the dedup accounting.
	topo := testTopo(t, 6, 10)
	sys, err := quorum.NewGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, 9)
	for u := range target {
		target[u] = u / 2 // nodes 0..4 host two elements each (4 hosts one)
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	caps := uniformCaps(6, 1.4) // feasible under multiplicity (loads ≤ ~2)

	e.Mode = core.LoadMultiplicity
	multRes, err := Optimize(e, caps)
	if err != nil {
		t.Fatalf("multiplicity optimize: %v", err)
	}

	e.Mode = core.LoadDedup
	dedupRes, err := Optimize(e, caps)
	if err != nil {
		t.Fatalf("dedup optimize: %v", err)
	}
	if dedupRes.AvgNetDelay > multRes.AvgNetDelay+1e-6 {
		t.Errorf("dedup optimum %v worse than multiplicity %v",
			dedupRes.AvgNetDelay, multRes.AvgNetDelay)
	}
	loads := e.NodeLoads(dedupRes.Strategy) // Mode is still LoadDedup
	for w, l := range loads {
		if l > caps[w]+1e-6 {
			t.Errorf("dedup load on node %d = %v exceeds cap %v", w, l, caps[w])
		}
	}
}

// TestOptimizeWeightedMatchesDuplicated: a client with weight 2 and the
// same client listed twice must give the same optimal network delay.
func TestOptimizeWeightedMatchesDuplicated(t *testing.T) {
	topo := testTopo(t, 10, 11)
	sys, err := quorum.NewGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, 9)
	for u := range target {
		target[u] = u
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	caps := uniformCaps(10, 0.7)

	weighted, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.SetClients([]int{0, 5, 9}); err != nil {
		t.Fatal(err)
	}
	if err := weighted.SetClientWeights([]float64{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	rw, err := Optimize(weighted, caps)
	if err != nil {
		t.Fatal(err)
	}

	duplicated, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := duplicated.SetClients([]int{0, 0, 5, 9}); err != nil {
		t.Fatal(err)
	}
	rd, err := Optimize(duplicated, caps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rw.AvgNetDelay-rd.AvgNetDelay) > 1e-6 {
		t.Errorf("weighted optimum %v != duplicated %v", rw.AvgNetDelay, rd.AvgNetDelay)
	}
}

// TestConfigForProfiles pins the one solver-profile translation: the
// default profile is exactly the literal bench/shadow.go mirrors by
// hand, and the reproducible one is cold Dantzig. Both leave the
// algorithm to the size rule (SolverAuto).
func TestConfigForProfiles(t *testing.T) {
	if got, want := ConfigFor(false), (Config{LP: lp.Options{Pricing: lp.PricingPartial}, WarmStart: true}); got != want {
		t.Errorf("default profile = %+v, want %+v", got, want)
	}
	if got, want := ConfigFor(true), (Config{}); got != want {
		t.Errorf("reproducible profile = %+v, want %+v", got, want)
	}
}

// TestRebindMatchesFreshOptimizer: an optimizer moved onto an evaluation
// that differs in its RTTs only must reach the optimum a fresh optimizer
// on that evaluation reaches, from the retained basis (warm, a handful of
// pivots, never cold), and must refuse an evaluation that differs in
// anything the skeleton depends on.
func TestRebindMatchesFreshOptimizer(t *testing.T) {
	cfg := ConfigFor(false)
	e := gridEval(t, 24, 3, 5, 0)
	caps := uniformCaps(24, 0.7)
	o, err := NewOptimizer(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(caps); err != nil {
		t.Fatal(err)
	}
	for seed := int64(6); seed < 12; seed++ {
		// The same sites, system and placement over another metric.
		moved, err := core.NewEval(testTopo(t, 24, seed), e.Sys, e.F, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Rebind(moved); err != nil {
			t.Fatal(err)
		}
		got, err := o.Optimize(caps)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewOptimizer(moved, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Optimize(caps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.AvgNetDelay-want.AvgNetDelay) > 1e-6*want.AvgNetDelay {
			t.Fatalf("seed %d: re-bound optimum %v, fresh optimum %v", seed, got.AvgNetDelay, want.AvgNetDelay)
		}
		if got.LPMethod != lp.MethodWarmPrimal {
			t.Errorf("seed %d: re-bound solve was %q, want %q", seed, got.LPMethod, lp.MethodWarmPrimal)
		}
		if net := moved.AvgNetworkDelay(got.Strategy); math.Abs(net-got.AvgNetDelay) > 1e-6*net {
			t.Errorf("seed %d: strategy evaluates to %v on the new metric, LP reported %v", seed, net, got.AvgNetDelay)
		}
	}

	other := gridEval(t, 24, 3, 5, 0)
	if err := other.SetClientWeights(append(uniformCaps(23, 1), 5)); err != nil {
		t.Fatal(err)
	}
	shifted := make([]int, e.F.UniverseSize())
	for u := range shifted {
		shifted[u] = (u + 1) % 24
	}
	f, err := core.NewPlacement(shifted, e.Topo)
	if err != nil {
		t.Fatal(err)
	}
	replaced, err := core.NewEval(e.Topo, e.Sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	dedup := gridEval(t, 24, 3, 5, 0)
	dedup.Mode = core.LoadDedup
	for name, bad := range map[string]*core.Eval{
		"weights":   other,
		"placement": replaced,
		"load mode": dedup,
		"system":    gridEval(t, 24, 4, 5, 0),
	} {
		if err := o.Rebind(bad); err == nil {
			t.Errorf("re-bind onto an evaluation with different %s was accepted", name)
		}
	}
	cg, err := NewOptimizer(e, Config{Solver: SolverColgen})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Rebind(e); err == nil {
		t.Error("a column-generation optimizer accepted a re-bind")
	}
}

// avgDistanceTo is the s_i of the non-uniform heuristic: the average
// distance from the evaluation's clients to node w.
func avgDistanceTo(e *core.Eval, w int) float64 {
	s := 0.0
	for _, v := range e.Clients {
		s += e.Topo.RTT(v, w)
	}
	return s / float64(len(e.Clients))
}
