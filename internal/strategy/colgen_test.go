package strategy

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// randomEval builds a randomized evaluation: random metric topology,
// random small enumerable system, random (possibly colliding) placement,
// random client subset (possibly with duplicate sites), and sometimes
// non-uniform client weights.
func randomEval(t *testing.T, rng *rand.Rand) *core.Eval {
	t.Helper()
	n := 8 + rng.Intn(9)
	topo := testTopo(t, n, rng.Int63())

	var sys quorum.System
	switch rng.Intn(4) {
	case 0:
		g, err := quorum.NewGrid(2 + rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		sys = g
	case 1:
		th, err := quorum.NewThreshold(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		sys = th
	case 2:
		th, err := quorum.NewThreshold(3, 5)
		if err != nil {
			t.Fatal(err)
		}
		sys = th
	default:
		th, err := quorum.NewThreshold(5, 8)
		if err != nil {
			t.Fatal(err)
		}
		sys = th
	}

	target := make([]int, sys.UniverseSize())
	for u := range target {
		target[u] = rng.Intn(n) // collisions exercise multiplicity loads
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}

	if rng.Intn(2) == 0 {
		k := 3 + rng.Intn(n)
		clients := make([]int, k)
		for i := range clients {
			clients[i] = rng.Intn(n) // duplicates likely
		}
		if err := e.SetClients(clients); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		w := make([]float64, len(e.Clients))
		for i := range w {
			w[i] = 0.1 + rng.Float64()*4
		}
		if err := e.SetClientWeights(w); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// relDiff is |a−b| / (1+|b|).
func relDiff(a, b float64) float64 { return math.Abs(a-b) / (1 + math.Abs(b)) }

// TestColgenMatchesDenseRandom is the core equivalence property: on
// randomized topologies, systems, placements, client multisets, weights,
// and capacities — feasible and infeasible alike — the colgen solver and
// the dense simplex agree on feasibility and, when feasible, on the
// objective to ≤ 1e-9 relative, with or without aggregation.
func TestColgenMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20070625))
	capScales := []float64{0.4, 0.7, 1.0}
	farkasSeen := 0
	aggSeen := 0
	for trial := 0; trial < 40; trial++ {
		e := randomEval(t, rng)
		n := e.Topo.Size()
		caps := uniformCaps(n, capScales[trial%len(capScales)]*(0.5+rng.Float64()))

		dres, derr := Optimize(e, caps)

		ccfg := Config{Solver: SolverColgen, NoAggregate: trial%4 == 1}
		if trial%3 == 1 {
			ccfg.LP.Pricing = lp.PricingPartial
		}
		copt, err := NewOptimizer(e, ccfg)
		if err != nil {
			t.Fatalf("trial %d: NewOptimizer(colgen): %v", trial, err)
		}
		cres, cerr := copt.Optimize(caps)

		if derr != nil {
			if !errors.Is(derr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: dense: %v", trial, derr)
			}
			if !errors.Is(cerr, lp.ErrInfeasible) {
				t.Fatalf("trial %d: dense infeasible but colgen said %v", trial, cerr)
			}
			continue
		}
		if cerr != nil {
			t.Fatalf("trial %d: dense feasible (obj %v) but colgen: %v", trial, dres.AvgNetDelay, cerr)
		}
		if d := relDiff(cres.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
			t.Fatalf("trial %d: colgen objective %v, dense %v (rel diff %g)",
				trial, cres.AvgNetDelay, dres.AvgNetDelay, d)
		}
		// The fanned-out strategy must actually achieve the objective.
		if got := e.AvgNetworkDelay(cres.Strategy); math.Abs(got-cres.AvgNetDelay) > 1e-6 {
			t.Fatalf("trial %d: colgen objective %v but evaluation says %v", trial, cres.AvgNetDelay, got)
		}
		if cres.Colgen == nil {
			t.Fatalf("trial %d: colgen result missing stats", trial)
		}
		if cres.Colgen.FarkasRounds > 0 {
			farkasSeen++
		}
		if cres.Colgen.SuperClients < len(e.Clients) {
			aggSeen++
		}
	}
	t.Logf("farkas recoveries in %d trials; aggregation collapsed clients in %d", farkasSeen, aggSeen)
}

// TestColgenBothPricingModes asserts colgen composes with both master
// pricing rules — Dantzig and the rotating-block partial pricing — and
// that both land on the dense objective.
func TestColgenBothPricingModes(t *testing.T) {
	e := gridEval(t, 14, 3, 99, 0)
	caps := uniformCaps(14, 0.6)
	dres, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, pricing := range []lp.Pricing{lp.PricingDantzig, lp.PricingPartial} {
		opt, err := NewOptimizer(e, Config{Solver: SolverColgen, LP: lp.Options{Pricing: pricing}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(caps)
		if err != nil {
			t.Fatalf("pricing %d: %v", pricing, err)
		}
		if d := relDiff(res.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
			t.Errorf("pricing %d: objective %v, dense %v (rel diff %g)", pricing, res.AvgNetDelay, dres.AvgNetDelay, d)
		}
	}
}

// TestColgenDuplicateClientSitesDifferentWeights: duplicate client sites
// share one RTT signature, so aggregation must collapse them into one
// super-client whose weight is the members' sum — and the result must
// match both the dense solver and the unaggregated colgen run.
func TestColgenDuplicateClientSitesDifferentWeights(t *testing.T) {
	e := gridEval(t, 10, 3, 7, 0)
	clients := []int{0, 1, 2, 3, 1, 2, 2, 4}
	if err := e.SetClients(clients); err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(clients))
	for i := range w {
		w[i] = float64(i + 1) // positionally distinct weights
	}
	if err := e.SetClientWeights(w); err != nil {
		t.Fatal(err)
	}
	caps := uniformCaps(10, 0.8)

	dres, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewOptimizer(e, Config{Solver: SolverColgen})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := agg.Optimize(caps)
	if err != nil {
		t.Fatal(err)
	}
	noagg, err := NewOptimizer(e, Config{Solver: SolverColgen, NoAggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := noagg.Optimize(caps)
	if err != nil {
		t.Fatal(err)
	}
	if ares.Colgen.SuperClients >= len(clients) {
		t.Errorf("aggregation did not collapse duplicate sites: %d super-clients for %d clients",
			ares.Colgen.SuperClients, len(clients))
	}
	if nres.Colgen.SuperClients != len(clients) {
		t.Errorf("NoAggregate produced %d super-clients, want %d", nres.Colgen.SuperClients, len(clients))
	}
	if d := relDiff(ares.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
		t.Errorf("aggregated objective %v, dense %v (rel diff %g)", ares.AvgNetDelay, dres.AvgNetDelay, d)
	}
	if d := relDiff(nres.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
		t.Errorf("unaggregated objective %v, dense %v (rel diff %g)", nres.AvgNetDelay, dres.AvgNetDelay, d)
	}
	// Duplicate positions of one site must fan out the same distribution.
	p := ares.Strategy.Rows
	if !slices.Equal(p[1], p[4]) {
		t.Fatalf("duplicate site clients diverged: %v vs %v", p[1], p[4])
	}
}

// TestZeroWeightClientsRejected documents the invariant aggregation (and
// the dense LP) rely on: client weights are strictly positive, enforced
// at SetClientWeights. A zero-weight client would make its convexity row
// vacuous in the objective while still loading capacity rows.
func TestZeroWeightClientsRejected(t *testing.T) {
	e := gridEval(t, 8, 2, 3, 0)
	w := make([]float64, len(e.Clients))
	for i := range w {
		w[i] = 1
	}
	w[2] = 0
	if err := e.SetClientWeights(w); err == nil {
		t.Fatal("SetClientWeights accepted a zero weight")
	}
	w[2] = -1
	if err := e.SetClientWeights(w); err == nil {
		t.Fatal("SetClientWeights accepted a negative weight")
	}
}

// TestColgenFarkasRecovery constructs a master whose seed columns (every
// client's closest quorum) overload one node at capacities the full LP
// can satisfy by spreading: the first master solve is infeasible, Farkas
// pricing must bring in relieving columns, and the final objective must
// match the dense solver.
func TestColgenFarkasRecovery(t *testing.T) {
	n := 5
	m := graph.NewMatrix(n)
	// Node 0 is near everything; 1 a bit further; 2 far. Every client's
	// closest majority-2-of-3 quorum is {0,1}.
	base := []float64{1, 5, 40, 3, 4}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, base[i]+base[j])
		}
	}
	m.MetricClosure()
	topo, err := topology.New("farkas", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := quorum.NewThreshold(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewPlacement([]int{0, 1, 2}, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Full LP: balancing the three quorums puts 2/3 load on each node, so
	// 0.75 is feasible — but the all-seeds master needs 1.0 on nodes 0,1.
	caps := uniformCaps(n, 0.75)

	dres, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(e, Config{Solver: SolverColgen})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colgen.FarkasRounds == 0 {
		t.Errorf("expected Farkas recovery, stats %+v", *res.Colgen)
	}
	if d := relDiff(res.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
		t.Errorf("objective %v after Farkas recovery, dense %v (rel diff %g)", res.AvgNetDelay, dres.AvgNetDelay, d)
	}

	// And capacities no column set can satisfy must still report
	// infeasibility (certified by an empty Farkas round).
	_, err = opt.Optimize(uniformCaps(n, 0.5))
	if !errors.Is(err, lp.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestColgenWarmAcrossCapacities: with WarmStart, a second Optimize at
// tighter capacities must stay off the cold path (the carried basis is
// dual feasible — pricing terminated with every column ≥ −tol) and agree
// with dense at both points.
func TestColgenWarmAcrossCapacities(t *testing.T) {
	e := gridEval(t, 12, 3, 11, 0)
	opt, err := NewOptimizer(e, Config{Solver: SolverColgen, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []float64{0.9, 0.8} {
		caps := uniformCaps(12, c)
		res, err := opt.Optimize(caps)
		if err != nil {
			t.Fatalf("cap %v: %v", c, err)
		}
		dres, err := Optimize(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(res.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
			t.Errorf("cap %v: colgen %v, dense %v (rel diff %g)", c, res.AvgNetDelay, dres.AvgNetDelay, d)
		}
		if i == 1 && res.LPMethod == "colgen-"+lp.MethodCold {
			t.Errorf("second solve fell back to cold: %q", res.LPMethod)
		}
		if res.Colgen.MasterSolves < 1 || res.Colgen.PricingRounds < 1 || res.Colgen.Columns < res.Colgen.SuperClients {
			t.Errorf("implausible stats %+v", *res.Colgen)
		}
	}
}

// TestColgenAggregationUnderWeightDeltas: after every SetClientWeights
// delta (and a rebuild, since weights are baked into the skeleton),
// aggregated and unaggregated colgen must agree with each other and with
// dense, and the last step's return to uniform weights too. Colgen
// aggregates clients by delay signature, dense never does; duplicate
// client sites keep the aggregation non-trivial across all weight
// assignments.
func TestColgenAggregationUnderWeightDeltas(t *testing.T) {
	e := gridEval(t, 12, 3, 21, 0)
	if err := e.SetClients([]int{0, 1, 2, 3, 4, 5, 2, 3}); err != nil {
		t.Fatal(err)
	}
	caps := uniformCaps(12, 0.7)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 6; step++ {
		if step > 0 {
			w := make([]float64, len(e.Clients))
			for i := range w {
				w[i] = 1 // the last step returns to uniform weights
				if step < 5 {
					w[i] = 0.3 + rng.Float64()*2
				}
			}
			if err := e.SetClientWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		dres, err := Optimize(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(dres.LPMethod, "colgen-") || dres.Colgen != nil {
			t.Fatalf("step %d: dense result carries colgen provenance: method %q", step, dres.LPMethod)
		}
		for _, noagg := range []bool{false, true} {
			opt, err := NewOptimizer(e, Config{Solver: SolverColgen, NoAggregate: noagg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Optimize(caps)
			if err != nil {
				t.Fatalf("step %d noagg=%v: %v", step, noagg, err)
			}
			if !strings.HasPrefix(res.LPMethod, "colgen-") || res.Colgen == nil {
				t.Fatalf("step %d noagg=%v: colgen result lacks colgen provenance: method %q", step, noagg, res.LPMethod)
			}
			if d := relDiff(res.AvgNetDelay, dres.AvgNetDelay); d > 1e-9 {
				t.Errorf("step %d noagg=%v: objective %v, dense %v (rel diff %g)",
					step, noagg, res.AvgNetDelay, dres.AvgNetDelay, d)
			}
		}
	}
}

// TestSolverSelection covers the auto rule: size alone picks the
// algorithm, and a pinned solver is kept.
func TestSolverSelection(t *testing.T) {
	for _, c := range []struct {
		s    Solver
		size int
		want Solver
	}{
		{SolverAuto, DefaultColgenThreshold - 1, SolverDense},
		{SolverAuto, DefaultColgenThreshold, SolverColgen},
		{SolverDense, DefaultColgenThreshold, SolverDense},
		{SolverColgen, 10, SolverColgen},
	} {
		if got := resolveSolver(c.s, c.size); got != c.want {
			t.Errorf("resolveSolver(%q, %d) = %q, want %q", c.s, c.size, got, c.want)
		}
	}
	// Auto at paper scale must stay dense (no "colgen-" method prefix).
	e := gridEval(t, 8, 2, 5, 0)
	opt, err := NewOptimizer(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(uniformCaps(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.LPMethod != lp.MethodCold || res.Colgen != nil {
		t.Errorf("auto at paper scale: method %q, colgen stats %v; want plain dense cold", res.LPMethod, res.Colgen)
	}
}

// TestReproducibleProfileChoosesBySize: the reproducible profile does
// not pin the dense path, so a problem at DefaultColgenThreshold
// client×quorum variables builds the column-generation optimizer. 500
// clients on 16 sites times Grid(20)'s 400 quorums is exactly the
// threshold; the optimizer is built, never solved.
func TestReproducibleProfileChoosesBySize(t *testing.T) {
	e := gridEval(t, 16, 20, 9, 0)
	clients := make([]int, DefaultColgenThreshold/e.Sys.NumQuorums())
	for i := range clients {
		clients[i] = i % 16
	}
	if err := e.SetClients(clients); err != nil {
		t.Fatal(err)
	}
	o, err := NewOptimizer(e, ConfigFor(true))
	if err != nil {
		t.Fatal(err)
	}
	if o.cg == nil {
		t.Fatalf("%d×%d LP under ConfigFor(true) built the dense optimizer", len(e.Clients), e.Sys.NumQuorums())
	}
}
