package strategy

import (
	"math"
	"reflect"
	"testing"

	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/par/partest"
)

// TestParallelSweepIdenticalToSerial: sweeps must produce byte-identical
// results at every pool width — both on the default warm path (chunk
// boundaries fix the warm-start chains) and in reproducible mode.
func TestParallelSweepIdenticalToSerial(t *testing.T) {
	e := gridEval(t, 12, 3, 42, 5)
	values := SweepValues(e.Sys.OptimalLoad(), 10)
	lopt := e.Sys.OptimalLoad()
	for _, repro := range []bool{false, true} {
		cfg := ConfigFor(repro)
		partest.SetGOMAXPROCS(t, 1)
		serial, err := UniformSweep(e, values, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serialNU, err := NonUniformSweep(e, lopt, values, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{2, 3, 8} {
			partest.SetGOMAXPROCS(t, width)
			par, err := UniformSweep(e, values, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("reproducible=%v: %d-wide uniform sweep differs from serial", repro, width)
			}
		}
		partest.SetGOMAXPROCS(t, 4)
		parNU, err := NonUniformSweep(e, lopt, values, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serialNU, parNU) {
			t.Fatalf("reproducible=%v: parallel non-uniform sweep differs from serial", repro)
		}
	}
}

// TestWarmSweepMatchesReproducibleObjectives: the fast path must find
// the same optima as the reproducible path at every sweep point — the
// LP objective (net delay) is vertex-independent, so the two modes must
// agree on it to high precision, and on feasibility exactly.
func TestWarmSweepMatchesReproducibleObjectives(t *testing.T) {
	e := gridEval(t, 12, 3, 7, 5)
	values := SweepValues(e.Sys.OptimalLoad(), 12)
	fast, err := UniformSweep(e, values, ConfigFor(false))
	if err != nil {
		t.Fatal(err)
	}
	repro, err := UniformSweep(e, values, ConfigFor(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if fast[i].Infeasible != repro[i].Infeasible {
			t.Fatalf("point %d: fast infeasible=%v, reproducible=%v",
				i, fast[i].Infeasible, repro[i].Infeasible)
		}
		if fast[i].Infeasible {
			continue
		}
		if diff := math.Abs(fast[i].NetDelay - repro[i].NetDelay); diff > 1e-6 {
			t.Errorf("point %d: fast net delay %v vs reproducible %v (diff %v)",
				i, fast[i].NetDelay, repro[i].NetDelay, diff)
		}
	}
}

// TestOptimizerWarmChainMatchesCold: an Optimizer chaining warm starts
// across capacity settings must agree with fresh cold solves on
// objective and produce valid strategies throughout.
func TestOptimizerWarmChainMatchesCold(t *testing.T) {
	e := gridEval(t, 10, 3, 3, 5)
	warm, err := NewOptimizer(e, Config{LP: lp.Options{Pricing: lp.PricingPartial}, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range SweepValues(e.Sys.OptimalLoad(), 8) {
		caps := uniformCaps(e.Topo.Size(), c)
		wres, werr := warm.Optimize(caps)
		cres, cerr := Optimize(e, caps)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("cap %v: warm err %v, cold err %v", c, werr, cerr)
		}
		if werr != nil {
			if !isInfeasible(werr) || !isInfeasible(cerr) {
				t.Fatalf("cap %v: unexpected errors warm=%v cold=%v", c, werr, cerr)
			}
			continue
		}
		if diff := math.Abs(wres.AvgNetDelay - cres.AvgNetDelay); diff > 1e-6 {
			t.Errorf("cap %v: warm delay %v vs cold %v (diff %v)", c, wres.AvgNetDelay, cres.AvgNetDelay, diff)
		}
		if err := wres.Strategy.Validate(e); err != nil {
			t.Errorf("cap %v: warm strategy invalid: %v", c, err)
		}
	}
}

// TestOptimizeMatchesLegacySinglePoint: the Optimizer-backed Optimize
// must behave exactly like a standalone solve (guarding the skeleton
// construction against drift from the original row-by-row assembly).
func TestOptimizeMatchesLegacySinglePoint(t *testing.T) {
	e := gridEval(t, 12, 3, 9, 5)
	caps := uniformCaps(e.Topo.Size(), 0.9)
	a, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgNetDelay != b.AvgNetDelay || a.Iterations != b.Iterations {
		t.Fatalf("repeated Optimize differs: (%v, %d) vs (%v, %d)",
			a.AvgNetDelay, a.Iterations, b.AvgNetDelay, b.Iterations)
	}
	if !reflect.DeepEqual(a.Strategy.Rows, b.Strategy.Rows) {
		t.Fatal("repeated Optimize returned different strategies")
	}
}
