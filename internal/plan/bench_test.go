package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// benchConfig is the §7 workhorse: a 5×5 Grid on PlanetLab-50 with
// LP-optimized strategies at high demand.
func benchConfig() Config {
	return Config{
		System:   SystemSpec{Family: "grid", Param: 5},
		Strategy: StratLP,
		Demand:   16000,
	}
}

// BenchmarkColdPlan measures the full pipeline: topology closure, system
// construction, the one-to-one anchor search, a cold strategy LP solve,
// and evaluation.
func BenchmarkColdPlan(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(topo, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanDemandDelta measures the incremental path after a
// demand-only delta: only the evaluation stage re-runs (the acceptance
// bar for the staged planner is ≥ 5× over BenchmarkColdPlan; in practice
// the gap is orders of magnitude).
func BenchmarkReplanDemandDelta(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	p, err := New(topo, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		b.Fatal(err)
	}
	demands := []float64{4000, 16000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetDemand(demands[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanCapacityDelta measures the warm-start path after a
// capacity-only delta: the LP skeleton is reused, the capacity right-hand
// sides are rewritten, and the solve warm-starts from the previous
// optimal basis.
func BenchmarkReplanCapacityDelta(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	p, err := New(topo, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		b.Fatal(err)
	}
	caps := []float64{0.68, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetUniformCapacity(caps[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplanDemandDeltaSpeedup pins the acceptance bar as a test: an
// incremental re-plan after a demand-only delta must be at least 5×
// faster than a cold end-to-end plan. The real ratio is ~1000×; 5× leaves
// enormous headroom for noisy CI machines.
func TestReplanDemandDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	topo := topology.PlanetLab50(topology.DefaultSeed)

	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := New(topo, benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})

	p, err := New(topo, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	demands := []float64{4000, 16000}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := p.SetDemand(demands[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})

	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	if warmNs <= 0 {
		t.Fatalf("degenerate timing: warm %v ns/op", warmNs)
	}
	ratio := coldNs / warmNs
	t.Logf("cold plan %.2fms, demand-delta re-plan %.4fms: %.0fx", coldNs/1e6, warmNs/1e6, ratio)
	if ratio < 5 {
		t.Fatalf("incremental demand-delta re-plan only %.1fx faster than cold plan, want >= 5x", ratio)
	}
}

// as300 memoizes the topology the RTT-delta benchmark and its floor test
// plan: the 300-site AS graph `topogen -as-sites 300` generates.
var as300 *topology.Topology

func as300Topo(tb testing.TB) *topology.Topology {
	tb.Helper()
	if as300 == nil {
		topo, err := topology.Generate(topology.GenConfig{
			Name: "as-300",
			AS:   &topology.ASGraphSpec{Sites: 300},
		}, topology.DefaultSeed)
		if err != nil {
			tb.Fatal(err)
		}
		as300 = topo
	}
	return as300
}

// rttDeltaKinds are the four single-link edits bench/gen.go's rtt mix
// cycles through: a random pair moves 20–40 % up and is measured back,
// then another moves down and is measured back.
var rttDeltaKinds = [4]string{"raise", "restore-down", "lower", "restore-up"}

// rttDeltaCycle applies those four edits to one random pair each way,
// re-planning after every one, and adds each re-plan's time to its kind.
func rttDeltaCycle(tb testing.TB, p *Planner, rng *rand.Rand, spent *[4]time.Duration) {
	n := p.Size()
	for half := 0; half < 2; half++ {
		u := rng.Intn(n)
		v := (u + 1 + rng.Intn(n-1)) % n
		base := p.RTT(u, v)
		factor := 1.2 + 0.2*rng.Float64()
		if half == 1 {
			factor = 2 - factor
		}
		for step, ms := range []float64{base * factor, base} {
			if err := p.SetRTT(u, v, ms); err != nil {
				tb.Fatal(err)
			}
			start := time.Now()
			if _, err := p.Plan(); err != nil {
				tb.Fatal(err)
			}
			spent[2*half+step] += time.Since(start)
		}
	}
}

// BenchmarkReplanRTTDelta measures the delta-proportional RTT path on the
// socket benchmark's daemon configuration (300-site AS graph, grid:5,
// lp): one op is one single-link edit and its re-plan, and the extra
// metrics split the time by edit kind.
func BenchmarkReplanRTTDelta(b *testing.B) {
	p, err := New(as300Topo(b), benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var spent [4]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i += 4 {
		rttDeltaCycle(b, p, rng, &spent)
	}
	cycles := float64((b.N + 3) / 4)
	for k, kind := range rttDeltaKinds {
		b.ReportMetric(float64(spent[k].Nanoseconds())/cycles, kind+"-ns/op")
	}
}

// TestReplanRTTDeltaSpeedup is the floor under BenchmarkReplanRTTDelta, in
// the style of TestReplanDemandDeltaSpeedup: on that topology a re-plan
// after a single-link RTT edit must be at least 2× faster than a cold
// plan. The measured ratio is far higher; 2× is what survives a noisy CI
// machine.
func TestReplanRTTDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	topo := as300Topo(t)
	p, err := New(topo, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	rng := rand.New(rand.NewSource(1))
	var spent [4]time.Duration
	const cycles = 10
	for i := 0; i < cycles; i++ {
		rttDeltaCycle(t, p, rng, &spent)
	}
	warm := (spent[0] + spent[1] + spent[2] + spent[3]) / (4 * cycles)
	ratio := float64(cold) / float64(warm)
	t.Logf("cold plan %v, rtt-delta re-plan %v (raise %v, restore-down %v, lower %v, restore-up %v): %.0fx",
		cold, warm, spent[0]/cycles, spent[1]/cycles, spent[2]/cycles, spent[3]/cycles, ratio)
	if ratio < 2 {
		t.Fatalf("rtt-delta re-plan only %.1fx faster than a cold plan, want >= 2x", ratio)
	}
}

// BenchmarkReplanRTTDelta1k is the scale-smoke check of the RTT path, run
// by CI with -benchtime=1x: on a 1k-site AS graph (one-to-one grid:5,
// closest strategy, so closure and placement are timed and no LP) one
// cold plan of edited inputs — full closure, full anchor search: what
// every rtt delta used to cost — and then 20 single-link deltas, which
// together must take less than 5× that one plan.
func BenchmarkReplanRTTDelta1k(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{
		Name: "as-1000",
		AS:   &topology.ASGraphSpec{Sites: 1000},
	}, topology.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(topo, Config{System: SystemSpec{Family: "grid", Param: 5}, Strategy: StratClosest, Demand: 16000})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SetRTT(0, 1, p.RTT(0, 1)*1.1); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
		cold := time.Since(start)

		rng := rand.New(rand.NewSource(1))
		var spent [4]time.Duration
		for c := 0; c < 5; c++ {
			rttDeltaCycle(b, p, rng, &spent)
		}
		deltas := spent[0] + spent[1] + spent[2] + spent[3]
		b.ReportMetric(float64(cold.Milliseconds()), "cold-ms")
		b.ReportMetric(float64(deltas.Milliseconds()), "20-deltas-ms")
		if deltas >= 5*cold {
			b.Fatalf("20 rtt deltas took %v, a cold plan %v: want less than 5x", deltas, cold)
		}
	}
}

// BenchmarkASPlan times the planning pipeline stage by stage on
// synthetic AS graphs, every site a client: generation with the sparse
// metric closure, the one-to-one placement, and the access LP under the
// default solver profile. One op is one plan; CI runs each point once
// under a timeout. The 8-of-15 points (6,435 quorums) scale every
// capacity by 0.6 so the capacity rows bind and column generation, which
// auto picks at that width, has to grow columns beyond its seeds; they
// fail unless it does. The /dense leaf times the dense simplex instead
// and cross-checks column generation's objective against it to 1e-9.
func BenchmarkASPlan(b *testing.B) {
	for _, pt := range []struct {
		sites, k, n   int
		caps          float64
		colgen, dense bool
	}{
		{sites: 100, k: 3, n: 5, caps: 1},
		{sites: 1000, k: 3, n: 5, caps: 1},
		{sites: 100, k: 8, n: 15, caps: 0.6, colgen: true},
		{sites: 100, k: 8, n: 15, caps: 0.6, colgen: true, dense: true},
		{sites: 1000, k: 8, n: 15, caps: 0.6, colgen: true},
	} {
		name := fmt.Sprintf("%d-of-%d/sites=%d", pt.k, pt.n, pt.sites)
		if pt.caps != 1 {
			name = fmt.Sprintf("%d-of-%d/caps=%g/sites=%d", pt.k, pt.n, pt.caps, pt.sites)
		}
		if pt.dense {
			name += "/dense"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := quorum.NewThreshold(pt.k, pt.n)
			if err != nil {
				b.Fatal(err)
			}
			var stage [3]time.Duration // closure, placement, strategy
			var res *strategy.Result
			for i := 0; i < b.N; i++ {
				start := time.Now()
				topo, err := topology.Generate(topology.GenConfig{
					Name: fmt.Sprintf("as-%d", pt.sites),
					AS:   &topology.ASGraphSpec{Sites: pt.sites},
				}, topology.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				stage[0] += time.Since(start)
				start = time.Now()
				f, err := placement.OneToOne(topo, sys, placement.Options{})
				if err != nil {
					b.Fatal(err)
				}
				stage[1] += time.Since(start)
				eval, err := core.NewEval(topo, sys, f, 0)
				if err != nil {
					b.Fatal(err)
				}
				caps := topo.Capacities()
				for j := range caps {
					caps[j] *= pt.caps
				}
				solve := func(solver strategy.Solver) *strategy.Result {
					cfg := strategy.ConfigFor(false)
					cfg.Solver = solver
					opt, err := strategy.NewOptimizer(eval, cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := opt.Optimize(caps)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				start = time.Now()
				if pt.dense {
					res = solve(strategy.SolverDense)
				} else {
					res = solve(strategy.SolverAuto)
				}
				stage[2] += time.Since(start)
				if pt.colgen {
					cg := res
					if pt.dense {
						b.StopTimer()
						cg = solve(strategy.SolverAuto)
						b.StartTimer()
						if diff := math.Abs(cg.AvgNetDelay - res.AvgNetDelay); diff > 1e-9*(1+math.Abs(res.AvgNetDelay)) {
							b.Fatalf("colgen objective %v disagrees with dense %v (diff %g)", cg.AvgNetDelay, res.AvgNetDelay, diff)
						}
					}
					if !strings.HasPrefix(cg.LPMethod, "colgen-") || cg.Colgen == nil || cg.Colgen.Columns <= cg.Colgen.SuperClients {
						b.Fatalf("auto solved %d-of-%d at %d sites with %q and colgen stats %+v; want column generation adding columns to its seeds",
							pt.k, pt.n, pt.sites, cg.LPMethod, cg.Colgen)
					}
				}
			}
			for i, unit := range []string{"closure_ms", "placement_ms", "strategy_ms"} {
				b.ReportMetric(float64(stage[i].Microseconds())/1e3/float64(b.N), unit)
			}
			b.ReportMetric(float64(res.Iterations), "pivots")
			if res.Colgen != nil {
				b.ReportMetric(float64(res.Colgen.PricingRounds), "pricing_rounds")
				b.ReportMetric(float64(res.Colgen.Columns), "columns")
			}
		})
	}
}
