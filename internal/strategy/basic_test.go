package strategy_test

import (
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// TestLPStrategyIsBasicSized: a basic optimum of (4.3)–(4.6) has at most
// one nonzero per row, and the rows are one convexity row per client (or
// colgen group) and at most one capacity row per support node. So the
// dense path's rows hold at most nc + |S| entries, and colgen's distinct
// group rows at most ng + |S|, in both solver profiles.
func TestLPStrategyIsBasicSized(t *testing.T) {
	pl := topology.PlanetLab50(topology.DefaultSeed)
	grid5, err := quorum.NewGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	fGrid, err := placement.OneToOne(pl, grid5, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plEval, err := core.NewEval(pl, grid5, fGrid, 0)
	if err != nil {
		t.Fatal(err)
	}

	dax := topology.Daxlist161(topology.DefaultSeed)
	maj, err := quorum.NewThreshold(8, 15)
	if err != nil {
		t.Fatal(err)
	}
	every10 := make([]int, maj.UniverseSize())
	for u := range every10 {
		every10[u] = 10 * u
	}
	fMaj, err := core.NewPlacement(every10, dax)
	if err != nil {
		t.Fatal(err)
	}
	daxEval, err := core.NewEval(dax, maj, fMaj, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		e      *core.Eval
		solver strategy.Solver
	}{
		{"planetlab-50 grid:5 dense", plEval, strategy.SolverDense},
		{"planetlab-50 grid:5 colgen", plEval, strategy.SolverColgen},
		{"daxlist-161 8-of-15 every 10th site colgen", daxEval, strategy.SolverAuto},
	} {
		caps := c.e.Topo.Capacities()
		for w := range caps {
			caps[w] *= 0.6
		}
		support := len(c.e.F.Support())
		for _, reproducible := range []bool{true, false} {
			cfg := strategy.ConfigFor(reproducible)
			cfg.Solver = c.solver
			opt, err := strategy.NewOptimizer(c.e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Optimize(caps)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rows := res.Strategy.Rows
			nnz, bound := 0, len(rows)+support
			if res.Colgen != nil {
				seen := map[*core.Access]bool{}
				for _, row := range rows {
					if !seen[&row[0]] {
						seen[&row[0]] = true
						nnz += len(row)
					}
				}
				bound = res.Colgen.SuperClients + support
				if len(seen) > res.Colgen.SuperClients {
					t.Errorf("%s: %d distinct rows for %d groups", c.name, len(seen), res.Colgen.SuperClients)
				}
			} else {
				for _, row := range rows {
					nnz += len(row)
				}
			}
			if nnz > bound {
				t.Errorf("%s (reproducible %v): %d entries, a basic optimum has at most %d", c.name, reproducible, nnz, bound)
			}
			t.Logf("%s (reproducible %v): %d entries over %d rows, bound %d", c.name, reproducible, nnz, len(rows), bound)
		}
	}
}
