package strategy_test

import (
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// BenchmarkOptimizePlanetLabGrid7 measures the paper's workhorse LP:
// 50 clients × 49 quorums on PlanetLab-50 (≈2.5k variables, ≈100 rows).
func BenchmarkOptimizePlanetLabGrid7(b *testing.B) {
	topo := topology.PlanetLab50(1)
	sys, err := quorum.NewGrid(7)
	if err != nil {
		b.Fatal(err)
	}
	f, err := placement.OneToOne(topo, sys, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, core.AlphaForDemand(16000))
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]float64, topo.Size())
	for w := range caps {
		caps[w] = 0.6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Optimize(e, caps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDaxlistGrid12 measures the largest LP in the paper's
// experiment space: 161 clients × 144 quorums (≈23k variables, ≈300
// rows) — the instance class that bounded the authors' glpsol runs.
func BenchmarkOptimizeDaxlistGrid12(b *testing.B) {
	topo := topology.Daxlist161(1)
	sys, err := quorum.NewGrid(12)
	if err != nil {
		b.Fatal(err)
	}
	f, err := placement.OneToOne(topo, sys, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, core.AlphaForDemand(16000))
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]float64, topo.Size())
	for w := range caps {
		caps[w] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Optimize(e, caps); err != nil {
			b.Fatal(err)
		}
	}
}
