package placement

import (
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func BenchmarkGridOneToOnePlanetLab(b *testing.B) {
	topo := topology.PlanetLab50(1)
	sys, err := quorum.NewGrid(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OneToOne(topo, sys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityOneToOneDaxlist(b *testing.B) {
	topo := topology.Daxlist161(1)
	sys, err := quorum.NewThreshold(25, 49)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OneToOne(topo, sys, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManyToOnePlanetLab(b *testing.B) {
	topo := topology.PlanetLab50(1)
	sys, err := quorum.NewGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	// A handful of anchors keeps a single iteration meaningful while the
	// full search is exercised by BenchmarkFig89 at the repository root.
	cfg := ManyToOneConfig{Candidates: []int{0, 10, 20, 30, 40}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ManyToOne(topo, sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalResponseTime(b *testing.B) {
	topo := topology.Daxlist161(1)
	sys, err := quorum.NewGrid(12)
	if err != nil {
		b.Fatal(err)
	}
	f, err := OneToOne(topo, sys, Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, core.AlphaForDemand(16000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := e.AvgResponseTime(core.BalancedStrategy{}); v <= 0 {
			b.Fatal("non-positive response")
		}
	}
}

// benchASTopo memoizes the AS benchmark topology: generation involves a
// 600-source sparse closure and should not be timed per-benchmark.
var benchASTopo *topology.Topology

func getBenchASTopo(b *testing.B) *topology.Topology {
	b.Helper()
	if benchASTopo == nil {
		t, err := topology.Generate(topology.GenConfig{
			Name: "as-bench",
			AS:   &topology.ASGraphSpec{Sites: 600},
		}, topology.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		benchASTopo = t
	}
	return benchASTopo
}

// BenchmarkAnchorSearch compares the exhaustive anchor scan against the
// probe-and-prune search. Both return identical placements
// (TestPrunedMatchesExhaustive); the pruned run skips every anchor whose
// lower bound exceeds the probe incumbent. The geographic topology
// (daxlist) prunes mostly on the cheap ball-radius bound; the small-world
// AS topology needs the tier-2 expected-max bound.
func BenchmarkAnchorSearch(b *testing.B) {
	sys, err := quorum.NewThreshold(8, 15)
	if err != nil {
		b.Fatal(err)
	}
	for _, tb := range []struct {
		name string
		topo *topology.Topology
	}{
		{"as-600", getBenchASTopo(b)},
		{"dax-161", topology.Daxlist161(topology.DefaultSeed)},
	} {
		for _, bc := range []struct {
			name string
			mode SearchMode
		}{
			{"exhaustive", SearchExhaustive},
			{"pruned", SearchPruned},
		} {
			b.Run(tb.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := OneToOne(tb.topo, sys, Options{Search: bc.mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnchorSearch300 keeps SearchAuto's rule honest at the size it
// got wrong: on a 300-site AS graph the tier-2 bound costs 257
// ExpectedMaxUniform evaluations per anchor to save at most 300, so auto
// must stay with the exhaustive scan there (auto ≈ exhaustive < pruned).
func BenchmarkAnchorSearch300(b *testing.B) {
	topo, err := topology.Generate(topology.GenConfig{
		Name: "as-300",
		AS:   &topology.ASGraphSpec{Sites: 300},
	}, topology.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := quorum.NewGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	partest.SetGOMAXPROCS(b, 1) // the modes compare on one core
	for _, bc := range []struct {
		name string
		mode SearchMode
	}{
		{"auto", SearchAuto},
		{"exhaustive", SearchExhaustive},
		{"pruned", SearchPruned},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OneToOne(topo, sys, Options{Search: bc.mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
