package graph

import (
	"math/rand"
	"testing"
)

// randSparse builds a connected random graph with n nodes and roughly
// n*deg/2 undirected edges: a random spanning tree plus random extras.
func randSparse(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if err := g.AddEdge(u, v, 1+rng.Float64()*99); err != nil {
			panic(err)
		}
	}
	extra := n * (deg - 2) / 2
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, 1+rng.Float64()*99); err != nil {
			panic(err)
		}
	}
	return g
}

// BenchmarkShortestFrom counts allocations of a single-source Dijkstra on
// a 1024-node sparse graph. The container/heap baseline allocated on every
// push (interface boxing); the indexed 4-ary heap should allocate only the
// returned distance slice plus its one-time workspace.
func BenchmarkShortestFrom(b *testing.B) {
	g := randSparse(1024, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ShortestFrom(i % g.NumNodes())
	}
}

// BenchmarkClosure compares the parallel sparse closure against the dense
// Floyd–Warshall fallback on a 1k-node AS-scale sparse graph. The ratio of
// the two is the closure speedup BENCH_plan.json tracks.
func BenchmarkClosure(b *testing.B) {
	g := randSparse(1000, 6, 2)
	b.Run("sparse-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.sparseClosure()
		}
	})
	b.Run("dense-fw-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := g.edgeMatrix()
			m.MetricClosure()
		}
	})
}
