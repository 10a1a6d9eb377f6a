package graph

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/par/partest"
)

// refClosure is the trusted oracle: the direct-edge matrix run through the
// dense Floyd–Warshall MetricClosure.
func refClosure(g *Graph) *Matrix {
	m := g.edgeMatrix()
	m.MetricClosure()
	return m
}

func matricesEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("size mismatch: got %d, want %d", got.Size(), want.Size())
	}
	for i := 0; i < got.Size(); i++ {
		for j := 0; j < got.Size(); j++ {
			a, b := got.At(i, j), want.At(i, j)
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("d(%d,%d): got %v, want %v", i, j, a, b)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > tol {
				t.Fatalf("d(%d,%d): got %v, want %v (|diff| > %v)", i, j, a, b, tol)
			}
		}
	}
}

// TestSparseClosureMatchesMetricClosure is the tentpole property test:
// the parallel all-pairs-Dijkstra closure must agree with Floyd–Warshall
// on random sparse graphs, at every pool width.
func TestSparseClosureMatchesMetricClosure(t *testing.T) {
	for _, width := range []int{1, 2, 7} {
		partest.SetGOMAXPROCS(t, width)
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(60)
			deg := 2 + rng.Intn(4)
			g := randSparse(n, deg, seed+100)
			want := refClosure(g)
			matricesEqual(t, g.sparseClosure(), want, 1e-9)
			// The public entry point must agree regardless of which
			// branch the density heuristic picks.
			matricesEqual(t, g.Closure(), want, 1e-9)
		}
	}
}

// TestSSSPEnginesAgree runs both single-source engines (bucket-queue dial
// and 4-ary-heap dijkstra) over the same CSR and demands identical
// distances, including on graphs whose edge-length ratio would normally
// disqualify dial.
func TestSSSPEnginesAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randSparse(120, 4, seed)
		c := newCSR(g)
		cmin, cmax := c.edgeLengthRange()
		if !dialEligible(cmin, cmax) {
			t.Fatalf("seed %d: randSparse weights should be dial-eligible", seed)
		}
		q := newDial(c, cmin, cmax)
		d := newDijkstra(c, g.NumNodes())
		got := make([]float64, g.NumNodes())
		want := make([]float64, g.NumNodes())
		for src := 0; src < g.NumNodes(); src += 11 {
			q.run(src, got)
			d.run(src, want)
			for v := range got {
				if math.Abs(got[v]-want[v]) > 1e-12 {
					t.Fatalf("seed %d src %d node %d: dial %v, heap %v", seed, src, v, got[v], want[v])
				}
			}
		}
	}
}

// TestSparseClosureHugeWeightRatio forces the heap fallback inside
// sparseClosure: one near-zero edge makes cmax/cmin exceed the dial bucket
// cap, and the closure must still match Floyd–Warshall.
func TestSparseClosureHugeWeightRatio(t *testing.T) {
	g := randSparse(40, 3, 3)
	if err := g.AddEdge(0, 39, 1e-9); err != nil {
		t.Fatal(err)
	}
	c := newCSR(g)
	cmin, cmax := c.edgeLengthRange()
	if dialEligible(cmin, cmax) {
		t.Fatalf("ratio %v should not be dial-eligible", cmax/cmin)
	}
	matricesEqual(t, g.sparseClosure(), refClosure(g), 1e-9)
}

// TestSparseClosureDisconnected checks +Inf handling: pairs in different
// components must be Inf on both the sparse and dense paths.
func TestSparseClosureDisconnected(t *testing.T) {
	g := New(7)
	// Component {0,1,2}, component {3,4}, isolated {5}, {6}.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	want := refClosure(g)
	got := g.sparseClosure()
	matricesEqual(t, got, want, 0)
	if !math.IsInf(got.At(0, 3), 1) || !math.IsInf(got.At(5, 6), 1) {
		t.Fatalf("cross-component distances not Inf: %v, %v", got.At(0, 3), got.At(5, 6))
	}
	if got.At(0, 2) != 2 || got.At(3, 4) != 1 {
		t.Fatalf("in-component distances wrong: %v, %v", got.At(0, 2), got.At(3, 4))
	}
	if g.Connected() {
		t.Fatal("Connected() = true for a 4-component graph")
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() {
		t.Error("empty graph should be connected")
	}
	if !New(1).Connected() {
		t.Error("single node should be connected")
	}
	if New(2).Connected() {
		t.Error("two isolated nodes should not be connected")
	}
	g := randSparse(40, 3, 9)
	if !g.Connected() {
		t.Error("randSparse embeds a spanning tree; must be connected")
	}
}

// TestClosureDenseSelection pins the density heuristic: a complete graph
// takes the Floyd–Warshall branch, a tree the Dijkstra branch, and both
// produce identical metrics anyway.
func TestClosureDenseSelection(t *testing.T) {
	n := 24
	complete := New(n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := complete.AddEdge(i, j, 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !closureDense(n, complete.NumEdges()) {
		t.Error("complete graph should select the dense path")
	}
	tree := randSparse(200, 2, 5)
	if closureDense(tree.NumNodes(), tree.NumEdges()) {
		t.Error("tree should select the sparse path")
	}
	matricesEqual(t, complete.Closure(), refClosure(complete), 1e-9)
	matricesEqual(t, tree.Closure(), refClosure(tree), 1e-9)
}

// TestShortestFromMatchesClosure ties the single-source entry point to the
// all-pairs oracle, exercising the 4-ary heap's decrease-key path on
// graphs with many parallel edges and duplicate lengths.
func TestShortestFromMatchesClosure(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randSparse(50, 5, seed)
		// Parallel edges: re-add some with different lengths.
		rng := rand.New(rand.NewSource(seed + 77))
		for i := 0; i < 30; i++ {
			u, v := rng.Intn(50), rng.Intn(50)
			if u != v {
				if err := g.AddEdge(u, v, 1+rng.Float64()*50); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := refClosure(g)
		for src := 0; src < g.NumNodes(); src += 7 {
			dist := g.ShortestFrom(src)
			for v, dv := range dist {
				// Single-direction Dijkstra may differ from the
				// symmetrized matrix only by float rounding.
				if math.Abs(dv-want.At(src, v)) > 1e-9 {
					t.Fatalf("seed %d: dist(%d,%d) = %v, want %v", seed, src, v, dv, want.At(src, v))
				}
			}
		}
	}
}
