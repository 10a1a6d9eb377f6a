package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraph(t *testing.T) {
	g := New(5)
	if got := g.NumNodes(); got != 5 {
		t.Errorf("NumNodes() = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Errorf("NumEdges() = %d, want 0", got)
	}
}

func TestNewGraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    int
		length  float64
		wantErr bool
	}{
		{name: "valid", u: 0, v: 1, length: 2.5, wantErr: false},
		{name: "zero length valid", u: 1, v: 2, length: 0, wantErr: false},
		{name: "u out of range", u: -1, v: 1, length: 1, wantErr: true},
		{name: "v out of range", u: 0, v: 3, length: 1, wantErr: true},
		{name: "self loop", u: 1, v: 1, length: 1, wantErr: true},
		{name: "negative length", u: 0, v: 2, length: -1, wantErr: true},
		{name: "nan length", u: 0, v: 2, length: math.NaN(), wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.length)
			if (err != nil) != tc.wantErr {
				t.Errorf("AddEdge(%d,%d,%v) error = %v, wantErr %v", tc.u, tc.v, tc.length, err, tc.wantErr)
			}
		})
	}
}

func TestShortestFromLine(t *testing.T) {
	// 0 -1- 1 -2- 2 -3- 3
	g := New(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 3, 3)
	d := g.ShortestFrom(0)
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("d[%d] = %v, want %v", i, d[i], w)
		}
	}
}

func TestShortestFromPrefersCheaperPath(t *testing.T) {
	// Direct edge 0-2 costs 10; path through 1 costs 3.
	g := New(3)
	mustEdge(t, g, 0, 2, 10)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	d := g.ShortestFrom(0)
	if d[2] != 3 {
		t.Errorf("d[2] = %v, want 3", d[2])
	}
}

func TestShortestFromParallelEdges(t *testing.T) {
	g := New(2)
	mustEdge(t, g, 0, 1, 5)
	mustEdge(t, g, 0, 1, 2)
	d := g.ShortestFrom(0)
	if d[1] != 2 {
		t.Errorf("d[1] = %v, want 2 (min of parallel edges)", d[1])
	}
}

func TestShortestFromDisconnected(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	d := g.ShortestFrom(0)
	if !math.IsInf(d[2], 1) {
		t.Errorf("d[2] = %v, want +Inf", d[2])
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(1)), 20, 0.3)
	m := g.Closure()
	for i := 0; i < m.Size(); i++ {
		if m.At(i, i) != 0 {
			t.Errorf("At(%d,%d) = %v, want 0", i, i, m.At(i, i))
		}
		for j := 0; j < m.Size(); j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("asymmetric: At(%d,%d)=%v At(%d,%d)=%v", i, j, m.At(i, j), j, i, m.At(j, i))
			}
		}
	}
}

func TestAllPairsIsMetric(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(2)), 15, 0.4)
	m := g.Closure()
	if !m.IsMetric(1e-9) {
		t.Error("shortest-path matrix violates metric properties")
	}
}

func TestMetricClosureFixesViolations(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 1)
	m.Set(0, 2, 10) // violates triangle inequality
	m.MetricClosure()
	if got := m.At(0, 2); got != 2 {
		t.Errorf("At(0,2) after closure = %v, want 2", got)
	}
	if !m.IsMetric(1e-9) {
		t.Error("matrix not metric after closure")
	}
}

func TestMetricClosureSymmetrizes(t *testing.T) {
	m := NewMatrix(2)
	m.rows[0][1] = 5
	m.rows[1][0] = 3 // asymmetric input
	m.MetricClosure()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("closure did not symmetrize to min: got %v, %v", m.At(0, 1), m.At(1, 0))
	}
}

func TestMetricClosureProperty(t *testing.T) {
	// Property: closure of any random non-negative symmetric matrix is a
	// metric, and never increases any entry.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64()*100)
			}
		}
		before := m.Clone()
		m.MetricClosure()
		if !m.IsMetric(1e-9) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) > before.At(i, j)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMedianSimple(t *testing.T) {
	// Line metric 0-1-2 with unit edges: node 1 is the median.
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	m := g.Closure()
	node, avg := m.Median()
	if node != 1 {
		t.Errorf("Median() node = %d, want 1", node)
	}
	if want := 2.0 / 3.0; math.Abs(avg-want) > 1e-12 {
		t.Errorf("Median() avg = %v, want %v", avg, want)
	}
}

func TestMedianIsArgmin(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(3)), 25, 0.3)
	m := g.Closure()
	node, avg := m.Median()
	for w := 0; w < m.Size(); w++ {
		sum := 0.0
		for v := 0; v < m.Size(); v++ {
			sum += m.At(v, w)
		}
		if got := sum / float64(m.Size()); got < avg-1e-12 {
			t.Errorf("node %d has avg dist %v < median node %d's %v", w, got, node, avg)
		}
	}
}

func TestBallOrderingAndContents(t *testing.T) {
	m := NewMatrix(5)
	dists := []float64{0, 4, 1, 3, 2} // from node 0
	for j, d := range dists {
		if j != 0 {
			m.Set(0, j, d)
		}
	}
	ball := m.Ball(0, 3)
	want := []int{0, 2, 4}
	if len(ball) != len(want) {
		t.Fatalf("Ball size = %d, want %d", len(ball), len(want))
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Errorf("ball[%d] = %d, want %d", i, ball[i], want[i])
		}
	}
}

func TestBallIncludesCenterFirst(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(4)), 12, 0.5)
	m := g.Closure()
	for c := 0; c < m.Size(); c++ {
		ball := m.Ball(c, 5)
		if ball[0] != c {
			t.Errorf("Ball(%d, 5)[0] = %d, want center %d", c, ball[0], c)
		}
	}
}

func TestBallProperty(t *testing.T) {
	// Property: Ball(c, k) returns exactly the k closest nodes — every
	// excluded node is at least as far as every included node.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, 0.4)
		m := g.Closure()
		c := rng.Intn(n)
		k := 1 + rng.Intn(n)
		ball := m.Ball(c, k)
		in := make(map[int]bool, len(ball))
		maxIn := 0.0
		for _, v := range ball {
			in[v] = true
			if m.At(c, v) > maxIn {
				maxIn = m.At(c, v)
			}
		}
		for v := 0; v < n; v++ {
			if !in[v] && m.At(c, v) < maxIn {
				return false
			}
		}
		return len(ball) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRowIsCopy(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 7)
	row := m.Row(0)
	row[1] = 99
	if m.At(0, 1) != 7 {
		t.Error("mutating Row() result changed the matrix")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 7)
	c := m.Clone()
	c.Set(0, 1, 3)
	if m.At(0, 1) != 7 {
		t.Error("mutating clone changed the original")
	}
}

// mustEdge adds an edge or fails the test.
func mustEdge(t *testing.T, g *Graph, u, v int, l float64) {
	t.Helper()
	if err := g.AddEdge(u, v, l); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, l, err)
	}
}

// randomConnectedGraph builds a random graph that is guaranteed connected:
// a random spanning path plus extra edges with probability p.
func randomConnectedGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(perm[i-1], perm[i], 1+rng.Float64()*99); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(i, j, 1+rng.Float64()*99); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestDijkstraMatchesFloydWarshall cross-checks ShortestFrom (Dijkstra)
// from every source, and Closure, against an independent Floyd–Warshall
// over the same edges.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := randomConnectedGraph(rng, n, 0.3)

		fw := make([][]float64, n)
		for i := range fw {
			fw[i] = make([]float64, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = math.Inf(1)
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, e := range g.adj[u] {
				if e.length < fw[u][e.to] {
					fw[u][e.to] = e.length
					fw[e.to][u] = e.length
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d := fw[i][k] + fw[k][j]; d < fw[i][j] {
						fw[i][j] = d
					}
				}
			}
		}
		closure := g.Closure()
		for i := 0; i < n; i++ {
			row := g.ShortestFrom(i)
			for j := 0; j < n; j++ {
				if math.Abs(row[j]-fw[i][j]) > 1e-6 || math.Abs(closure.At(i, j)-fw[i][j]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatrixSizeAndAccessors(t *testing.T) {
	m := NewMatrix(3)
	if m.Size() != 3 {
		t.Errorf("Size = %d", m.Size())
	}
	m.Set(1, 2, 4.5)
	if m.At(2, 1) != 4.5 {
		t.Error("Set did not mirror")
	}
	rv := m.RowView(1)
	if rv[2] != 4.5 {
		t.Error("RowView wrong")
	}
}

func TestBallFullGraph(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(9)), 8, 0.5)
	m := g.Closure()
	ball := m.Ball(3, 8)
	if len(ball) != 8 {
		t.Fatalf("full ball size %d", len(ball))
	}
	seen := map[int]bool{}
	for _, v := range ball {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Error("ball has duplicates")
	}
}
