// Package graph provides the weighted-graph substrate used to model
// wide-area networks: an undirected graph with non-negative edge lengths,
// all-pairs shortest paths, metric closure, graph medians, and distance
// balls.
//
// The paper models the network as an undirected graph G = (V, E) with a
// positive length on each edge, inducing a distance function d(v, w) equal
// to the length of the shortest path between v and w. Everything downstream
// (placement, strategies, response-time evaluation) consumes only that
// metric, which this package computes.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Inf is the distance reported between disconnected nodes.
var Inf = math.Inf(1)

// Graph is an undirected graph with non-negative edge lengths. The zero
// value is an empty graph; New sizes it and AddEdge adds edges.
// Parallel edges are permitted; shortest-path computations use the minimum
// length among them. Self-loops are ignored for distance purposes.
type Graph struct {
	n   int
	adj [][]halfEdge
}

type halfEdge struct {
	to     int
	length float64
}

// New returns a graph with n nodes, numbered 0..n-1, and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges added to the graph.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// AddEdge adds an undirected edge between u and v with the given length.
// It returns an error if either endpoint is out of range or the length is
// negative or NaN. Adding a self-loop is an error: self-distances are
// always zero.
func (g *Graph) AddEdge(u, v int, length float64) error {
	switch {
	case u < 0 || u >= g.n:
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, g.n)
	case v < 0 || v >= g.n:
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, g.n)
	case u == v:
		return errors.New("graph: self-loop edges are not allowed")
	case math.IsNaN(length) || length < 0:
		return fmt.Errorf("graph: invalid edge length %v", length)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, length: length})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, length: length})
	return nil
}

// ShortestFrom computes single-source shortest-path distances from src to
// every node using Dijkstra's algorithm over an index-addressed 4-ary heap
// (see sparse.go). Unreachable nodes get Inf.
func (g *Graph) ShortestFrom(src int) []float64 {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: source %d out of range [0,%d)", src, g.n))
	}
	dist := make([]float64, g.n)
	newDijkstra(nil, g.n).runGraph(g, src, dist)
	return dist
}

// Matrix is a symmetric distance matrix: the metric d(v, w) induced by a
// graph, or loaded directly from measurements.
type Matrix struct {
	n    int
	rows [][]float64
}

// NewMatrix returns an n×n matrix of zero distances.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("graph: negative matrix size")
	}
	rows := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range rows {
		rows[i], backing = backing[:n:n], backing[n:]
	}
	return &Matrix{n: n, rows: rows}
}

// Size returns the number of nodes the matrix covers.
func (m *Matrix) Size() int { return m.n }

// At returns d(u, v).
func (m *Matrix) At(u, v int) float64 { return m.rows[u][v] }

// Set assigns d(u, v) and d(v, u).
func (m *Matrix) Set(u, v int, d float64) {
	m.rows[u][v] = d
	m.rows[v][u] = d
}

// Row returns the distances from u to every node. The returned slice is a
// copy; mutating it does not affect the matrix.
func (m *Matrix) Row(u int) []float64 {
	out := make([]float64, m.n)
	copy(out, m.rows[u])
	return out
}

// RowView returns the internal row for u. Callers must not mutate it; use
// Row for a safe copy. It exists to avoid per-call allocation in the inner
// loops of evaluators.
func (m *Matrix) RowView(u int) []float64 { return m.rows[u] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		copy(out.rows[i], m.rows[i])
	}
	return out
}

// MetricClosure replaces the matrix with the shortest-path metric it
// induces: treating each finite entry as an edge, it runs Floyd–Warshall so
// that the result satisfies the triangle inequality. Diagonal entries are
// forced to zero and the matrix is symmetrized (using the min of the two
// directions) first, so slightly asymmetric measured data is accepted.
func (m *Matrix) MetricClosure() {
	n := m.n
	for i := 0; i < n; i++ {
		m.rows[i][i] = 0
		for j := i + 1; j < n; j++ {
			d := math.Min(m.rows[i][j], m.rows[j][i])
			m.rows[i][j] = d
			m.rows[j][i] = d
		}
	}
	for k := 0; k < n; k++ {
		rk := m.rows[k]
		for i := 0; i < n; i++ {
			ri := m.rows[i]
			dik := ri[k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + rk[j]; nd < ri[j] {
					ri[j] = nd
				}
			}
		}
	}
}

// IsMetric reports whether the matrix is symmetric with a zero diagonal and
// satisfies the triangle inequality to within tol.
func (m *Matrix) IsMetric(tol float64) bool {
	n := m.n
	for i := 0; i < n; i++ {
		if m.rows[i][i] != 0 {
			return false
		}
		for j := 0; j < n; j++ {
			if math.Abs(m.rows[i][j]-m.rows[j][i]) > tol {
				return false
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.rows[i][j] > m.rows[i][k]+m.rows[k][j]+tol {
					return false
				}
			}
		}
	}
	return true
}

// Median returns the node minimizing the sum of distances from every node
// to it (the 1-median of the metric), along with that average distance.
// Ties are broken toward the lower node index, so results are
// deterministic. The paper's singleton placement targets this node.
func (m *Matrix) Median() (node int, avgDist float64) {
	if m.n == 0 {
		panic("graph: median of empty matrix")
	}
	best, bestSum := 0, Inf
	for w := 0; w < m.n; w++ {
		sum := 0.0
		for v := 0; v < m.n; v++ {
			sum += m.rows[v][w]
		}
		if sum < bestSum {
			best, bestSum = w, sum
		}
	}
	return best, bestSum / float64(m.n)
}

// Ball returns the k nodes closest to center (including center itself),
// ordered by increasing distance with ties broken by node index. It panics
// if k exceeds the node count. This is the ball B(v0, k) used by the
// one-to-one Majority placement.
func (m *Matrix) Ball(center, k int) []int {
	if k < 0 || k > m.n {
		panic(fmt.Sprintf("graph: ball size %d out of range [0,%d]", k, m.n))
	}
	idx := make([]int, m.n)
	for i := range idx {
		idx[i] = i
	}
	row := m.rows[center]
	// Stable selection by (distance, index): a full sort keeps the code
	// simple at these sizes.
	sortByDist(idx, row)
	return idx[:k]
}

// sortByDist sorts idx by (dist[idx], idx) ascending.
func sortByDist(idx []int, dist []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if dist[idx[a]] != dist[idx[b]] {
			return dist[idx[a]] < dist[idx[b]]
		}
		return idx[a] < idx[b]
	})
}
