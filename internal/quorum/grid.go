package quorum

import (
	"fmt"
	"math"
)

// Grid is the k×k grid quorum system: the universe is arranged in a k×k
// grid (element u at row u/k, column u%k) and each quorum is the union of
// one full row and one full column (2k−1 elements). Any two quorums
// intersect because every row crosses every column. There are m = k²
// quorums, indexed by (row, column) pairs, which keeps the system
// enumerable for the access-strategy LP even at n = 169.
type Grid struct {
	k int
}

var _ System = Grid{}

// NewGrid returns the k×k grid system.
func NewGrid(k int) (Grid, error) {
	if k <= 0 {
		return Grid{}, fmt.Errorf("quorum: grid dimension %d must be positive", k)
	}
	return Grid{k: k}, nil
}

// Name implements System.
func (s Grid) Name() string { return fmt.Sprintf("grid(%dx%d)", s.k, s.k) }

// Dim returns k.
func (s Grid) Dim() int { return s.k }

// UniverseSize implements System.
func (s Grid) UniverseSize() int { return s.k * s.k }

// QuorumSize implements System.
func (s Grid) QuorumSize() int { return 2*s.k - 1 }

// Enumerable implements System.
func (s Grid) Enumerable() bool { return true }

// NumQuorums implements System.
func (s Grid) NumQuorums() int { return s.k * s.k }

// Quorum implements System. Quorum i corresponds to row i/k and column
// i%k; its elements are that row's cells plus that column's cells, sorted.
func (s Grid) Quorum(i int) []int {
	k := s.k
	if i < 0 || i >= k*k {
		panic(fmt.Sprintf("quorum: index %d out of range [0,%d)", i, k*k))
	}
	r, c := i/k, i%k
	out := make([]int, 0, 2*k-1)
	for row := 0; row < k; row++ {
		if row == r {
			// The whole row, including the (r, c) corner.
			for col := 0; col < k; col++ {
				out = append(out, row*k+col)
			}
		} else {
			out = append(out, row*k+c)
		}
	}
	return out
}

// ClosestQuorum implements System: evaluate all k² (row, column) pairs
// using precomputed per-row and per-column maxima.
func (s Grid) ClosestQuorum(cost []float64) []int {
	s.checkCost(cost)
	var buf [2 * maxStackDim]float64
	rowMax, colMax := s.lineMaxima(cost, buf[:])
	k := s.k
	bestIdx, bestCost := 0, math.Inf(1)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			qc := math.Max(rowMax[r], colMax[c])
			if qc < bestCost {
				bestCost = qc
				bestIdx = r*k + c
			}
		}
	}
	return s.Quorum(bestIdx)
}

// UniformElementLoad implements System. Element (a, b) is in quorum (r, c)
// iff r = a or c = b, so its probability under a uniform quorum is
// 1/k + 1/k − 1/k² = (2k−1)/k², identical for every element.
func (s Grid) UniformElementLoad() float64 {
	k := float64(s.k)
	return (2*k - 1) / (k * k)
}

// ExpectedMaxUniform implements System: averages max(rowMax[r], colMax[c])
// over all k² quorums. The max is a plain comparison: costs are never NaN
// (checkCost), and where it picks −0 over +0 the sum, which starts at +0,
// comes out the same.
func (s Grid) ExpectedMaxUniform(cost []float64) float64 {
	s.checkCost(cost)
	var buf [2 * maxStackDim]float64
	rowMax, colMax := s.lineMaxima(cost, buf[:])
	sum := 0.0
	for _, rm := range rowMax {
		for _, cm := range colMax {
			if cm > rm {
				sum += cm
			} else {
				sum += rm
			}
		}
	}
	return sum / float64(s.k*s.k)
}

// OptimalLoad implements System: the uniform strategy achieves
// (2k−1)/k², which is optimal for the grid (its quorum size is 2k−1 and
// load is at least QuorumSize/n for any strategy by Naor & Wool).
func (s Grid) OptimalLoad() float64 { return s.UniformElementLoad() }

// UniformTouchProbability implements System. Quorum (r, c) touches the
// element set iff r is one of the set's occupied rows or c one of its
// occupied columns: P = (|R|·k + |C|·k − |R|·|C|)/k².
func (s Grid) UniformTouchProbability(elems []int) float64 {
	k := s.k
	rows := make(map[int]bool, len(elems))
	cols := make(map[int]bool, len(elems))
	for _, u := range elems {
		if u < 0 || u >= k*k {
			continue
		}
		rows[u/k] = true
		cols[u%k] = true
	}
	nr, nc := float64(len(rows)), float64(len(cols))
	fk := float64(k)
	return (nr*fk + nc*fk - nr*nc) / (fk * fk)
}

// maxStackDim is the largest grid dimension whose row and column maxima
// fit the callers' stack buffers; larger grids put them on the heap.
const maxStackDim = 16

// lineMaxima returns the largest cost in each row and each column, walking
// cost row by row. It keeps them in buf when buf holds 2k values.
func (s Grid) lineMaxima(cost, buf []float64) (rowMax, colMax []float64) {
	k := s.k
	if len(buf) < 2*k {
		buf = make([]float64, 2*k)
	}
	rowMax, colMax = buf[:k], buf[k:2*k]
	for c := range colMax {
		colMax[c] = math.Inf(-1)
	}
	for r := range rowMax {
		m := math.Inf(-1)
		for c, cu := range cost[r*k : r*k+k] {
			if cu > m {
				m = cu
			}
			if cu > colMax[c] {
				colMax[c] = cu
			}
		}
		rowMax[r] = m
	}
	return rowMax, colMax
}

func (s Grid) checkCost(cost []float64) {
	if len(cost) != s.k*s.k {
		panic(fmt.Sprintf("quorum: cost vector length %d, want %d", len(cost), s.k*s.k))
	}
	for _, c := range cost {
		if math.IsNaN(c) {
			panic("quorum: NaN cost")
		}
	}
}

// Singleton is the one-element quorum system: a single quorum containing
// the single universe element. It models the "one server" baseline whose
// placement at the graph median is a 2-approximation to the best possible
// network delay of any quorum system (Lin).
type Singleton struct{}

var _ System = Singleton{}

// Name implements System.
func (Singleton) Name() string { return "singleton" }

// UniverseSize implements System.
func (Singleton) UniverseSize() int { return 1 }

// QuorumSize implements System.
func (Singleton) QuorumSize() int { return 1 }

// Enumerable implements System.
func (Singleton) Enumerable() bool { return true }

// NumQuorums implements System.
func (Singleton) NumQuorums() int { return 1 }

// Quorum implements System.
func (Singleton) Quorum(i int) []int {
	if i != 0 {
		panic(fmt.Sprintf("quorum: index %d out of range [0,1)", i))
	}
	return []int{0}
}

// ClosestQuorum implements System.
func (Singleton) ClosestQuorum(cost []float64) []int {
	if len(cost) != 1 {
		panic(fmt.Sprintf("quorum: cost vector length %d, want 1", len(cost)))
	}
	return []int{0}
}

// UniformElementLoad implements System.
func (Singleton) UniformElementLoad() float64 { return 1 }

// ExpectedMaxUniform implements System.
func (Singleton) ExpectedMaxUniform(cost []float64) float64 {
	if len(cost) != 1 {
		panic(fmt.Sprintf("quorum: cost vector length %d, want 1", len(cost)))
	}
	return cost[0]
}

// OptimalLoad implements System: the lone element absorbs all demand.
func (Singleton) OptimalLoad() float64 { return 1 }

// UniformTouchProbability implements System.
func (Singleton) UniformTouchProbability(elems []int) float64 {
	for _, u := range elems {
		if u == 0 {
			return 1
		}
	}
	return 0
}
