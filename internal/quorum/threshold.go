package quorum

import (
	"fmt"
	"math"
	"slices"
)

// Threshold is the threshold (a.k.a. Majority or voting) quorum system:
// every subset of size q of an n-element universe is a quorum. The paper's
// three Majority families are threshold systems:
//
//	(t+1, 2t+1)   — simple majority, tolerates t crash faults
//	(2t+1, 3t+1)  — Byzantine dissemination majority
//	(4t+1, 5t+1)  — the Q/U construction
//
// Threshold systems are element-symmetric, so balanced-strategy loads and
// expected max costs have closed forms (order statistics), used whenever
// C(n, q) is too large to enumerate.
type Threshold struct {
	n int
	q int
}

var _ System = Threshold{}

// NewThreshold returns the threshold system with quorum size q over n
// elements. It errors unless 0 < q <= n and 2q > n (the intersection
// property for set systems closed under size-q subsets).
func NewThreshold(q, n int) (Threshold, error) {
	switch {
	case n <= 0:
		return Threshold{}, fmt.Errorf("quorum: universe size %d must be positive", n)
	case q <= 0 || q > n:
		return Threshold{}, fmt.Errorf("quorum: quorum size %d out of range [1,%d]", q, n)
	case 2*q <= n:
		return Threshold{}, fmt.Errorf("quorum: size-%d subsets of %d elements do not all intersect", q, n)
	}
	return Threshold{n: n, q: q}, nil
}

// SimpleMajority returns the (t+1, 2t+1) system.
func SimpleMajority(t int) (Threshold, error) { return NewThreshold(t+1, 2*t+1) }

// ByzantineMajority returns the (2t+1, 3t+1) system.
func ByzantineMajority(t int) (Threshold, error) { return NewThreshold(2*t+1, 3*t+1) }

// QUMajority returns the (4t+1, 5t+1) system used by the Q/U protocol.
func QUMajority(t int) (Threshold, error) { return NewThreshold(4*t+1, 5*t+1) }

// Name implements System.
func (s Threshold) Name() string { return fmt.Sprintf("majority(%d,%d)", s.q, s.n) }

// UniverseSize implements System.
func (s Threshold) UniverseSize() int { return s.n }

// QuorumSize implements System.
func (s Threshold) QuorumSize() int { return s.q }

// Enumerable implements System.
func (s Threshold) Enumerable() bool { return binomial(s.n, s.q) <= maxEnumerable }

// NumQuorums implements System.
func (s Threshold) NumQuorums() int {
	if !s.Enumerable() {
		return 0
	}
	return binomial(s.n, s.q)
}

// Quorum implements System. Quorums are ordered lexicographically by their
// sorted element lists (the combinatorial number system).
func (s Threshold) Quorum(i int) []int {
	m := s.NumQuorums()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("quorum: index %d out of range [0,%d)", i, m))
	}
	out := make([]int, 0, s.q)
	rank := i
	elem := 0
	for r := s.q; r > 0; r-- {
		// Choose the smallest next element e such that the number of
		// combinations starting with e covers rank.
		for {
			c := binomial(s.n-elem-1, r-1)
			if rank < c {
				out = append(out, elem)
				elem++
				break
			}
			rank -= c
			elem++
		}
	}
	return out
}

// ClosestQuorum implements System: the q cheapest elements.
func (s Threshold) ClosestQuorum(cost []float64) []int {
	s.checkCost(cost)
	return smallestK(cost, s.q)
}

// UniformElementLoad implements System: by symmetry each element is in a
// q/n fraction of the quorums.
func (s Threshold) UniformElementLoad() float64 { return float64(s.q) / float64(s.n) }

// ExpectedMaxUniform implements System using order statistics. Sorting the
// costs in decreasing order c(1) >= … >= c(n), the max of a uniformly
// random q-subset equals c(i) with probability C(n−i, q−1)/C(n, q); the
// probabilities follow the stable recurrence
//
//	P(1)   = q/n
//	P(i+1) = P(i) · (n−i−q+1)/(n−i)
//
// which avoids forming the (astronomical) binomials. The costs are sorted
// ascending in a copy, on the stack up to maxStackUniverse elements, and
// read from the top.
func (s Threshold) ExpectedMaxUniform(cost []float64) float64 {
	s.checkCost(cost)
	var buf [maxStackUniverse]float64
	asc := buf[:0]
	if len(cost) > len(buf) {
		asc = make([]float64, 0, len(cost))
	}
	asc = append(asc, cost...)
	slices.Sort(asc)

	n, q := s.n, s.q
	p := float64(q) / float64(n)
	expect := 0.0
	for i := 1; i <= n-q+1; i++ {
		expect += p * asc[n-i]
		p *= float64(n-i-q+1) / float64(n-i)
	}
	return expect
}

// maxStackUniverse is the largest universe whose sorted cost copy
// ExpectedMaxUniform keeps on the stack; larger ones copy to the heap.
const maxStackUniverse = 64

// OptimalLoad implements System: Lopt = q/n, achieved by the uniform
// strategy (threshold systems are load-symmetric).
func (s Threshold) OptimalLoad() float64 { return float64(s.q) / float64(s.n) }

// UniformTouchProbability implements System. For a threshold system the
// probability depends only on k = |elems|:
//
//	P(Q ∩ elems ≠ ∅) = 1 − C(n−k, q)/C(n, q) = 1 − Π_{j<q} (n−k−j)/(n−j)
//
// computed with the stable product form.
func (s Threshold) UniformTouchProbability(elems []int) float64 {
	k := countDistinctValid(elems, s.n)
	if k == 0 {
		return 0
	}
	if k+s.q > s.n {
		return 1 // too few remaining elements to avoid the set
	}
	pAvoid := 1.0
	for j := 0; j < s.q; j++ {
		pAvoid *= float64(s.n-k-j) / float64(s.n-j)
	}
	return 1 - pAvoid
}

// countDistinctValid counts distinct element ids within [0, n).
func countDistinctValid(elems []int, n int) int {
	seen := make(map[int]bool, len(elems))
	for _, u := range elems {
		if u >= 0 && u < n {
			seen[u] = true
		}
	}
	return len(seen)
}

func (s Threshold) checkCost(cost []float64) {
	if len(cost) != s.n {
		panic(fmt.Sprintf("quorum: cost vector length %d, want %d", len(cost), s.n))
	}
	for _, c := range cost {
		if math.IsNaN(c) {
			panic("quorum: NaN cost")
		}
	}
}
