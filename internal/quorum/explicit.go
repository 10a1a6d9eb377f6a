package quorum

import (
	"fmt"
	"math"
	"sort"
)

// Explicit is a quorum system given by an explicit list of quorums. It
// backs user-defined constructions and the survivor systems produced by
// Survive when a structured system (like Grid) loses elements.
type Explicit struct {
	name    string
	n       int
	quorums [][]int
}

var _ System = (*Explicit)(nil)

// NewExplicit builds a quorum system from explicit quorums over the
// universe {0..n-1}. Every quorum must be non-empty with in-range,
// distinct elements, and every pair of quorums must intersect.
func NewExplicit(name string, n int, quorums [][]int) (*Explicit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("quorum: universe size %d must be positive", n)
	}
	if len(quorums) == 0 {
		return nil, fmt.Errorf("quorum: explicit system %q has no quorums", name)
	}
	if len(quorums) > maxEnumerable {
		return nil, fmt.Errorf("quorum: explicit system %q has %d quorums (max %d)",
			name, len(quorums), maxEnumerable)
	}
	cleaned := make([][]int, len(quorums))
	for i, q := range quorums {
		if len(q) == 0 {
			return nil, fmt.Errorf("quorum: quorum %d is empty", i)
		}
		c := append([]int(nil), q...)
		sort.Ints(c)
		for j, u := range c {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("quorum: quorum %d element %d out of range [0,%d)", i, u, n)
			}
			if j > 0 && c[j-1] == u {
				return nil, fmt.Errorf("quorum: quorum %d repeats element %d", i, u)
			}
		}
		cleaned[i] = c
	}
	for a := range cleaned {
		for b := a + 1; b < len(cleaned); b++ {
			if !sortedIntersect(cleaned[a], cleaned[b]) {
				return nil, fmt.Errorf("quorum: quorums %d and %d do not intersect", a, b)
			}
		}
	}
	return &Explicit{name: name, n: n, quorums: cleaned}, nil
}

// Name implements System.
func (s *Explicit) Name() string { return s.name }

// UniverseSize implements System.
func (s *Explicit) UniverseSize() int { return s.n }

// QuorumSize implements System: the maximum quorum cardinality (explicit
// systems need not be uniform).
func (s *Explicit) QuorumSize() int {
	maxQ := 0
	for _, q := range s.quorums {
		if len(q) > maxQ {
			maxQ = len(q)
		}
	}
	return maxQ
}

// Enumerable implements System.
func (s *Explicit) Enumerable() bool { return true }

// NumQuorums implements System.
func (s *Explicit) NumQuorums() int { return len(s.quorums) }

// Quorum implements System.
func (s *Explicit) Quorum(i int) []int {
	return append([]int(nil), s.quorums[i]...)
}

// ClosestQuorum implements System by scanning all quorums.
func (s *Explicit) ClosestQuorum(cost []float64) []int {
	s.checkCost(cost)
	best, bestCost := 0, math.Inf(1)
	for i, q := range s.quorums {
		maxC := math.Inf(-1)
		for _, u := range q {
			if cost[u] > maxC {
				maxC = cost[u]
			}
		}
		if maxC < bestCost {
			best, bestCost = i, maxC
		}
	}
	return s.Quorum(best)
}

// UniformElementLoad implements System. Explicit systems need not be
// element-symmetric; this returns the maximum per-element membership
// frequency (the system load of the uniform strategy, which is what the
// capacity sweeps consume). Use ElementLoads for the full vector.
func (s *Explicit) UniformElementLoad() float64 {
	maxL := 0.0
	for _, l := range s.ElementLoads() {
		if l > maxL {
			maxL = l
		}
	}
	return maxL
}

// ElementLoads returns each element's membership frequency under the
// uniform strategy.
func (s *Explicit) ElementLoads() []float64 {
	loads := make([]float64, s.n)
	for _, q := range s.quorums {
		for _, u := range q {
			loads[u]++
		}
	}
	inv := 1 / float64(len(s.quorums))
	for u := range loads {
		loads[u] *= inv
	}
	return loads
}

// ExpectedMaxUniform implements System by enumeration.
func (s *Explicit) ExpectedMaxUniform(cost []float64) float64 {
	s.checkCost(cost)
	sum := 0.0
	for _, q := range s.quorums {
		maxC := math.Inf(-1)
		for _, u := range q {
			if cost[u] > maxC {
				maxC = cost[u]
			}
		}
		sum += maxC
	}
	return sum / float64(len(s.quorums))
}

// OptimalLoad implements System with the uniform strategy's load — an
// upper bound on Lopt, exact for symmetric systems.
func (s *Explicit) OptimalLoad() float64 { return s.UniformElementLoad() }

// UniformTouchProbability implements System by enumeration.
func (s *Explicit) UniformTouchProbability(elems []int) float64 {
	in := make(map[int]bool, len(elems))
	for _, u := range elems {
		in[u] = true
	}
	count := 0
	for _, q := range s.quorums {
		for _, u := range q {
			if in[u] {
				count++
				break
			}
		}
	}
	return float64(count) / float64(len(s.quorums))
}

func (s *Explicit) checkCost(cost []float64) {
	if len(cost) != s.n {
		panic(fmt.Sprintf("quorum: cost vector length %d, want %d", len(cost), s.n))
	}
}
