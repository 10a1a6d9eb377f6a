// Package quorum implements the quorum systems evaluated in the paper: the
// three Majority (threshold) families — (t+1, 2t+1), (2t+1, 3t+1) and
// (4t+1, 5t+1) — the k×k Grid, and the degenerate Singleton.
//
// A quorum system over a universe U = {0, …, n−1} of logical elements is a
// set of subsets (quorums) of U such that any two quorums intersect.
// Threshold systems have astronomically many quorums (C(n, q)), so the
// System interface exposes closed-form operations — closest quorum,
// uniform-strategy element load, expected max cost under the uniform
// (balanced) strategy — that do not require enumeration, alongside
// enumeration for the families where it is tractable (Grid, small
// thresholds), which the access-strategy LP requires.
package quorum

import "sort"

// System is a quorum system over universe {0..UniverseSize()-1}.
type System interface {
	// Name identifies the system, e.g. "majority(3,5)" or "grid(3x3)".
	Name() string
	// UniverseSize returns n, the number of logical elements.
	UniverseSize() int
	// QuorumSize returns the (uniform) quorum cardinality. All systems in
	// this package have uniform quorum sizes.
	QuorumSize() int
	// Enumerable reports whether the quorums can be listed explicitly
	// (required by the access-strategy LP).
	Enumerable() bool
	// NumQuorums returns the number of quorums m. For non-enumerable
	// systems it returns 0; use the closed-form methods instead.
	NumQuorums() int
	// Quorum returns the elements of quorum i, for 0 <= i < NumQuorums().
	// The returned slice is fresh and sorted ascending.
	Quorum(i int) []int
	// ClosestQuorum returns the elements of the quorum minimizing the
	// maximum of cost[u] over its elements u, as a fresh slice. cost must
	// have length UniverseSize(). Ties break deterministically.
	ClosestQuorum(cost []float64) []int
	// UniformElementLoad returns load(u) under the uniform (balanced)
	// access strategy: the probability that element u belongs to a
	// uniformly sampled quorum. All systems here are element-symmetric, so
	// the value is independent of u.
	UniformElementLoad() float64
	// ExpectedMaxUniform returns E[max_{u in Q} cost[u]] for Q sampled
	// uniformly from the quorums. Exact (no sampling), even for
	// non-enumerable threshold systems.
	ExpectedMaxUniform(cost []float64) float64
	// OptimalLoad returns Lopt, the best achievable system load (Naor &
	// Wool), used as the lower end of the capacity sweeps in §7.
	OptimalLoad() float64
	// UniformTouchProbability returns the probability that a uniformly
	// sampled quorum contains at least one element of elems. It powers
	// the deduplicated load model (§8 future work), where a node hosting
	// several universe elements processes a request once.
	UniformTouchProbability(elems []int) float64
}

// maxEnumerable bounds the number of quorums we are willing to enumerate.
// The paper's LP experiments use Grid (m = k² ≤ 169); thresholds with
// C(n, q) at most this bound also qualify.
const maxEnumerable = 200000

func sortedIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// binomial returns C(n, k) saturating at maxEnumerable+1 to avoid overflow;
// callers only need to know whether the count is within the enumeration
// budget.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1
	for i := 1; i <= k; i++ {
		// result * (n-k+i) cannot overflow before the saturation check
		// because result <= maxEnumerable+1 and n is small (< 1000).
		result = result * (n - k + i) / i
		if result > maxEnumerable {
			return maxEnumerable + 1
		}
	}
	return result
}

// smallestK returns the indices of the k smallest values (ties broken by
// index) in ascending order.
func smallestK(cost []float64, k int) []int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if cost[idx[a]] != cost[idx[b]] {
			return cost[idx[a]] < cost[idx[b]]
		}
		return idx[a] < idx[b]
	})
	sel := idx[:k]
	out := make([]int, k)
	copy(out, sel)
	sort.Ints(out)
	return out
}
