package quorum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The expected-max kernels must return exactly what the straightforward
// versions below return, bit for bit: every pinned table downstream sums
// their results.

// refThresholdExpectedMax is the order-statistics sum over a heap copy of
// the costs sorted in decreasing order with package sort.
func refThresholdExpectedMax(s Threshold, cost []float64) float64 {
	desc := make([]float64, len(cost))
	copy(desc, cost)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	n, q := s.n, s.q
	p := float64(q) / float64(n)
	expect := 0.0
	for i := 1; i <= n-q+1; i++ {
		expect += p * desc[i-1]
		p *= float64(n-i-q+1) / float64(n-i)
	}
	return expect
}

// refLineMaxima finds each element's row and column by division.
func refLineMaxima(k int, cost []float64) (rowMax, colMax []float64) {
	rowMax = make([]float64, k)
	colMax = make([]float64, k)
	for i := range rowMax {
		rowMax[i] = math.Inf(-1)
		colMax[i] = math.Inf(-1)
	}
	for u, cu := range cost {
		r, c := u/k, u%k
		if cu > rowMax[r] {
			rowMax[r] = cu
		}
		if cu > colMax[c] {
			colMax[c] = cu
		}
	}
	return rowMax, colMax
}

// refGridExpectedMax averages math.Max(rowMax[r], colMax[c]) over the k²
// quorums.
func refGridExpectedMax(s Grid, cost []float64) float64 {
	rowMax, colMax := refLineMaxima(s.k, cost)
	sum := 0.0
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			sum += math.Max(rowMax[r], colMax[c])
		}
	}
	return sum / float64(s.k*s.k)
}

// refGridClosestCost is the cost of the first quorum minimizing
// math.Max(rowMax[r], colMax[c]), and its index.
func refGridClosestCost(s Grid, cost []float64) (int, float64) {
	rowMax, colMax := refLineMaxima(s.k, cost)
	bestIdx, bestCost := 0, math.Inf(1)
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			if qc := math.Max(rowMax[r], colMax[c]); qc < bestCost {
				bestIdx, bestCost = r*s.k+c, qc
			}
		}
	}
	return bestIdx, bestCost
}

// kernelCosts draws a cost vector of one of several shapes: distinct
// values, heavy ties, zeros of both signs, +Inf entries, or one repeated
// value.
func kernelCosts(rng *rand.Rand, n, shape int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch shape {
		case 0:
			out[i] = rng.Float64() * 300
		case 1:
			out[i] = float64(rng.Intn(4)) * 12.5
		case 2:
			out[i] = []float64{0, math.Copysign(0, -1), 7, 0.25}[rng.Intn(4)]
		case 3:
			out[i] = rng.Float64() * 300
			if rng.Intn(5) == 0 {
				out[i] = math.Inf(1)
			}
		default:
			out[i] = 42.125
		}
	}
	return out
}

const kernelShapes = 5

func TestThresholdExpectedMaxMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// Both sides of maxStackUniverse (64).
	for _, n := range []int{3, 15, 49, 64, 65, 161} {
		for _, q := range []int{n/2 + 1, (3*n + 3) / 4, n} {
			s := mustThreshold(t, q, n)
			for shape := 0; shape < kernelShapes; shape++ {
				for trial := 0; trial < 20; trial++ {
					cost := kernelCosts(rng, n, shape)
					got, want := s.ExpectedMaxUniform(cost), refThresholdExpectedMax(s, cost)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s shape %d trial %d: ExpectedMaxUniform = %v (%#x), reference %v (%#x)",
							s.Name(), shape, trial, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestGridKernelsMatchMathMaxReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	// Both sides of maxStackDim (16).
	for _, k := range []int{2, 5, 12, 16, 17} {
		s := mustGrid(t, k)
		for shape := 0; shape < kernelShapes; shape++ {
			for trial := 0; trial < 20; trial++ {
				cost := kernelCosts(rng, k*k, shape)
				got, want := s.ExpectedMaxUniform(cost), refGridExpectedMax(s, cost)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s shape %d trial %d: ExpectedMaxUniform = %v (%#x), reference %v (%#x)",
						s.Name(), shape, trial, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				elems := s.ClosestQuorum(cost)
				wantIdx, wantC := refGridClosestCost(s, cost)
				if !equalInts(elems, s.Quorum(wantIdx)) {
					t.Fatalf("%s shape %d trial %d: ClosestQuorum = %v, reference quorum %d at %v",
						s.Name(), shape, trial, elems, wantIdx, wantC)
				}
			}
		}
	}
}

// TestExpectedMaxKernelsDoNotAllocate holds the kernels that score every
// (anchor, client) pair to zero allocations at the sizes the planner runs.
func TestExpectedMaxKernelsDoNotAllocate(t *testing.T) {
	for _, s := range []System{
		mustThreshold(t, 8, 15),
		mustThreshold(t, 25, 49),
		mustGrid(t, 5),
		mustGrid(t, 12),
	} {
		cost := benchCosts(s.UniverseSize())
		if a := testing.AllocsPerRun(100, func() { s.ExpectedMaxUniform(cost) }); a != 0 {
			t.Errorf("%s: ExpectedMaxUniform makes %v allocations per call, want 0", s.Name(), a)
		}
	}
}
