package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The small slack keeps p*n/100 that is a whole number, but not in
	// floating point, from rounding up a rank.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles a report may quote, ascending;
// one sample in oneIn lies beyond each.
var tailLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// highestPercentile returns the highest percentile of tailLadder that
// still has at least ten of the n samples beyond it — the only tail a
// sample of that size supports. ok is false when even the median does
// not (n < 20).
func highestPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n >= 10*q.oneIn {
			p, ok = q.p, true
		}
	}
	return p, ok
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; 0 for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance driver
// computes run-to-run spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of v as a share of its median: the
// run-to-run noise figure a metric's bound is compared with. 0 for
// fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
