package graph

import (
	"math"
	"slices"
)

// Edit records one change to a raw (pre-closure) matrix: the symmetric
// entry (U, V) went from Old to New.
type Edit struct {
	U, V     int
	Old, New float64
}

// A re-closure stays incremental while its single-source recomputations
// and edits each number at most n/recloseSourceShare: one dense
// single-source run costs about two Floyd–Warshall row sweeps, so past
// that share the full closure is the cheaper way to the same matrix.
const recloseSourceShare = 4

// usedTol is the relative slack under which a raised edge counts as lying
// on a shortest path (the candidates it selects are recomputed from raw,
// so a generous value costs time, never accuracy). keepTol is the
// relative difference below which a recomputed distance is the old one in
// another summation order, and the old bits stay.
const (
	usedTol = 1e-9
	keepTol = 1e-12
)

// Reclose returns the metric closure of raw, given that m is the closure
// raw had before edits (at most one per pair) were applied to it, together
// with the sorted nodes that have a changed entry in their row. m is never
// written: the result is m itself when no entry moved and a copy
// otherwise, so matrices already handed out keep their values.
// incremental reports whether the edits were folded into m or the closure
// was recomputed in full (too many edits or affected sources for n).
//
// Lowered entries are applied first, in order: every pair improved by a
// lowered (u, v) has one end that reaches v faster through u and one that
// reaches u faster through v, so only those pairs are relaxed through the
// edge, and an entry is written only when it strictly decreases. Raised
// entries follow, together: a pair can grow only if a raised edge lay on
// one of its shortest paths, which puts one of its ends in the smaller of
// the edge's two such sets; those sources are recomputed from raw by
// dense Dijkstra, and a recomputed distance replaces the old one only
// when it differs by more than summation order can explain.
//
// The result is within 1e-9 relative of raw.Clone().MetricClosure(), not
// bit-equal to it (Floyd–Warshall is not idempotent in floating point
// either), and the error does not compound along a chain of calls: a
// lowering derives an entry from current ones with two additions, and
// every entry the raise path keeps has just been compared with a value
// computed from raw.
func (m *Matrix) Reclose(raw *Matrix, edits []Edit) (next *Matrix, changed []int, incremental bool) {
	n := m.n
	budget := n / recloseSourceShare
	if len(edits) > budget {
		return m.recloseFull(raw)
	}
	cur := m // m until the first write, then a private copy
	touched := make([]bool, n)
	write := func(i, j int, d float64) {
		cur.rows[i][j], cur.rows[j][i] = d, d
		touched[i], touched[j] = true, true
	}

	var viaU, viaV []int
	for _, e := range edits {
		u, v := e.U, e.V
		if e.New >= e.Old || e.New >= cur.rows[u][v] {
			continue
		}
		if cur == m {
			cur = m.Clone()
		}
		ru, rv := cur.rows[u], cur.rows[v]
		viaU, viaV = viaU[:0], viaV[:0]
		for i := 0; i < n; i++ {
			switch {
			case ru[i]+e.New < rv[i]:
				viaU = append(viaU, i)
			case rv[i]+e.New < ru[i]:
				viaV = append(viaV, i)
			}
		}
		// No written pair has both ends in one set, so ru over viaU and
		// rv over viaV are stable while the loop writes.
		for _, i := range viaU {
			head := ru[i] + e.New
			ri := cur.rows[i]
			for _, j := range viaV {
				if d := head + rv[j]; d < ri[j] {
					write(i, j, d)
				}
			}
		}
	}

	source := make([]bool, n)
	sources := 0
	for _, e := range edits {
		u, v := e.U, e.V
		if e.New <= e.Old || cur.rows[u][v] < e.Old*(1-usedTol) {
			continue
		}
		ru, rv := cur.rows[u], cur.rows[v]
		viaU, viaV = viaU[:0], viaV[:0]
		for i := 0; i < n; i++ {
			if ru[i]+e.Old <= rv[i]*(1+usedTol) {
				viaU = append(viaU, i)
			}
			if rv[i]+e.Old <= ru[i]*(1+usedTol) {
				viaV = append(viaV, i)
			}
		}
		side := viaU
		if len(viaV) < len(viaU) {
			side = viaV
		}
		for _, i := range side {
			if !source[i] {
				source[i] = true
				sources++
			}
		}
	}
	if sources > budget {
		return m.recloseFull(raw)
	}
	if sources > 0 {
		dist := make([]float64, n)
		done := make([]bool, n)
		for s := 0; s < n; s++ {
			if !source[s] {
				continue
			}
			raw.shortestFrom(s, dist, done)
			for j, d := range dist {
				if old := cur.rows[s][j]; math.Abs(d-old) > keepTol*old {
					if cur == m {
						cur = m.Clone()
					}
					write(s, j, d)
				}
			}
		}
	}

	// A later edit can write an entry back to its old bits.
	for i, t := range touched {
		if t && !slices.Equal(m.rows[i], cur.rows[i]) {
			changed = append(changed, i)
		}
	}
	if changed == nil {
		return m, nil, true
	}
	return cur, changed, true
}

// recloseFull is Reclose's fallback: Floyd–Warshall from raw, compared
// with m afterwards.
func (m *Matrix) recloseFull(raw *Matrix) (*Matrix, []int, bool) {
	full := raw.Clone()
	full.MetricClosure()
	changed := m.ChangedRows(full)
	if changed == nil {
		return m, nil, false
	}
	return full, changed, false
}

// ChangedRows returns, in increasing order, the nodes whose row in o
// differs from their row in m (nil when the matrices are equal). Both
// must have the same size.
func (m *Matrix) ChangedRows(o *Matrix) []int {
	var changed []int
	for i := range m.rows {
		if !slices.Equal(m.rows[i], o.rows[i]) {
			changed = append(changed, i)
		}
	}
	return changed
}

// shortestFrom fills dist with the shortest-path distances from src over
// the complete graph whose edge lengths are m's entries: Dijkstra with a
// linear scan for the next node, O(n²), which is what a dense matrix
// calls for. done is scratch of the same length.
func (m *Matrix) shortestFrom(src int, dist []float64, done []bool) {
	copy(dist, m.rows[src])
	for j := range done {
		done[j] = false
	}
	dist[src] = 0
	for k := src; k >= 0; {
		done[k] = true
		rk, dk := m.rows[k], dist[k]
		next, best := -1, Inf
		for j, d := range dist {
			if done[j] {
				continue
			}
			if nd := dk + rk[j]; nd < d {
				d = nd
				dist[j] = nd
			}
			if d < best {
				best, next = d, j
			}
		}
		k = next
	}
}
