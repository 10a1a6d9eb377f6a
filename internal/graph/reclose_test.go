package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// recloseChain drives one raw matrix through a chain of random edit
// batches, re-closing incrementally after each, and checks Reclose's whole
// contract every time: the result is within 1e-9 relative of a fresh
// MetricClosure of raw (so error does not build up along the chain),
// exactly symmetric with a zero diagonal, the changed set is exactly the
// rows with a bit-different entry, the previous matrix is untouched, and
// an unchanged metric is the previous matrix itself. It returns how many
// batches went the incremental way, stayed unchanged, and fell back.
func recloseChain(t *testing.T, raw *Matrix, rng *rand.Rand, batches int, draw func(u, v int, cur float64) float64) (incremental, unchanged, full int) {
	t.Helper()
	n := raw.Size()
	closed := raw.Clone()
	closed.MetricClosure()
	type pair struct{ u, v int }
	before := map[pair]float64{} // a pair's value before its latest edit
	for b := 0; b < batches; b++ {
		// One to three edits; every third batch keeps them on one node.
		var edits []Edit
		hub := rng.Intn(n)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if b%3 == 0 {
				u = hub
			}
			if u == v || slices.ContainsFunc(edits, func(e Edit) bool {
				return (e.U == u && e.V == v) || (e.U == v && e.V == u)
			}) {
				continue
			}
			old := raw.At(u, v)
			val := draw(u, v, old)
			if prev, ok := before[pair{min(u, v), max(u, v)}]; ok && rng.Intn(4) == 0 {
				val = prev // restore
			}
			before[pair{min(u, v), max(u, v)}] = old
			raw.Set(u, v, val)
			edits = append(edits, Edit{U: u, V: v, Old: old, New: val})
		}

		kept := closed.Clone()
		next, changed, inc := closed.Reclose(raw, edits)
		for i := 0; i < n; i++ {
			if !slices.Equal(kept.rows[i], closed.rows[i]) {
				t.Fatalf("batch %d %+v: Reclose wrote into row %d of its input", b, edits, i)
			}
		}
		want := raw.Clone()
		want.MetricClosure()
		for i := 0; i < n; i++ {
			if next.At(i, i) != 0 {
				t.Fatalf("batch %d: d(%d,%d) = %v", b, i, i, next.At(i, i))
			}
			for j := 0; j < n; j++ {
				got, ref := next.At(i, j), want.At(i, j)
				if got != next.At(j, i) {
					t.Fatalf("batch %d %+v: d(%d,%d) = %v but d(%d,%d) = %v", b, edits, i, j, got, j, i, next.At(j, i))
				}
				if math.Abs(got-ref) > 1e-9*ref {
					t.Fatalf("batch %d %+v: d(%d,%d) = %v, MetricClosure gives %v", b, edits, i, j, got, ref)
				}
			}
		}
		if diff := closed.ChangedRows(next); !slices.Equal(diff, changed) {
			t.Fatalf("batch %d %+v: changed set %v, rows that differ %v", b, edits, changed, diff)
		}
		if len(changed) == 0 && next != closed {
			t.Fatalf("batch %d %+v: nothing changed but Reclose returned a new matrix", b, edits)
		}
		switch {
		case !inc:
			full++
		case len(changed) == 0:
			unchanged++
		default:
			incremental++
		}
		closed = next
	}
	return incremental, unchanged, full
}

// TestRecloseMatchesMetricClosure is Reclose's property test, next to
// TestSparseClosureMatchesMetricClosure: long chains of raises, lowerings,
// no-ops and restores on dense random matrices, on matrices that start
// closed (the planner's case: raw is a loaded metric), and on small-integer
// matrices where most shortest paths tie exactly.
func TestRecloseMatchesMetricClosure(t *testing.T) {
	scale := func(rng *rand.Rand) func(u, v int, cur float64) float64 {
		return func(_, _ int, cur float64) float64 {
			switch rng.Intn(5) {
			case 0:
				return cur // no-op
			case 1, 2:
				return cur * (1.2 + 2*rng.Float64()) // raise
			default:
				return cur * (0.1 + 0.8*rng.Float64()) // lower
			}
		}
	}
	cases := []struct {
		name string
		raw  func(rng *rand.Rand) *Matrix
		draw func(rng *rand.Rand) func(u, v int, cur float64) float64
	}{
		{"dense", func(rng *rand.Rand) *Matrix {
			m := NewMatrix(36)
			for i := 0; i < 36; i++ {
				for j := i + 1; j < 36; j++ {
					m.Set(i, j, 1+99*rng.Float64())
				}
			}
			return m
		}, scale},
		{"closed", func(rng *rand.Rand) *Matrix {
			return refClosure(randSparse(48, 3, rng.Int63()))
		}, scale},
		{"ties", func(rng *rand.Rand) *Matrix {
			m := NewMatrix(30)
			for i := 0; i < 30; i++ {
				for j := i + 1; j < 30; j++ {
					m.Set(i, j, float64(1+rng.Intn(6)))
				}
			}
			return m
		}, func(rng *rand.Rand) func(u, v int, cur float64) float64 {
			return func(_, _ int, _ float64) float64 { return float64(1 + rng.Intn(6)) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			inc, same, full := recloseChain(t, tc.raw(rng), rng, 1200, tc.draw(rng))
			t.Logf("%d incremental, %d unchanged, %d full", inc, same, full)
			if inc == 0 || same == 0 {
				t.Errorf("chain never took the incremental (%d) or the unchanged (%d) path", inc, same)
			}
		})
	}
}

// TestRecloseDetour raises the one link everything rides: a hub one
// millisecond from every site, all other pairs far apart. Raising a hub
// link disconnects nothing but lengthens that site's path to everyone, so
// one source is recomputed and every row changes; raising most hub links
// at once exceeds the incremental budget and must fall back to the full
// closure with the same answer.
func TestRecloseDetour(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(3))
	raw := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			raw.Set(i, j, 100+rng.Float64())
		}
		if i > 0 {
			raw.Set(0, i, 1)
		}
	}
	closed := raw.Clone()
	closed.MetricClosure()

	raw.Set(0, 7, 50)
	next, changed, inc := closed.Reclose(raw, []Edit{{U: 0, V: 7, Old: 1, New: 50}})
	want := raw.Clone()
	want.MetricClosure()
	matricesEqual(t, next, want, 1e-9)
	if !inc || len(changed) != n {
		t.Fatalf("one raised hub link: incremental=%v, %d of %d rows changed", inc, len(changed), n)
	}

	var edits []Edit
	for v := 1; len(edits) <= n/recloseSourceShare; v++ {
		if v == 7 {
			continue
		}
		raw.Set(0, v, 60)
		edits = append(edits, Edit{U: 0, V: v, Old: 1, New: 60})
	}
	next2, _, inc := next.Reclose(raw, edits)
	want = raw.Clone()
	want.MetricClosure()
	matricesEqual(t, next2, want, 1e-9)
	if inc {
		t.Fatalf("%d raised hub links on %d sites stayed incremental", len(edits), n)
	}
}
