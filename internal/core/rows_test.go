package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/quorumnet/quorumnet/internal/quorum"
)

// denseStrategy is the dense [client][quorum] strategy that access rows
// replaced, kept as the reference the rows must reproduce bit for bit:
// its loops visit every quorum in index order and skip p ≤ 0, and its
// dedup path charges the sorted distinct nodes of each quorum.
type denseStrategy struct{ probs [][]float64 }

func (denseStrategy) Name() string { return "dense" }

func (s denseStrategy) ClientNodeLoads(e *Eval, k int, loads []float64) {
	for i, p := range s.probs[k] {
		if p <= 0 {
			continue
		}
		elems := e.Sys.Quorum(i)
		switch e.Mode {
		case LoadDedup:
			for _, w := range sortedQuorumNodes(e.F, elems) {
				loads[w] += p
			}
		default:
			for _, u := range elems {
				loads[e.F.Node(u)] += p
			}
		}
	}
}

func (s denseStrategy) ExpectedMax(e *Eval, k int, elemCost []float64) float64 {
	sum := 0.0
	for i, p := range s.probs[k] {
		if p <= 0 {
			continue
		}
		maxC := math.Inf(-1)
		for _, u := range e.Sys.Quorum(i) {
			if elemCost[u] > maxC {
				maxC = elemCost[u]
			}
		}
		sum += p * maxC
	}
	return sum
}

// sortedQuorumNodes is the distinct nodes f(Q) in ascending order, built
// with a map as the dense path built them.
func sortedQuorumNodes(f Placement, elems []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, u := range elems {
		if w := f.Node(u); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// denseNormalize is the dense LP's normalization: clamp negatives to 0,
// sum every entry in index order, divide by a positive sum.
func denseNormalize(x []float64) []float64 {
	out := make([]float64, len(x))
	sum := 0.0
	for i, p := range x {
		if p < 0 {
			p = 0
		}
		out[i] = p
		sum += p
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// seededDense draws n rows over m quorums: about half the entries are 0
// (some of them −0), a few negative, the rest random, normalized the
// dense way.
func seededDense(rng *rand.Rand, n, m int) [][]float64 {
	rows := make([][]float64, n)
	for k := range rows {
		x := make([]float64, m)
		for i := range x {
			switch r := rng.Float64(); {
			case r < 0.45:
			case r < 0.5:
				x[i] = math.Copysign(0, -1)
			case r < 0.55:
				x[i] = -1e-12 * rng.Float64()
			default:
				x[i] = rng.Float64() * math.Pow(10, float64(-rng.Intn(12)))
			}
		}
		x[rng.Intn(m)] = rng.Float64() + 1e-3 // one positive entry at least
		rows[k] = denseNormalize(x)
	}
	return rows
}

// TestNormalizeRowMatchesDense: entries handed over in any order come
// back as the dense normalization's positive entries, bit for bit.
func TestNormalizeRowMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		x := seededDense(rng, 1, m)[0]
		for i := range x { // un-normalize so the sum is not near 1
			x[i] *= 1 + 9*rng.Float64()
			if rng.Intn(8) == 0 {
				x[i] = -x[i]
			}
		}
		want := denseNormalize(x)
		var row []Access
		for _, i := range rng.Perm(m) {
			row = append(row, Access{Q: i, P: x[i]})
		}
		row, _ = NormalizeRow(row)
		at := 0
		for i, p := range want {
			if !(p > 0) {
				continue
			}
			if at >= len(row) || row[at].Q != i || math.Float64bits(row[at].P) != math.Float64bits(p) {
				t.Fatalf("trial %d: row %v, dense %v", trial, row, want)
			}
			at++
		}
		if at != len(row) {
			t.Fatalf("trial %d: row %v has entries the dense row lacks (%v)", trial, row, want)
		}
	}
}

// TestRowsMatchDenseBits: on seeded rows with zeros, weighted and
// duplicated clients, and placements where one node hosts several
// elements of one quorum, the row strategy's loads and response times
// have the dense reference's bits in both load modes. The balanced
// strategy's loads, built once per NodeLoads, match a per-client refill.
func TestRowsMatchDenseBits(t *testing.T) {
	grid3 := mustGrid(t, 3)
	grid4 := mustGrid(t, 4)
	th := mustThreshold(t, 3, 5)
	for _, c := range []struct {
		name   string
		sys    quorum.System
		target []int
	}{
		{"grid3 identity", grid3, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		// Row 0 (elements 0, 1, 2) and element 3 on node 4: quorum
		// (row 0, column 0) puts four elements on one node.
		{"grid3 four on one", grid3, []int{4, 4, 4, 4, 1, 2, 3, 5, 4}},
		{"grid4 many-to-one", grid4, []int{0, 0, 0, 1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 0, 8, 2}},
		{"3-of-5 three on one", th, []int{2, 2, 2, 6, 7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.target))))
			topo := testTopo(t, 10, 41)
			f, err := NewPlacement(c.target, topo)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEval(topo, c.sys, f, 37)
			if err != nil {
				t.Fatal(err)
			}
			clients := []int{0, 3, 3, 9, 4, 7, 1, 4}
			if err := e.SetClients(clients); err != nil {
				t.Fatal(err)
			}
			w := make([]float64, len(clients))
			for k := range w {
				w[k] = 0.2 + rng.Float64()*3
			}
			if err := e.SetClientWeights(w); err != nil {
				t.Fatal(err)
			}
			dense := denseStrategy{seededDense(rng, len(clients), c.sys.NumQuorums())}
			rows := make([][]Access, len(clients))
			for k, probs := range dense.probs {
				for i, p := range probs {
					if p > 0 {
						rows[k] = append(rows[k], Access{Q: i, P: p})
					}
				}
			}
			rows[5] = rows[2] // a shared row
			dense.probs[5] = dense.probs[2]
			exp := &ExplicitStrategy{Rows: rows}
			if err := exp.Validate(e); err != nil {
				t.Fatal(err)
			}

			for _, mode := range []LoadMode{LoadMultiplicity, LoadDedup} {
				e.Mode = mode
				sameBits(t, mode.String()+" NodeLoads", e.NodeLoads(exp), e.NodeLoads(dense))
				sameBits(t, mode.String()+" AvgResponseTime", []float64{e.AvgResponseTime(exp)}, []float64{e.AvgResponseTime(dense)})
				sameBits(t, mode.String()+" AvgNetworkDelay", []float64{e.AvgNetworkDelay(exp)}, []float64{e.AvgNetworkDelay(dense)})
				for k := range clients {
					sameBits(t, mode.String()+" ClientResponseTime", []float64{e.ClientResponseTime(exp, k)}, []float64{e.ClientResponseTime(dense, k)})
				}

				want := make([]float64, topo.Size())
				client := make([]float64, topo.Size())
				for k := range e.Clients {
					clear(client)
					BalancedStrategy{}.ClientNodeLoads(e, k, client)
					for w, l := range client {
						want[w] += e.ClientWeight(k) * l
					}
				}
				sameBits(t, mode.String()+" balanced NodeLoads", e.NodeLoads(BalancedStrategy{}), want)
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d]: rows %v (%#x), dense %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestQuorumHostsFollowElementOrder: each quorum's host list names its
// nodes in the order of their first element in the quorum, with the count
// of elements each hosts, so the LP builders' sums over the list run in
// one order on every build. The memo serves both load modes, and
// Prewarm fills it.
func TestQuorumHostsFollowElementOrder(t *testing.T) {
	topo := testTopo(t, 6, 31)
	sys := mustGrid(t, 3)
	// Nine elements on five nodes, first seen out of id order.
	f, err := NewPlacement([]int{4, 1, 4, 0, 1, 3, 2, 0, 4}, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Prewarm()
	if e.hosts == nil {
		t.Fatal("Prewarm left the quorum hosts unbuilt")
	}
	got := e.QuorumHosts()
	for i := 0; i < sys.NumQuorums(); i++ {
		var want []QuorumHost
		for _, u := range sys.Quorum(i) {
			w := f.Node(u)
			at := -1
			for t, h := range want {
				if h.Node == w {
					at = t
				}
			}
			if at < 0 {
				want = append(want, QuorumHost{Node: w, Elems: 1})
			} else {
				want[at].Elems++
			}
		}
		if len(got[i]) != len(want) {
			t.Fatalf("quorum %d: hosts %v, want %v", i, got[i], want)
		}
		for t2 := range want {
			if got[i][t2] != want[t2] {
				t.Errorf("quorum %d: hosts %v, want %v", i, got[i], want)
			}
			if l := want[t2].Load(LoadMultiplicity); l != float64(want[t2].Elems) {
				t.Errorf("multiplicity load %v for %d elements", l, want[t2].Elems)
			}
			if l := want[t2].Load(LoadDedup); l != 1 {
				t.Errorf("dedup load %v, want 1", l)
			}
		}
	}
	e.Mode = LoadDedup
	if again := e.QuorumHosts(); &again[0][0] != &got[0][0] {
		t.Error("flipping the load mode rebuilt the quorum hosts")
	}
	g, err := NewPlacement([]int{0, 1, 2, 3, 4, 5, 0, 1, 2}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if other := e.WithPlacement(g); other.hosts != nil {
		t.Error("WithPlacement kept the old placement's quorum hosts")
	}
}
