package deploy

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// rttMix is the socket bench's rtt delta mix: odd batches move a random
// site pair 20–40 % off its current RTT, even batches measure it back.
// It draws the same values from the same seed.
type rttMix struct {
	rng   *rand.Rand
	names []string
	rtt   [][]float64
	moved *[3]float64 // a, b and the baseline RTT of the pair moved last
}

func newRTTMix(seed int64, topo *topology.Topology) *rttMix {
	g := &rttMix{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < topo.Size(); i++ {
		g.names = append(g.names, topo.Site(i).Name)
		g.rtt = append(g.rtt, topo.Distances().Row(i))
	}
	return g
}

func (g *rttMix) next() []Delta {
	var a, b int
	var v float64
	if m := g.moved; m != nil {
		g.moved = nil
		a, b, v = int(m[0]), int(m[1]), m[2]
	} else {
		a = g.rng.Intn(len(g.names))
		if b = g.rng.Intn(len(g.names) - 1); b >= a {
			b++
		}
		factor := 1 + (0.2 + 0.2*g.rng.Float64())
		if g.rng.Intn(2) == 0 {
			factor = 2 - factor
		}
		v = g.rtt[a][b] * factor
		g.moved = &[3]float64{float64(a), float64(b), g.rtt[a][b]}
	}
	g.rtt[a][b], g.rtt[b][a] = v, v
	return []Delta{{Kind: KindRTT, A: g.names[a], B: g.names[b], Value: v}}
}

// BenchmarkHoldRegime times one batch of the regime in which every rtt
// batch holds the placement: quorumd's defaults (grid:5, lp, demand 8000,
// move cost 5 ms) on the 300-site AS topology that topogen writes, fed
// the socket bench's rtt mix from seed 50. The batches adopt until the
// first move (batch 116); every batch after it holds, with the
// candidate placement predicted 16.62 ms slower than the held one. A
// held batch plans the candidate and then the holdover, and each plan's
// placement targets differ from the plan before it, so each builds and
// solves its LP cold. The first hold (batch 117) re-solves its candidate
// warm, so timing starts after it. holds/op and cold-lp/op count both,
// deterministically.
func BenchmarkHoldRegime(b *testing.B) {
	gen, err := topology.Generate(topology.GenConfig{Name: "as-300", AS: &topology.ASGraphSpec{Sites: 300}}, topology.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := topology.Save(&file, gen); err != nil {
		b.Fatal(err)
	}
	topo, err := topology.Load(&file)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.New(topo, plan.Config{System: plan.SystemSpec{Family: "grid", Param: 5}, Strategy: plan.StratLP, Demand: 8000})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(p, Config{MoveCost: 5, HistoryLimit: 64})
	if err != nil {
		b.Fatal(err)
	}
	mix := newRTTMix(50, topo)
	apply := func() string {
		e, err := m.Apply(mix.next())
		if err != nil {
			b.Fatal(err)
		}
		return e.Decision
	}
	for batch := 0; !strings.HasPrefix(apply(), "move"); batch++ {
		if batch == 200 {
			b.Fatal("no move in 200 batches")
		}
	}
	if d := apply(); !strings.HasPrefix(d, "hold") {
		b.Fatalf("the batch after the move decided %q, want a hold", d)
	}

	holds, coldLP := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decision := apply()
		if m.LastPlan().LPMethod == "cold" {
			coldLP++ // the candidate's LP
		}
		if strings.HasPrefix(decision, "hold") {
			holds++
			if m.p.LastPlan().LPMethod == "cold" {
				coldLP++ // the holdover's LP
			}
		}
	}
	b.ReportMetric(float64(holds)/float64(b.N), "holds/op")
	b.ReportMetric(float64(coldLP)/float64(b.N), "cold-lp/op")
}
