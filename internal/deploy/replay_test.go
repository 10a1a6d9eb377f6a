package deploy_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/par/partest"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// replayRow is everything of one published entry that replay must
// reproduce exactly.
type replayRow struct {
	Version                     uint64
	Decision                    string
	Applied                     int
	Response, NetDelay, MaxLoad float64
	Targets                     []int
}

func replayRows(m *deploy.Manager) []replayRow {
	var rows []replayRow
	for _, e := range m.History() {
		s := e.Snapshot
		rows = append(rows, replayRow{s.Version, e.Decision, e.Applied, s.Response, s.NetDelay, s.MaxLoad, s.Placement.Targets()})
	}
	return rows
}

// randomBatch draws one mixed batch: RTT probes, per-site capacities,
// demand, demand weights, or several of them at once.
func randomBatch(rng *rand.Rand, topo *topology.Topology) []deploy.Delta {
	site := func() string { return topo.Site(rng.Intn(topo.Size())).Name }
	var ds []deploy.Delta
	add := func(kind int) {
		switch kind {
		case 0:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				a, b := rng.Intn(topo.Size()), rng.Intn(topo.Size())
				if a == b {
					continue
				}
				ds = append(ds, deploy.Delta{Kind: deploy.KindRTT, A: topo.Site(a).Name, B: topo.Site(b).Name,
					Value: topo.RTT(a, b) * (0.6 + 1.2*rng.Float64())})
			}
		case 1:
			ds = append(ds, deploy.Delta{Kind: deploy.KindCapacity, Site: site(), Value: 0.5 + 1.5*rng.Float64()})
		case 2:
			ds = append(ds, deploy.Delta{Kind: deploy.KindDemand, Value: 2000 + 14000*rng.Float64()})
		case 3:
			w := map[string]float64{}
			for n := rng.Intn(6); n > 0; n-- { // n == 0: back to uniform demand
				w[site()] = 0.5 + 3.5*rng.Float64()
			}
			ds = append(ds, deploy.Delta{Kind: deploy.KindWeights, Weights: w})
		}
	}
	if kind := rng.Intn(5); kind < 4 {
		add(kind)
	} else {
		for _, k := range rng.Perm(4)[:2+rng.Intn(3)] {
			add(k)
		}
	}
	return ds
}

// TestRecoverReproducesRandomHistoryDefaultProfile is the property that
// lets a journaled quorumd plan like an unjournaled one: under the
// default solver profile — partial pricing, warm re-solves carried from
// batch to batch — a long random batch sequence with hysteresis in
// force, a starved (ErrReplan) stretch and its recovery replays on a
// fresh planner, at a different GOMAXPROCS, to the same history in
// every compared field and to the same served bytes, both at the end of
// the journal and at a crash point inside it.
func TestRecoverReproducesRandomHistoryDefaultProfile(t *testing.T) {
	const batches = 200
	dcfg := deploy.Config{MoveCost: 5, HistoryLimit: 2 * batches}
	planner := func() *plan.Planner {
		p, err := plan.New(topology.PlanetLab50(topology.DefaultSeed), plan.Config{
			System:   plan.SystemSpec{Family: "grid", Param: 4},
			Strategy: plan.StratLP,
			Demand:   8000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	body := func(m *deploy.Manager) []byte {
		tn, err := serve.NewRegistry(serve.Options{}).Open(serve.DefaultTenant, m)
		if err != nil {
			t.Fatal(err)
		}
		return tn.Encoded().Body
	}

	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "live.journal")
			partest.SetGOMAXPROCS(t, 1)
			live, _, err := deploy.Recover(planner(), dcfg, path)
			if err != nil {
				t.Fatal(err)
			}
			topo := live.Current().Snapshot.Topology
			starveAt := 1 + rng.Intn(batches-2)

			// rowsAfter[k] and bodyAfter[k] are the live history length and
			// served body once k batches are in force.
			rowsAfter, bodyAfter := []int{1}, [][]byte{body(live)}
			for k := 1; k <= batches; k++ {
				ds := randomBatch(rng, topo)
				switch k {
				case starveAt:
					ds = []deploy.Delta{{Kind: deploy.KindUniformCapacity, Value: 1e-9}}
				case starveAt + 1:
					ds = []deploy.Delta{{Kind: deploy.KindUniformCapacity, Value: 1}}
				}
				_, err := live.Apply(ds)
				if err != nil && !errors.Is(err, deploy.ErrReplan) {
					t.Fatalf("batch %d: %v", k, err)
				}
				if k == starveAt && err == nil || k == starveAt+1 && err != nil {
					t.Fatalf("batch %d (starvation at %d): err %v", k, starveAt, err)
				}
				rowsAfter = append(rowsAfter, len(live.History()))
				bodyAfter = append(bodyAfter, body(live))
			}
			want := replayRows(live)

			records, torn, err := journal.ReadAll(path)
			if err != nil || torn || len(records) != 1+batches {
				t.Fatalf("journal: %d records torn=%v err=%v, want header + %d", len(records), torn, err, batches)
			}
			for _, cut := range []int{1 + rng.Intn(batches-1), batches} {
				crashed := filepath.Join(t.TempDir(), "crashed.journal")
				var prefix bytes.Buffer
				for _, rec := range records[:1+cut] {
					prefix.Write(rec)
					prefix.WriteByte('\n')
				}
				if err := os.WriteFile(crashed, prefix.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				partest.SetGOMAXPROCS(t, 3)
				m, replayed, err := deploy.Recover(planner(), dcfg, crashed)
				if err != nil {
					t.Fatalf("recover after %d batches: %v", cut, err)
				}
				if replayed != cut {
					t.Fatalf("replayed %d batches, want %d", replayed, cut)
				}
				got := replayRows(m)
				if len(got) != rowsAfter[cut] {
					t.Fatalf("after %d batches: %d history entries, live had %d", cut, len(got), rowsAfter[cut])
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("after %d batches: history[%d] = %+v, live %+v", cut, i, got[i], want[i])
					}
				}
				if !bytes.Equal(body(m), bodyAfter[cut]) {
					t.Fatalf("after %d batches: recovered plan body differs from the live one", cut)
				}
			}
		})
	}
}
