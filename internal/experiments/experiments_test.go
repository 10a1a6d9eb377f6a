package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"testing"

	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// quickCfg is the RunConfig `quorumbench -ablations -quick` builds from
// the flag defaults on the given solver profile (the ablations read
// only its seed and profile).
func quickCfg(reproducible bool) scenario.RunConfig {
	return scenario.RunConfig{Seed: topology.DefaultSeed, Reproducible: reproducible, QURuns: 5, QUDurationMS: 20000}.QuickScale()
}

// profiles runs f once per solver profile: the default fast path
// (warm-started, partially priced LP solves) that a plain `quorumbench
// -ablations` takes, and the reproducible one the pins cover.
func profiles(t *testing.T, f func(t *testing.T, cfg scenario.RunConfig)) {
	for _, p := range []struct {
		name  string
		repro bool
	}{{"fast", false}, {"reproducible", true}} {
		t.Run(p.name, func(t *testing.T) { f(t, quickCfg(p.repro)) })
	}
}

// TestAblationsRunQuick smoke-runs every quick ablation on the default
// fast profile, which the reproducible pins do not reach: each must
// produce a non-empty table whose rows fill its columns.
func TestAblationsRunQuick(t *testing.T) {
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := e.Run(quickCfg(false), true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("row %d: %d cells for %d columns", i, len(row), len(tb.Columns))
				}
			}
		})
	}
}

// TestAblationTablesPinned byte-checks the five quick-scale ablation
// tables: each hash is the sha256 of `quorumbench -fig <id> -quick
// -reproducible -format csv`.
func TestAblationTablesPinned(t *testing.T) {
	pinned := map[string]string{
		"abl-dedup":     "6b0081922753f9df0df601e7cacbe2f21dfbd7a1aa9b5a064fec8ff4e5372f56",
		"abl-anchor":    "5768273990c3cffe2f479ac36abfb70f1d947100f1289b004547524b76fc416f",
		"abl-failures":  "bf48f8bf19ea61bad948c7b52eba68edbac8432093a17022e9126ad1f691c26d",
		"abl-sweep":     "62e84d962d5e616f27d90128c2f389472b49e5882d819f69e76032a141b7ff9e",
		"abl-baselines": "8a7bb56194960c9022461016400c97682dde1bc0584dc74b9463454ab59fb4aa",
	}
	abls := Ablations()
	if len(abls) != len(pinned) {
		t.Errorf("%d ablations, %d pinned tables", len(abls), len(pinned))
	}
	for _, e := range abls {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			want, ok := pinned[e.ID]
			if !ok {
				t.Fatalf("ablation %q has no pinned table hash", e.ID)
			}
			tb, err := e.Run(quickCfg(true), true)
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != e.ID {
				t.Errorf("table id %q, want %q", tb.ID, e.ID)
			}
			var buf bytes.Buffer
			if err := tb.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
				t.Errorf("table hash %s, want %s; table now:\n%s", got, want, buf.String())
			}
		})
	}
}

// TestAblationTablesPinnedDefaultProfile byte-checks the five
// quick-scale ablation tables on the default solver profile: each hash
// is the sha256 of `quorumbench -fig <id> -quick -format csv`.
func TestAblationTablesPinnedDefaultProfile(t *testing.T) {
	pinned := map[string]string{
		"abl-dedup":     "44edacf82e3353adf449eb23a99eee049302d22c877eceefbff290830d5cfc4f",
		"abl-anchor":    "5768273990c3cffe2f479ac36abfb70f1d947100f1289b004547524b76fc416f",
		"abl-failures":  "bf48f8bf19ea61bad948c7b52eba68edbac8432093a17022e9126ad1f691c26d",
		"abl-sweep":     "367fb569d6c3357ed9f108825e7edeb8348bc1b592f3479b183f254d7aea7465",
		"abl-baselines": "8a7bb56194960c9022461016400c97682dde1bc0584dc74b9463454ab59fb4aa",
	}
	abls := Ablations()
	if len(abls) != len(pinned) {
		t.Errorf("%d ablations, %d pinned tables", len(abls), len(pinned))
	}
	for _, e := range abls {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(quickCfg(false), true)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tb.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), pinned[e.ID]; got != want {
				t.Errorf("table hash %s, want %s", got, want)
			}
		})
	}
}

// TestAblDedupNeverWorse: the §8 dedup model must never increase response
// time relative to the multiplicity model at the same capacity.
func TestAblDedupNeverWorse(t *testing.T) {
	profiles(t, func(t *testing.T, cfg scenario.RunConfig) {
		tb, err := AblDedup(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		gain, err := colOf(tb, "dedup_gain_ms")
		if err != nil {
			t.Fatal(err)
		}
		for r := range tb.Rows {
			v, err := cellOf(tb, r, gain)
			if err != nil {
				t.Fatal(err)
			}
			if v < -1e-6 {
				t.Errorf("row %d: dedup made response worse by %v ms", r, -v)
			}
		}
	})
}

// TestAblFailuresSingletonDies: the singleton must be 'down' after its
// single node fails, while the quorum systems keep serving.
func TestAblFailuresSingletonDies(t *testing.T) {
	profiles(t, func(t *testing.T, cfg scenario.RunConfig) {
		tb, err := AblFailures(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := colOf(tb, "resp_f1")
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.Rows[0][f1]; got != "down" {
			t.Errorf("singleton after 1 failure = %q, want down", got)
		}
		for r := 1; r < len(tb.Rows); r++ {
			if tb.Rows[r][f1] == "down" {
				t.Errorf("row %d (%s) down after a single failure", r, tb.Rows[r][0])
			}
		}
	})
}

// BenchmarkAblations regenerates every ablation study at full scale
// under the configuration `quorumbench -ablations` runs.
func BenchmarkAblations(b *testing.B) {
	cfg := scenario.RunConfig{Seed: topology.DefaultSeed, QURuns: 5, QUDurationMS: 20000}
	for _, e := range Ablations() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := e.Run(cfg, false)
				if err != nil {
					b.Fatal(err)
				}
				if len(tb.Rows) == 0 {
					b.Fatalf("%s produced no rows", e.ID)
				}
			}
		})
	}
}

// cellOf returns the numeric value of a cell of tb.
func cellOf(tb *scenario.Table, row, col int) (float64, error) {
	if row < 0 || row >= len(tb.Rows) || col < 0 || col >= len(tb.Columns) {
		return 0, fmt.Errorf("cell (%d,%d) out of range", row, col)
	}
	return strconv.ParseFloat(tb.Rows[row][col], 64)
}

// colOf returns the index of a named column of tb.
func colOf(tb *scenario.Table, name string) (int, error) {
	for i, c := range tb.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %s has no column %q", tb.ID, name)
}
