package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/quorumnet/quorumnet/internal/topology"
)

// quickFigureCfg is the RunConfig `quorumbench -quick` builds from the
// flag defaults on the given solver profile: the default seed, and the
// Q/U simulation at the quick scale.
func quickFigureCfg(reproducible bool) RunConfig {
	return RunConfig{Seed: topology.DefaultSeed, Reproducible: reproducible, QURuns: 5, QUDurationMS: 20000}.QuickScale()
}

// TestQuickScale: -quick caps the Q/U simulation at 2 runs of 3000 ms,
// a non-positive duration included; shorter settings pass through.
func TestQuickScale(t *testing.T) {
	for _, c := range []struct {
		runs, wantRuns int
		ms, wantMS     float64
	}{
		{5, 2, 20000, 3000},
		{1, 1, 2000, 2000},
		{2, 2, 3000, 3000},
		{0, 0, 0, 3000},
		{-1, -1, -5, 3000},
	} {
		got := RunConfig{Seed: 7, Reproducible: true, QURuns: c.runs, QUDurationMS: c.ms}.QuickScale()
		want := RunConfig{Seed: 7, Reproducible: true, QURuns: c.wantRuns, QUDurationMS: c.wantMS}
		if got != want {
			t.Errorf("runs %d, %v ms: quick scale %+v, want %+v", c.runs, c.ms, got, want)
		}
	}
}

// TestFigureTablesPinned byte-checks the ten quick-scale figure tables:
// each hash is the sha256 of `quorumbench -fig <id> -quick -reproducible
// -format csv`. Full scale stays a manual cmp of `quorumbench -all`.
func TestFigureTablesPinned(t *testing.T) {
	pinned := map[string]string{
		"fig3.1":  "c997178f9f718eeb3ea7c3dd3b03d560fb2bc69b9e1df0e3abbf168b4bb77182",
		"fig3.2a": "967591c9a15b0fc825d2401b12577e1c5a00f5e909a18327bfb8831cc5713dc8",
		"fig3.2b": "7e041b71ddef3a2aa0b2b552d8a6cc691823c7268cc2d82bdc3de17119f3ecaa",
		"fig6.3":  "83d8151dc1d18cc71ce17405d09ad6b17a1d32c74b689daa9594a1084e06af78",
		"fig6.4":  "2067d8b6549f642faa8f725e089cf202edbbd2af46cc93a8b94ddd2e431a0074",
		"fig6.5":  "ef1579d50e9c3cc9071d3b3ef7b9e8251eba04c3848939becd5a0cf25366d814",
		"fig7.6":  "fd2b3b249d6514362d235767eb4a30e0ea6ec6c032e351d3cef3d3e0d08669c6",
		"fig7.7":  "78729412c1edbb61505e768a82144c0476b3f07427af925c47bb6184cc48ab07",
		"fig7.8":  "bd17b9a8a3e469567d0a1f0747c1196cb96998aecdea2ea12bbb0487d9d1489e",
		"fig8.9":  "a534c0ebf0871ceee9dd87e05645ca1619376857d2b95a166ea0e14f9f93d58b",
	}
	figs := Figures(true)
	if len(figs) != len(pinned) {
		t.Errorf("%d figures, %d pinned tables", len(figs), len(pinned))
	}
	for _, spec := range figs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := pinned[spec.Name]
			if !ok {
				t.Fatalf("figure %q has no pinned table hash", spec.Name)
			}
			tb, err := Run(&spec, quickFigureCfg(true))
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != spec.Name || tb.Title != spec.Title {
				t.Errorf("table %q %q, want the spec's name and title %q %q", tb.ID, tb.Title, spec.Name, spec.Title)
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

// csvHash is the sha256 of the table's CSV rendering, in hex.
func csvHash(t *testing.T, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestFigureTablesPinnedDefaultProfile byte-checks the ten quick-scale
// figure tables on the default solver profile (partial pricing, warm
// re-solves): each hash is the sha256 of `quorumbench -fig <id> -quick
// -format csv`. The LP-free figures hash as in TestFigureTablesPinned.
func TestFigureTablesPinnedDefaultProfile(t *testing.T) {
	pinned := map[string]string{
		"fig3.1":  "c997178f9f718eeb3ea7c3dd3b03d560fb2bc69b9e1df0e3abbf168b4bb77182",
		"fig3.2a": "967591c9a15b0fc825d2401b12577e1c5a00f5e909a18327bfb8831cc5713dc8",
		"fig3.2b": "7e041b71ddef3a2aa0b2b552d8a6cc691823c7268cc2d82bdc3de17119f3ecaa",
		"fig6.3":  "83d8151dc1d18cc71ce17405d09ad6b17a1d32c74b689daa9594a1084e06af78",
		"fig6.4":  "2067d8b6549f642faa8f725e089cf202edbbd2af46cc93a8b94ddd2e431a0074",
		"fig6.5":  "ef1579d50e9c3cc9071d3b3ef7b9e8251eba04c3848939becd5a0cf25366d814",
		"fig7.6":  "eabc9e6fdca14a7ac04da1b2387263f4b2ff2b1179291eb18920f19fc95bf590",
		"fig7.7":  "2d69d883750745b9eb67069a45cbe057093c32dcb8ce114fc535736933ac82c4",
		"fig7.8":  "2f511469de83d6ec9fea56c4798af520c48c9de8763d68499c0e94e80efffd52",
		"fig8.9":  "dc97e9fab38628f195ca2d7e174fc0d7fb3eb7a21ca651811c6dbb21f5dd8f03",
	}
	figs := Figures(true)
	if len(figs) != len(pinned) {
		t.Errorf("%d figures, %d pinned tables", len(figs), len(pinned))
	}
	for _, spec := range figs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tb, err := Run(&spec, quickFigureCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := csvHash(t, tb), pinned[spec.Name]; got != want {
				t.Errorf("table hash %s, want %s", got, want)
			}
		})
	}
}

// runFigure runs the named figure at the given scale on the default
// fast profile, as `quorumbench -fig <name> -quick` does without
// -reproducible; the pins cover the reproducible profile.
func runFigure(t *testing.T, name string, quick bool) *Table {
	t.Helper()
	for _, spec := range Figures(quick) {
		if spec.Name == name {
			tb, err := Run(&spec, quickFigureCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
	}
	t.Fatalf("no figure %q", name)
	return nil
}

// TestFig63SingletonIsLowest: on the quick run, the singleton baseline
// must not be beaten by any placed quorum system (Lin's 2-approximation
// argument says nothing can do better than half; in practice singleton
// wins outright at alpha=0).
func TestFig63SingletonIsLowest(t *testing.T) {
	tb := runFigure(t, "fig6.3", true)
	respCol, err := colOf(tb, "response_ms")
	if err != nil {
		t.Fatal(err)
	}
	single, err := cellOf(tb, 0, respCol)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(tb.Rows); r++ {
		v, err := cellOf(tb, r, respCol)
		if err != nil {
			t.Fatal(err)
		}
		if v < single-1e-9 {
			t.Errorf("row %d response %v beats singleton %v", r, v, single)
		}
	}
}

// TestFig65BalancedResponseDecreases: the headline shape of Figure 6.5 —
// with demand 16000, the balanced strategy's response time falls as the
// universe grows (more servers share the load). It runs at full scale
// for several universe sizes; this figure is cheap.
func TestFig65BalancedResponseDecreases(t *testing.T) {
	tb := runFigure(t, "fig6.5", false)
	col, err := colOf(tb, "resp_balanced")
	if err != nil {
		t.Fatal(err)
	}
	first, err := cellOf(tb, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	last, err := cellOf(tb, len(tb.Rows)-1, col)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("balanced response did not decrease: first %v, last %v", first, last)
	}
}

// BenchmarkFigures regenerates every figure of the paper's evaluation at
// full scale, end to end (topology synthesis, placement, strategy
// optimization or protocol simulation, and table assembly), under the
// configuration `quorumbench -all` runs; see EXPERIMENTS.md for the
// recorded outputs.
func BenchmarkFigures(b *testing.B) {
	cfg := RunConfig{Seed: topology.DefaultSeed, QURuns: 5, QUDurationMS: 20000}
	for _, spec := range Figures(false) {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := Run(&spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tb.Rows) == 0 {
					b.Fatalf("%s produced no rows", spec.Name)
				}
			}
		})
	}
}
