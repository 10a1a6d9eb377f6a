package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/quorumnet/quorumnet/internal/par/partest"
)

// shardSpecs returns specs covering every kind, small enough to execute
// many times across shard counts.
func shardSpecs() []Spec {
	return []Spec{
		{
			Name:       "shard-eval",
			Kind:       KindEval,
			Topology:   smallSynth(),
			Systems:    []SystemAxis{{Family: "singleton"}, {Family: "grid", Params: []int{2, 3}}, {Family: "majority", Params: []int{1, 2}}},
			Demands:    []float64{0, 4000},
			Strategies: []string{"closest", "lp"},
			Measures:   []string{"response"},
		},
		{
			Name:       "shard-eval-faults",
			Kind:       KindEval,
			Topology:   smallSynth(),
			Systems:    []SystemAxis{{Family: "grid", Params: []int{2, 3}}, {Family: "bmajority", Params: []int{1}}},
			Demands:    []float64{0},
			Strategies: []string{"balanced"},
			Measures:   []string{"response", "net"},
			Faults:     &FaultSpec{WorstCase: 1},
		},
		{
			Name:     "shard-sweep",
			Kind:     KindSweep,
			Topology: smallSynth(),
			Systems:  []SystemAxis{{Family: "grid", Params: []int{2, 3}}},
			Sweep:    &SweepSpec{Points: 6, Demand: 8000, Variants: []string{"uniform", "nonuniform"}},
		},
		{
			Name:     "shard-iterate",
			Kind:     KindIterate,
			Topology: smallSynth(),
			Systems:  []SystemAxis{{Family: "grid", Params: []int{3}}},
			Iterate:  &IterateSpec{Points: 3, Demand: 4000, Candidates: []int{0, 3, 6}},
		},
		{
			Name:     "shard-protocol",
			Kind:     KindProtocol,
			Topology: smallSynth(),
			Protocol: &ProtocolSpec{Ts: []int{1, 2}, PerSite: []int{1, 2}, ClientSites: 5},
		},
		{
			Name:       "shard-timeline",
			Kind:       KindTimeline,
			Topology:   smallSynth(),
			Systems:    []SystemAxis{{Family: "grid", Params: []int{3}}},
			Strategies: []string{"lp"},
			Demands:    []float64{8000},
			Timeline: []Step{
				{Label: "crowd", Weights: &WeightsStep{Regions: map[string]float64{"eu": 5}}},
				{Label: "uniform", Weights: &WeightsStep{Uniform: true}},
			},
		},
	}
}

func shardCfg() RunConfig {
	return RunConfig{Reproducible: true, QURuns: 1, QUDurationMS: 500}
}

// scramble reorders partials deterministically (reverse, then rotate by
// the shard count) so merges never see completion order == shard order.
func scramble(partials []*Partial, rot int) []*Partial {
	out := make([]*Partial, 0, len(partials))
	for i := len(partials) - 1; i >= 0; i-- {
		out = append(out, partials[i])
	}
	if len(out) > 0 {
		rot = rot % len(out)
		out = append(out[rot:], out[:rot]...)
	}
	return out
}

// TestPartitionExactCover: for every kind and shard counts 1..8, every
// point appears in exactly one shard, in ordinal order within it.
func TestPartitionExactCover(t *testing.T) {
	for _, spec := range shardSpecs() {
		spec := spec
		space, err := NewSpace(&spec, shardCfg())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		n := space.NumPoints()
		if n == 0 {
			t.Fatalf("%s: empty point-space", spec.Name)
		}
		for shards := 1; shards <= 8; shards++ {
			seen := make([]int, n)
			for si := 0; si < shards; si++ {
				part, err := space.Shard(si, shards)
				if err != nil {
					t.Fatalf("%s: shard %d/%d: %v", spec.Name, si, shards, err)
				}
				last := -1
				for _, pt := range part.Points {
					if pt.Ordinal <= last {
						t.Errorf("%s: shard %d/%d out of ordinal order", spec.Name, si, shards)
					}
					last = pt.Ordinal
					seen[pt.Ordinal]++
				}
			}
			for ord, c := range seen {
				if c != 1 {
					t.Errorf("%s: %d shards: point %d appears %d times", spec.Name, shards, ord, c)
				}
			}
		}
		if _, err := space.Shard(0, 0); err == nil {
			t.Errorf("%s: zero shard count accepted", spec.Name)
		}
		if _, err := space.Shard(3, 3); err == nil {
			t.Errorf("%s: out-of-range shard accepted", spec.Name)
		}
	}
}

// TestShardedRunByteIdentical is the core invariant: for every kind,
// any shard count 1..8, and any completion order, the merged table is
// byte-identical to the unsharded Run output — in reproducible mode and
// on the default fast path. Besides the small per-kind specs it covers
// the library's multi-seed scaled study and the ten quick-scale
// figures, the specs fleets shard in practice; the figures run under
// the configuration `quorumbench -fig <id> -quick` builds.
func TestShardedRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("executes every spec 9 times per mode")
	}
	for _, mode := range []struct {
		name  string
		repro bool
	}{{"reproducible", true}, {"fast", false}} {
		cfg := shardCfg()
		cfg.Reproducible = mode.repro
		type input struct {
			spec Spec
			cfg  RunConfig
		}
		var inputs []input
		for _, spec := range append(shardSpecs(), SeedScaleStudy()) {
			inputs = append(inputs, input{spec, cfg})
		}
		for _, spec := range Figures(true) {
			inputs = append(inputs, input{spec, quickFigureCfg(mode.repro)})
		}
		t.Run(mode.name, func(t *testing.T) {
			for _, in := range inputs {
				in := in
				t.Run(in.spec.Name, func(t *testing.T) {
					t.Parallel()
					assertShardedMergeIdentical(t, &in.spec, in.cfg)
				})
			}
		})
	}
}

// assertShardedMergeIdentical runs spec unsharded and at every shard
// count 1..8, merging the partials out of shard order, and fails unless
// each merged table equals the unsharded one, formatted and unformatted.
func assertShardedMergeIdentical(t *testing.T, spec *Spec, cfg RunConfig) {
	t.Helper()
	base, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var baseText bytes.Buffer
	if err := base.Format(&baseText); err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 8; shards++ {
		space, err := NewSpace(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		partials := make([]*Partial, shards)
		for si := 0; si < shards; si++ {
			part, err := space.Shard(si, shards)
			if err != nil {
				t.Fatal(err)
			}
			partials[si], err = part.Execute()
			if err != nil {
				t.Fatalf("shard %d/%d: %v", si, shards, err)
			}
		}
		merged, err := space.Merge(scramble(partials, shards))
		if err != nil {
			t.Fatalf("merge %d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(base, merged) {
			t.Fatalf("%d-shard merge differs from Run:\n%v\nvs\n%v", shards, base.Rows, merged.Rows)
		}
		var mergedText bytes.Buffer
		if err := merged.Format(&mergedText); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseText.Bytes(), mergedText.Bytes()) {
			t.Fatalf("%d-shard formatted output differs", shards)
		}
	}
}

// TestPartialJSONRoundTrip: partials survive the fleet wire format and
// still merge byte-identically.
func TestPartialJSONRoundTrip(t *testing.T) {
	spec := shardSpecs()[0]
	cfg := shardCfg()
	base, err := Run(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpace(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	var decoded []*Partial
	for si := 0; si < shards; si++ {
		part, err := space.Shard(si, shards)
		if err != nil {
			t.Fatal(err)
		}
		p, err := part.Execute()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Partial
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, &back)
	}
	merged, err := Merge(&spec, cfg, scramble(decoded, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Rows, merged.Rows) {
		t.Fatalf("wire round trip changed rows:\n%v\nvs\n%v", base.Rows, merged.Rows)
	}
}

// TestMergeRejects: gaps, duplicates, foreign partials, and mangled
// schemas are all merge errors, not silent corruption.
func TestMergeRejects(t *testing.T) {
	spec := shardSpecs()[0]
	cfg := shardCfg()
	space, err := NewSpace(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	partials := make([]*Partial, shards)
	for si := 0; si < shards; si++ {
		part, err := space.Shard(si, shards)
		if err != nil {
			t.Fatal(err)
		}
		partials[si], err = part.Execute()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		in   []*Partial
		want string
	}{
		{"missing shard", []*Partial{partials[0]}, "missing from every partial"},
		{"duplicate shard", []*Partial{partials[0], partials[1], partials[1]}, "executed 2 times"},
		{"nil partial", []*Partial{partials[0], nil}, "is nil"},
	}
	for _, tc := range cases {
		_, err := space.Merge(tc.in)
		if err == nil {
			t.Errorf("%s: merge accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	foreign := *partials[0]
	foreign.Scenario = "someone-else"
	if _, err := space.Merge([]*Partial{&foreign, partials[1]}); err == nil ||
		!strings.Contains(err.Error(), "from scenario") {
		t.Errorf("foreign partial: %v", err)
	}

	mangled := *partials[0]
	mangledTable := *partials[0].Table
	mangledTable.Columns = append([]string{"bogus"}, mangledTable.Columns[1:]...)
	mangled.Table = &mangledTable
	if _, err := space.Merge([]*Partial{&mangled, partials[1]}); err == nil ||
		!strings.Contains(err.Error(), "columns") {
		t.Errorf("mangled columns: %v", err)
	}

	outOfRange := *partials[0]
	outOfRange.Points = append(append([]int(nil), partials[0].Points...), 999)
	if _, err := space.Merge([]*Partial{&outOfRange, partials[1]}); err == nil ||
		!strings.Contains(err.Error(), "999") {
		t.Errorf("out-of-range point: %v", err)
	}

	// A partial executed under different settings (another seed, another
	// solver mode) must be rejected, not silently mixed in.
	otherSeed := *partials[0]
	otherSeed.Config.Seed = 12345
	if _, err := space.Merge([]*Partial{&otherSeed, partials[1]}); err == nil ||
		!strings.Contains(err.Error(), "different settings") {
		t.Errorf("mismatched settings: %v", err)
	}
	fastMode := *partials[0]
	fastMode.Config.Reproducible = false
	if _, err := space.Merge([]*Partial{&fastMode, partials[1]}); err == nil ||
		!strings.Contains(err.Error(), "different settings") {
		t.Errorf("mismatched mode: %v", err)
	}
}

// TestProgressEvents: every point completion is reported exactly once
// with a consistent running count.
func TestProgressEvents(t *testing.T) {
	spec := shardSpecs()[0]
	cfg := shardCfg()
	var mu sync.Mutex
	var events []Progress
	space, err := NewSpace(&spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := space.Shard(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.ExecuteContext(context.Background(), func(ev Progress) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != space.NumPoints() {
		t.Fatalf("%d progress events for %d points", len(events), space.NumPoints())
	}
	seenDone := map[int]bool{}
	for _, ev := range events {
		if ev.Scenario != spec.Name || ev.Total != space.NumPoints() {
			t.Errorf("bad event %+v", ev)
		}
		if ev.Done < 1 || ev.Done > ev.Total || seenDone[ev.Done] {
			t.Errorf("bad done count %d", ev.Done)
		}
		seenDone[ev.Done] = true
	}
}

// TestTableCSVAndJSON covers the table wire formats: stable column
// order, quoting, and the row-arity check on decode.
func TestTableCSVAndJSON(t *testing.T) {
	tb := &Table{
		ID:      "t",
		Title:   "wire",
		Columns: []string{"name", "value"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("plain", "1.50")
	tb.AddRow("with,comma", "2.00")

	var csvBuf bytes.Buffer
	if err := tb.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	want := "name,value\nplain,1.50\n\"with,comma\",2.00\n"
	if csvBuf.String() != want {
		t.Errorf("CSV = %q, want %q", csvBuf.String(), want)
	}

	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("JSON encoding not deterministic")
	}
	idx := bytes.Index(data, []byte(`"columns":["name","value"]`))
	if idx < 0 {
		t.Errorf("JSON lost column order: %s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb.Rows, back.Rows) || !reflect.DeepEqual(tb.Columns, back.Columns) {
		t.Errorf("round trip changed table: %+v vs %+v", tb, back)
	}
	if err := back.UnmarshalJSON([]byte(`{"id":"x","columns":["a"],"rows":[["1","2"]]}`)); err == nil {
		t.Error("row arity mismatch accepted")
	}
}

// TestTableHelpers covers the numeric accessors figure-shape tests read
// tables through, the text and markdown layouts' headers, and AddRow's
// arity check.
func TestTableHelpers(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2.5")
	var buf bytes.Buffer
	if err := tb.Format(&buf); err != nil || !strings.HasPrefix(buf.String(), "== x: t ==\n") {
		t.Errorf("Format = %q, %v", buf.String(), err)
	}
	buf.Reset()
	if err := tb.FormatMarkdown(&buf); err != nil || !strings.Contains(buf.String(), "### x — t\n\n| a | b |\n| --- | --- |\n| 1 | 2.5 |\n") {
		t.Errorf("FormatMarkdown = %q, %v", buf.String(), err)
	}
	if v, err := cellOf(tb, 0, 1); err != nil || v != 2.5 {
		t.Errorf("Cell = %v, %v", v, err)
	}
	if _, err := cellOf(tb, 1, 0); err == nil {
		t.Error("out-of-range Cell succeeded")
	}
	if i, err := colOf(tb, "b"); err != nil || i != 1 {
		t.Errorf("Col(b) = %d, %v", i, err)
	}
	if _, err := colOf(tb, "z"); err == nil {
		t.Error("Col(z) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity did not panic")
		}
	}()
	tb.AddRow("only-one")
}

// cellOf returns the numeric value of a cell of tb.
func cellOf(tb *Table, row, col int) (float64, error) {
	if row < 0 || row >= len(tb.Rows) || col < 0 || col >= len(tb.Columns) {
		return 0, fmt.Errorf("cell (%d,%d) out of range", row, col)
	}
	return strconv.ParseFloat(tb.Rows[row][col], 64)
}

// colOf returns the index of a named column of tb.
func colOf(tb *Table, name string) (int, error) {
	for i, c := range tb.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %s has no column %q", tb.ID, name)
}

// TestExecuteStopsAtPointBoundary: a partition checks its context
// before each point and each shared setup build, for every kind. Under
// a context cancelled up front no point runs; cancelled from the first
// point's progress event (one point at a time), no second point starts.
// Either way the partition returns ctx.Err() and no partial.
func TestExecuteStopsAtPointBoundary(t *testing.T) {
	partest.SetGOMAXPROCS(t, 1)
	for _, spec := range shardSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			space, err := NewSpace(&spec, shardCfg())
			if err != nil {
				t.Fatal(err)
			}
			part, err := space.Shard(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			events := 0
			p, err := part.ExecuteContext(ctx, func(Progress) { events++ })
			if !errors.Is(err, context.Canceled) || p != nil || events != 0 {
				t.Fatalf("cancelled up front: partial %v, %d points run, err %v; want no partial, 0 points, context.Canceled", p, events, err)
			}

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			p, err = part.ExecuteContext(ctx, func(Progress) { events++; cancel() })
			if !errors.Is(err, context.Canceled) || p != nil || events != 1 {
				t.Fatalf("cancelled after the first point: partial %v, %d points run, err %v; want no partial, 1 point, context.Canceled", p, events, err)
			}
		})
	}
}
