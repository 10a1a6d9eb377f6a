package scenario

import (
	"reflect"
	"testing"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// bothProfiles runs f under the default and the reproducible solver
// profile: the stream is the same under either, and it drives a
// deployment to the engine's table as long as both plan under one.
func bothProfiles(t *testing.T, f func(t *testing.T, cfg RunConfig)) {
	t.Run("default", func(t *testing.T) { f(t, RunConfig{Seed: 1}) })
	t.Run("reproducible", func(t *testing.T) { f(t, RunConfig{Seed: 1, Reproducible: true}) })
}

// TestTimelineStreamMatchesEngineTable is the exporter's contract: for
// every library timeline, replaying the streamed delta batches through
// a live deployment visits exactly the states the scenario engine's
// table records — same response time, network delay, max load, and
// site count per step, formatted cell for formatted cell.
func TestTimelineStreamMatchesEngineTable(t *testing.T) {
	for _, spec := range Library() {
		if spec.Kind != KindTimeline {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			bothProfiles(t, func(t *testing.T, cfg RunConfig) { testStreamMatchesEngineTable(t, &spec, cfg) })
		})
	}
}

func testStreamMatchesEngineTable(t *testing.T, spec *Spec, cfg RunConfig) {
	table, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := TimelineStream(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(spec.Timeline) {
		t.Fatalf("streamed %d steps, want %d", len(steps), len(spec.Timeline))
	}

	p, err := TimelinePlanner(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, deploy.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Row 0 is the "initial" row; streamed step i corresponds to
	// row i+1.
	rows := table.Rows
	if len(rows) != len(steps)+1 {
		t.Fatalf("table has %d rows for %d steps", len(rows), len(steps))
	}
	assertRow := func(row []string, label string) {
		t.Helper()
		snap := m.Current().Snapshot
		got := []string{label, itoa(snap.Topology.Size()), f2(snap.Response), f2(snap.NetDelay), f3(snap.MaxLoad)}
		for i, cell := range got {
			if row[i] != cell {
				t.Fatalf("step %q column %d: deployment %q, table %q (row %v)", label, i, cell, row[i], row[:len(got)])
			}
		}
	}
	assertRow(rows[0], "initial")
	for i, step := range steps {
		if _, err := m.Apply(step.Deltas); err != nil {
			t.Fatalf("step %q: %v", step.Label, err)
		}
		assertRow(rows[i+1], step.Label)
	}
}

// TestTimelineStreamIsDeterministic pins the exporter's output: two
// exports of the same spec and config are deep-equal, batch for batch —
// and so are the exports under the two profiles, since compiling a
// step reads the planner's inputs, never its plan.
func TestTimelineStreamIsDeterministic(t *testing.T) {
	spec, err := LibraryByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	var exports [][]StreamStep
	bothProfiles(t, func(t *testing.T, cfg RunConfig) {
		a, err := TimelineStream(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TimelineStream(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two exports differ:\n%+v\n%+v", a, b)
		}
		exports = append(exports, a)
	})
	if len(exports) == 2 && !reflect.DeepEqual(exports[0], exports[1]) {
		t.Fatalf("default and reproducible exports differ:\n%+v\n%+v", exports[0], exports[1])
	}
}

func TestTimelineStreamRejectsNonTimeline(t *testing.T) {
	spec, err := LibraryByName("seed-scale-study")
	if err != nil {
		// Library composition may change; any non-timeline spec works.
		for _, s := range Library() {
			if s.Kind != KindTimeline {
				spec = &s
				break
			}
		}
	}
	if spec == nil || spec.Kind == KindTimeline {
		t.Skip("no non-timeline library spec to test against")
	}
	if _, err := TimelineStream(spec, RunConfig{Seed: 1}); err == nil {
		t.Fatal("non-timeline spec exported a stream")
	}
}
