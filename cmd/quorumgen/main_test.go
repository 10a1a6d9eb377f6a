package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/serve"
)

// bothProfiles runs f under the default and the reproducible solver
// profile: replay ≡ live is a property of the pipeline, not a mode.
func bothProfiles(t *testing.T, f func(t *testing.T, rcfg scenario.RunConfig)) {
	t.Run("default", func(t *testing.T) { f(t, scenario.RunConfig{Seed: 1}) })
	t.Run("reproducible", func(t *testing.T) { f(t, scenario.RunConfig{Seed: 1, Reproducible: true}) })
}

// replayOnce stands up a journaled quorumd-shaped server seeded for the
// workload under rcfg's profile, replays the workload through run() at
// high speedup, and returns the manager.
func replayOnce(t *testing.T, workload string, rcfg scenario.RunConfig, journal string) *deploy.Manager {
	t.Helper()
	spec, err := scenario.LibraryByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := scenario.TimelinePlanner(spec, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, replayed, err := deploy.Recover(p, deploy.Config{}, journal)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("fresh journal replayed %d batches", replayed)
	}
	reg := serve.NewRegistry(serve.Options{})
	if _, err := reg.Open(serve.DefaultTenant, m); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	cfg := genConfig{
		target:   srv.URL + "/v1/deltas",
		workload: workload,
		interval: time.Millisecond,
		speedup:  60,
		seed:     rcfg.Seed,
	}
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplayMatchesEngineTable is the loop-closing assertion: quorumgen
// driving a live journaled quorumd leaves a version history whose
// response/net-delay/load per step matches the scenario engine's
// timeline table — the wire replay and the in-process engine tell the
// same story, cell for cell, whichever profile both plan under.
func TestReplayMatchesEngineTable(t *testing.T) {
	bothProfiles(t, testReplayMatchesEngineTable)
}

func testReplayMatchesEngineTable(t *testing.T, rcfg scenario.RunConfig) {
	const workload = "flash-crowd"
	spec, err := scenario.LibraryByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	table, err := scenario.Run(spec, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	m := replayOnce(t, workload, rcfg, filepath.Join(dir, "a.journal"))
	hist := m.History()
	if len(hist) != len(table.Rows) {
		t.Fatalf("deployment published %d versions, table has %d rows", len(hist), len(table.Rows))
	}
	f2 := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	f3 := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for i, e := range hist {
		row := table.Rows[i]
		snap := e.Snapshot
		got := []string{strconv.Itoa(snap.Topology.Size()), f2(snap.Response), f2(snap.NetDelay), f3(snap.MaxLoad)}
		want := row[1:5]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %q (version %d): deployment %v, table %v", row[0], snap.Version, got, want)
		}
	}
}

// TestReplayIsDeterministic replays the same workload and seed twice
// into separate journals: the journals must be byte-identical, and both
// deployments must publish the same versions with the same placements
// and strategies per step.
func TestReplayIsDeterministic(t *testing.T) {
	bothProfiles(t, testReplayIsDeterministic)
}

func testReplayIsDeterministic(t *testing.T, rcfg scenario.RunConfig) {
	dir := t.TempDir()
	ja, jb := filepath.Join(dir, "a.journal"), filepath.Join(dir, "b.journal")
	ma := replayOnce(t, "flash-crowd", rcfg, ja)
	mb := replayOnce(t, "flash-crowd", rcfg, jb)

	ha, hb := ma.History(), mb.History()
	if len(ha) != len(hb) {
		t.Fatalf("replays published %d vs %d versions", len(ha), len(hb))
	}
	for i := range ha {
		sa, sb := ha[i].Snapshot, hb[i].Snapshot
		if sa.Version != sb.Version {
			t.Fatalf("entry %d: versions %d vs %d", i, sa.Version, sb.Version)
		}
		if !reflect.DeepEqual(sa.Placement.Targets(), sb.Placement.Targets()) {
			t.Errorf("version %d: placements differ", sa.Version)
		}
		if sa.Response != sb.Response || sa.NetDelay != sb.NetDelay || sa.MaxLoad != sb.MaxLoad {
			t.Errorf("version %d: evaluations differ: (%v,%v,%v) vs (%v,%v,%v)",
				sa.Version, sa.Response, sa.NetDelay, sa.MaxLoad, sb.Response, sb.NetDelay, sb.MaxLoad)
		}
	}

	ba, err := os.ReadFile(ja)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(jb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("journals of identical replays differ")
	}
}

// TestReplayJournalRecovers replays a workload, then recovers a fresh
// planner from the journal alone — the crash-restart path — and
// expects the exact version history back.
func TestReplayJournalRecovers(t *testing.T) {
	bothProfiles(t, testReplayJournalRecovers)
}

func testReplayJournalRecovers(t *testing.T, rcfg scenario.RunConfig) {
	dir := t.TempDir()
	j := filepath.Join(dir, "crash.journal")
	m := replayOnce(t, "flash-crowd", rcfg, j)
	want := m.Current().Snapshot

	spec, err := scenario.LibraryByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	p, err := scenario.TimelinePlanner(spec, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, replayed, err := deploy.Recover(p, deploy.Config{}, j)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	got := m2.Current().Snapshot
	if got.Version != want.Version || got.Response != want.Response ||
		!reflect.DeepEqual(got.Placement.Targets(), want.Placement.Targets()) {
		t.Fatalf("recovered (v%d, %.4f) != original (v%d, %.4f)",
			got.Version, got.Response, want.Version, want.Response)
	}
}

func TestListAndDryRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), genConfig{list: true}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"flash-crowd", "diurnal-demand", "rtt-drift", "regional-outage"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list missing %s", name)
		}
	}

	buf.Reset()
	if err := run(context.Background(), genConfig{workload: "flash-crowd", seed: 1, speedup: 1, dryRun: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crowd-peak") || !strings.Contains(buf.String(), "\"weights\"") {
		t.Errorf("dry-run output lacks expected steps:\n%s", buf.String())
	}

	buf.Reset()
	if err := run(context.Background(), genConfig{workload: "flash-crowd", seed: 1, speedup: 1, describe: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "grid:4") {
		t.Errorf("describe output lacks the system spec:\n%s", buf.String())
	}

	if err := run(context.Background(), genConfig{workload: "seed-scale-study", speedup: 1}, io.Discard); err == nil {
		t.Error("non-timeline workload accepted")
	}
	if err := run(context.Background(), genConfig{speedup: 1}, io.Discard); err == nil {
		t.Error("missing workload accepted")
	}
}
