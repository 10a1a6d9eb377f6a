package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusals runs every invocation quorumbench must refuse: each exits
// 2 with one line on stderr and nothing on stdout, before any mode runs.
func TestRefusals(t *testing.T) {
	for _, args := range []string{
		// The contradictory-flag checks the crash-resume smoke runs.
		"-resume /tmp/none.journal",
		"-fig 3.1 -shards 4 -shard 4",
		"-fleet-worker -journal /tmp/x.journal",
		"-scenario site-churn -quick",
		// At most one of -fig, -all, -ablations, -scenario and -list.
		"-fig 6.3 -scenario list",
		"-fig 9.9 -list",
		"-all -ablations",
		"-scenario site-churn -all",
		// None of them with -fleet-worker or -standby.
		"-fig 6.3 -fleet-worker",
		"-fleet-worker -scenario list",
		"-standby -journal run.journal -fleet 127.0.0.1:1 -fig 6.3",
		// A mode-only flag without its mode.
		"-fig 6.3 -addr 127.0.0.1:1",
		"-fig 6.3 -join 127.0.0.1:1",
		"-fig 6.3 -advertise 127.0.0.1:1",
		"-fig 6.3 -slots 2",
		"-fleet-worker -slots 2",
		"-fig 6.3 -shards 2 -fleet 127.0.0.1:1 -min-workers 2",
		"-fig 6.3 -lease-ttl 1s",
		// -list reads no other flag.
		"-list -seed 3",
		"-list -format csv",
		// A shard prints its JSON partial whatever -format says.
		"-fig 6.3 -quick -shards 2 -shard 0 -format csv",
		// Sharded, fleet and resumed runs take one spec: no ablation,
		// no -all, no -scenario list, and some spec to run.
		"-fig abl-dedup -shards 2",
		"-ablations -fleet 127.0.0.1:1",
		"-all -shards 2",
		"-scenario list -shards 2",
		"-resume run.journal -fleet 127.0.0.1:1 -all",
		"-shards 2",
		// Nothing selected to run.
		"-seed 3",
		// A journaled run is already identified: its journal records
		// the seed, the solver profile and the protocol scale.
		"-resume run.journal -fleet 127.0.0.1:1 -seed 9",
		"-resume run.journal -fleet 127.0.0.1:1 -reproducible",
		"-resume run.journal -fleet 127.0.0.1:1 -runs 2",
		"-resume run.journal -fleet 127.0.0.1:1 -duration 100",
		"-standby -journal run.journal -fleet 127.0.0.1:1 -seed 9",
		"-standby -journal run.journal -fleet 127.0.0.1:1 -reproducible",
		"-standby -journal run.journal -fleet 127.0.0.1:1 -runs 2",
		"-standby -journal run.journal -fleet 127.0.0.1:1 -duration 100",
		// -scenario list reads no other flag.
		"-scenario list -seed 9",
		// The ablations read only the seed and the solver profile of the
		// run flags, and report no progress.
		"-ablations -runs 2",
		"-ablations -duration 100",
		"-ablations -progress",
		"-fig abl-dedup -runs 2",
		"-fig abl-dedup -duration 100",
		"-fig abl-dedup -progress",
	} {
		t.Run(args, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr := capture(t, filepath.Join(dir, "stdout"), &os.Stdout), capture(t, filepath.Join(dir, "stderr"), &os.Stderr)
			code := run(strings.Fields(args))
			if out := stdout(); code != 2 || out != "" {
				t.Fatalf("exit %d with stdout %q, want exit 2 and no output", code, out)
			}
			if msg := stderr(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "quorumbench: ") {
				t.Fatalf("stderr %q, want one quorumbench: line", msg)
			}
		})
	}
}

// capture redirects *f to the file at path until the test ends; the
// returned function reads what was written so far.
func capture(t *testing.T, path string, f **os.File) func() string {
	t.Helper()
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := *f
	*f = file
	t.Cleanup(func() { *f = saved; file.Close() })
	return func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// TestAcceptances passes every invocation CI and the benchmark's
// study-fleet workload make through validation; the modes do not run.
func TestAcceptances(t *testing.T) {
	for _, args := range []string{
		// .github/workflows/ci.yml
		"-scenario list",
		"-scenario site-churn",
		"-scenario flash-crowd",
		"-fig 6.3 -quick -reproducible -format csv",
		"-fig 6.3 -quick -reproducible -format csv -shards 2",
		"-fleet-worker -addr 127.0.0.1:19191",
		"-fig 6.3 -quick -reproducible -format csv -progress -fleet 127.0.0.1:19191,127.0.0.1:19192",
		"-fig 3.1 -reproducible -runs 2 -duration 4000 -format csv",
		"-fleet-worker -addr 127.0.0.1:19301 -join 127.0.0.1:19300 -slots 2",
		"-fleet-worker -addr 127.0.0.1:19301 -join 127.0.0.1:19300",
		"-fig 3.1 -reproducible -runs 2 -duration 4000 -format csv -progress -fleet-registry 127.0.0.1:19300 -min-workers 3 -shards 6",
		"-fig 3.1 -reproducible -runs 2 -duration 4000 -format csv -fleet 127.0.0.1:19401,127.0.0.1:19402 -shards 6 -journal /tmp/crash.journal",
		"-resume /tmp/crash.journal -fleet 127.0.0.1:19401,127.0.0.1:19402 -format csv",
		"-standby -journal /tmp/crash.journal -fleet 127.0.0.1:19401,127.0.0.1:19402",
		// bench/study.go
		"-fleet-worker -addr 127.0.0.1:19501",
		"-scenario bench/specs/study-fleet.json -seed 1 -shards 16 -fleet 127.0.0.1:19501,127.0.0.1:19502 -progress",
		// -resume cross-checks one -fig or -scenario against its journal;
		// -quick picks which figure.
		"-resume run.journal -fleet 127.0.0.1:19401 -fig 3.1",
		"-resume run.journal -fleet 127.0.0.1:19401 -fig 3.1 -quick",
		// The ablations read the seed and the solver profile.
		"-ablations -quick -seed 3 -reproducible",
		"-fig abl-dedup -seed 3 -reproducible -format csv",
		// The protocol scale is part of a run's identity even for a spec
		// with no Q/U axis.
		"-scenario site-churn -runs 2 -duration 100",
	} {
		t.Run(args, func(t *testing.T) {
			if o, code := parse(strings.Fields(args)); o == nil {
				t.Fatalf("refused with exit %d", code)
			}
		})
	}
}

// TestProgressOnUnshardedFigure: -progress on a plain -fig run logs a
// per-point line to stderr for every point and leaves the table on
// stdout as it is without the flag.
func TestProgressOnUnshardedFigure(t *testing.T) {
	dir := t.TempDir()
	args := "-fig 6.3 -quick -reproducible -format csv"
	stdout := capture(t, filepath.Join(dir, "plain"), &os.Stdout)
	if code := run(strings.Fields(args)); code != 0 {
		t.Fatalf("%s: exit %d", args, code)
	}
	plain := stdout()

	stdout, stderr := capture(t, filepath.Join(dir, "stdout"), &os.Stdout), capture(t, filepath.Join(dir, "stderr"), &os.Stderr)
	if code := run(strings.Fields(args + " -progress")); code != 0 {
		t.Fatalf("%s -progress: exit %d", args, code)
	}
	if got := stdout(); got != plain {
		t.Errorf("-progress changed the table:\n%s\nvs\n%s", got, plain)
	}
	lines := strings.Split(strings.TrimSpace(stderr()), "\n")
	if len(lines) < 2 {
		t.Fatalf("stderr %q, want a progress line per point", lines)
	}
	// Points finish on a worker pool, so the counts arrive in any order;
	// together they are 1..total, once each.
	seen := map[int]bool{}
	for _, l := range lines {
		var done, total int
		i := strings.Index(l, ": point ")
		if !strings.HasPrefix(l, "progress: fig6.3 shard 0/1: point ") || i < 0 {
			t.Fatalf("stderr line %q is not a fig6.3 progress line", l)
		}
		if _, err := fmt.Sscanf(l[i:], ": point %d/%d done", &done, &total); err != nil || total != len(lines) || seen[done] {
			t.Fatalf("progress line %q: count %d/%d of %d lines (%v)", l, done, total, len(lines), err)
		}
		seen[done] = true
	}
}
