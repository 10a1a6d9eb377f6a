package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

func formatTable(t *testing.T, table *scenario.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := table.Format(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// journaledRun executes one full journaled static fleet run and returns
// the journal path plus the merged reference bytes.
func journaledRun(t *testing.T, shards int) (string, []byte) {
	t.Helper()
	spec, cfg := testSpec(), testCfg()
	path := filepath.Join(t.TempDir(), "run.journal")
	jr, err := runjournal.Create(path, spec, cfg, shards, runjournal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := startWorker(t), startWorker(t)
	coord, err := New(Config{Workers: []string{w1.URL, w2.URL}, Shards: shards, Journal: jr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	table, err := coord.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return path, formatTable(t, table)
}

// resumeFrom loads a journal and takes the run over at the next epoch
// on a fresh two-worker fleet without waiting for its lease to go stale,
// as quorumbench -resume does, returning the merged bytes.
func resumeFrom(t *testing.T, path string) []byte {
	t.Helper()
	st, err := runjournal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := startWorker(t), startWorker(t)
	sb, err := NewStandby(StandbyOptions{Journal: path, Coordinator: Config{Workers: []string{w1.URL, w2.URL}, Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	table, err := sb.TakeOver(st)
	if err != nil {
		t.Fatal(err)
	}
	return formatTable(t, table)
}

// TestJournaledRunRecordsFullProtocol: an uninterrupted journaled run
// records header, dispatches, completes, and the merge, and its events
// carry epoch-1 attempt ids and worker addresses.
func TestJournaledRunRecordsFullProtocol(t *testing.T) {
	spec, cfg := testSpec(), testCfg()
	base, err := scenario.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseTx := formatTable(t, base)

	path := filepath.Join(t.TempDir(), "run.journal")
	jr, err := runjournal.Create(path, spec, cfg, 3, runjournal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	w1, w2 := startWorker(t), startWorker(t)
	coord, err := New(Config{
		Workers: []string{w1.URL, w2.URL},
		Shards:  3,
		Journal: jr,
		Logf:    t.Logf,
		OnEvent: log.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := coord.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if got := formatTable(t, table); !bytes.Equal(got, baseTx) {
		t.Fatal("journaled run output differs from unsharded run")
	}

	st, err := runjournal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Merged || st.Torn || st.Epoch != 1 || len(st.Completed) != 3 {
		t.Fatalf("journal state %+v", st)
	}
	for _, ev := range log.all() {
		if ev.Shard < 0 {
			continue
		}
		if !strings.HasPrefix(ev.AttemptID, "e1-s") {
			t.Fatalf("event %+v lacks an epoch-1 attempt id", ev)
		}
		if ev.Worker == "" {
			t.Fatalf("event %+v lacks a worker", ev)
		}
	}
}

// TestResumeFromEveryRecordBoundary is the crash-at-every-protocol-point
// criterion: for each record-boundary prefix of a real run journal —
// i.e. the coordinator killed immediately after any journal append —
// a resume dispatches only the missing shards and merges to bytes
// identical to the uninterrupted run. Merge's exact point-cover check
// makes any duplicated shard row a hard failure, so byte identity also
// proves zero duplicate-shard rows.
func TestResumeFromEveryRecordBoundary(t *testing.T) {
	path, want := journaledRun(t, 3)
	records, torn, err := journal.ReadAll(path)
	if err != nil || torn {
		t.Fatalf("reference journal: torn=%v err=%v", torn, err)
	}
	if len(records) < 5 {
		t.Fatalf("reference journal has only %d records", len(records))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// boundaries[i] = byte length of the first i+1 records.
	var boundaries []int
	for off, b := range data {
		if b == '\n' {
			boundaries = append(boundaries, off+1)
		}
	}
	if len(boundaries) != len(records) {
		t.Fatalf("%d boundaries vs %d records", len(boundaries), len(records))
	}

	for i, end := range boundaries {
		// A journal cut before the header can't resume (and Create's
		// fsync makes that window vanishingly small); start at 1 record.
		prefix := filepath.Join(t.TempDir(), "crash.journal")
		if err := os.WriteFile(prefix, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		got := resumeFrom(t, prefix)
		if !bytes.Equal(got, want) {
			t.Fatalf("resume from %d-record prefix: merged bytes differ from uninterrupted run", i+1)
		}
	}
}

// TestResumeFromTornFinalRecord: the journal's final record torn
// mid-line (the crash-during-append artifact) is discarded on load and
// the resumed run still merges byte-identical. Per-byte-offset
// equivalence of the recovered state is proven exhaustively in
// internal/fleet/journal; here representative offsets run the actual
// resume.
func TestResumeFromTornFinalRecord(t *testing.T) {
	path, want := journaledRun(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(data), "\n")
	cutAt := strings.LastIndexByte(body, '\n') + 1
	final := data[cutAt:]

	for _, cut := range []int{0, len(final) / 2, len(final) - 1} {
		torn := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(torn, data[:cutAt+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := runjournal.Load(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st.Torn != (cut > 0) {
			t.Fatalf("cut %d: torn=%v", cut, st.Torn)
		}
		if st.Merged {
			t.Fatalf("cut %d: truncated journal still reports merged", cut)
		}
		if got := resumeFrom(t, torn); !bytes.Equal(got, want) {
			t.Fatalf("resume from journal torn at offset %d diverges", cut)
		}
	}
}

// TestResumeRejectsForeignSpec: resuming with recorded partials under a
// different spec/config must fail loudly in the merge's identity
// checks, not silently mix studies. (The CLI additionally refuses on
// spec-hash mismatch before dispatching anything.)
func TestResumeRejectsForeignSpec(t *testing.T) {
	path, _ := journaledRun(t, 3)
	st, err := runjournal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w := startWorker(t)
	coord, err := New(Config{Workers: []string{w.URL}, Shards: st.Shards, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cfg := st.Config
	cfg.Seed = 12345 // a different run identity than the journal recorded
	if _, err := coord.Resume(st.Spec, cfg, st.Completed); err == nil {
		t.Fatal("resume under a different config merged recorded partials")
	}
}

// TestWeightedDispatchHonorsSlots: with a 3-slot and a 1-slot worker,
// sequential picks of pickWorker spread load by capacity — the big
// worker absorbs three dispatches for the small one's single — and
// stop at the fleet's four slots: a fifth task finds every worker busy
// until an outcome frees a slot. A worker registered without
// advertising slots has one.
func TestWeightedDispatchHonorsSlots(t *testing.T) {
	live := []WorkerRef{
		{ID: "big", Addr: "http://big", Slots: 3},
		{ID: "small", Addr: "http://small", Slots: 1},
	}
	load := map[string]int{}
	var picks []string
	for i := 0; i < 4; i++ {
		w, ok, _ := pickWorker(live, nil, load)
		if !ok {
			t.Fatalf("no worker picked with %v in flight", load)
		}
		picks = append(picks, w.ID)
		load[w.ID]++
	}
	if load["big"] != 3 || load["small"] != 1 {
		t.Fatalf("load split big=%d small=%d (picks %v), want 3/1", load["big"], load["small"], picks)
	}
	// Ties (both at zero load) break by registration order.
	if picks[0] != "big" {
		t.Fatalf("first pick %q, want registration-order tie-break to big", picks[0])
	}

	if w, ok, busy := pickWorker(live, nil, load); ok || !busy {
		t.Fatalf("full fleet: picked %q (ok=%v busy=%v), want none, busy", w.ID, ok, busy)
	}
	if _, ok, busy := pickWorker(live, map[string]bool{"big": true, "small": true}, load); ok || busy {
		t.Fatalf("every worker excluded: ok=%v busy=%v, want neither (the task backs off)", ok, busy)
	}
	load["small"]--
	if w, ok, _ := pickWorker(live, nil, load); !ok || w.ID != "small" {
		t.Fatalf("freed slot on small: picked %q (ok=%v)", w.ID, ok)
	}

	reg := NewRegistry(RegistryOptions{})
	if w := reg.Register("127.0.0.1:1", 0); w.Slots != 1 {
		t.Fatalf("worker registered without slots has %d, want 1", w.Slots)
	}
}

// TestResumeAlreadyMergedJournal: resuming a journal whose run already
// merged re-merges the recorded partials without any dispatch — the
// workers list can even be unreachable.
func TestResumeAlreadyMergedJournal(t *testing.T) {
	path, want := journaledRun(t, 3)
	st, err := runjournal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Merged {
		t.Fatal("reference journal not merged")
	}
	coord, err := New(Config{Workers: []string{"http://127.0.0.1:1"}, Shards: st.Shards, ShardTimeout: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	table, err := coord.Resume(st.Spec, st.Config, st.Completed)
	if err != nil {
		t.Fatal(err)
	}
	if got := formatTable(t, table); !bytes.Equal(got, want) {
		t.Fatal("re-merge of a completed journal diverges")
	}
}
