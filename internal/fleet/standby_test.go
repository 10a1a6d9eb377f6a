package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// executeShardLocally computes one shard's partial in-process — exactly
// the partial a worker would have returned, since execution is
// deterministic under Reproducible settings.
func executeShardLocally(t *testing.T, spec *scenario.Spec, cfg scenario.RunConfig, shard, shards int) *scenario.Partial {
	t.Helper()
	space, err := scenario.NewSpace(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := space.Shard(shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	p, err := part.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// deadPrimaryJournal writes the journal of a primary that died between
// protocol points: shard 0 dispatched and completed, shard 1 dispatched
// but never finished. All records carry the harness's fake clock.
func deadPrimaryJournal(t *testing.T, h *fleetHarness) string {
	t.Helper()
	spec, cfg := testSpec(), testCfg()
	path := filepath.Join(t.TempDir(), "run.journal")
	jr, err := runjournal.Create(path, spec, cfg, 2, runjournal.Options{Now: h.clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Dispatch(0, "e1-s0-a1", "w-dead"); err != nil {
		t.Fatal(err)
	}
	if err := jr.Complete(0, "e1-s0-a1", "w-dead", executeShardLocally(t, spec, cfg, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := jr.Dispatch(1, "e1-s1-a1", "w-dead"); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStandbyTakeoverByteIdentical is the takeover acceptance test: the
// primary dies holding shard 1 (its journal stops renewing, its
// dispatched job still running on a surviving worker), the standby
// detects the stale lease on the fake clock, takes over at epoch 2
// through the registry's surviving workers, and merges bytes identical
// to an uninterrupted run — with exactly one complete record per shard,
// the orphaned duplicate fenced out by its epoch-1 job id.
func TestStandbyTakeoverByteIdentical(t *testing.T) {
	h := newFleetHarness(t)
	spec, cfg := testSpec(), testCfg()
	path := deadPrimaryJournal(t, h)

	// The primary is dead: the fake clock moves past the lease TTL with
	// no journal activity.
	h.clock.Advance(10 * time.Second)

	// A surviving worker re-adopted through the registry — registered
	// after the advance so its heartbeat window is fresh. Its first
	// shard, the orphan below, holds in its "started" line until the
	// takeover has finished: the worker runs the takeover's shard beside
	// it at once.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	hold := holdStarted(started, release)
	var held atomic.Bool
	srv := httptest.NewServer(NewWorker(WorkerOptions{Logf: func(format string, args ...interface{}) {
		if strings.HasSuffix(format, "started") && held.CompareAndSwap(false, true) {
			hold(format, args...)
		}
	}}).Handler())
	t.Cleanup(srv.Close)
	survivor := h.reg.Register(srv.URL, 1)
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	// The dead primary's in-flight duplicate: its dispatch of shard 1
	// reached this worker and is still executing. Its response goes to
	// a caller outside the new epoch, so its result can only be
	// orphaned.
	body, err := json.Marshal(&ShardRequest{Spec: spec, Config: cfg, Shard: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	orphan := make(chan int, 1)
	go func() {
		code, _ := postShard(context.Background(), survivor.Addr, string(body))
		orphan <- code
	}()
	t.Cleanup(func() {
		if code := <-orphan; code != http.StatusOK {
			t.Errorf("orphan dispatch status %d", code)
		}
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("orphan dispatch never started")
	}

	sb, err := NewStandby(StandbyOptions{
		Journal:  path,
		LeaseTTL: 5 * time.Second,
		Now:      h.clock.Now,
		Coordinator: Config{
			Registry: h.reg,
			Logf:     t.Logf,
			OnEvent:  h.log.record,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, stale, err := sb.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !stale {
		t.Fatalf("lease %s old not declared stale", h.clock.Now().Sub(st.LastActivity))
	}
	if st.LeaseOwner != "coordinator" || st.Epoch != 1 || len(st.Completed) != 1 {
		t.Fatalf("pre-takeover state %+v", st)
	}

	table, err := sb.TakeOver(st)
	if err != nil {
		t.Fatal(err)
	}
	releaseOnce()
	h.assertByteIdentical(table)

	// The takeover's dispatches are epoch-2 fenced, on the survivor.
	for _, ev := range h.log.all() {
		if ev.Kind == EventDispatch {
			if !strings.HasPrefix(ev.AttemptID, "e2-") {
				t.Fatalf("takeover dispatch %+v not epoch-2 fenced", ev)
			}
			if ev.Worker != survivor.ID {
				t.Fatalf("takeover dispatched to %q, want surviving worker %s", ev.Worker, survivor.ID)
			}
		}
	}
	if n := h.log.count(EventDispatch); n != 1 {
		t.Fatalf("takeover made %d dispatches, want 1 (only shard 1 was missing)", n)
	}

	// The journal holds exactly one complete record per shard: shard 0
	// from the dead primary, shard 1 from epoch 2. The orphan's result
	// never reached it.
	records, torn, err := journal.ReadAll(path)
	if err != nil || torn {
		t.Fatalf("post-takeover journal: torn=%v err=%v", torn, err)
	}
	completesPerShard := map[int]int{}
	for _, raw := range records {
		var rec runjournal.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != runjournal.TypeComplete {
			continue
		}
		completesPerShard[rec.Shard]++
		switch rec.Shard {
		case 0:
			if rec.Epoch != 1 || rec.Worker != "w-dead" {
				t.Fatalf("shard 0 complete %+v, want the primary's record untouched", rec)
			}
		case 1:
			if rec.Epoch != 2 || !strings.HasPrefix(rec.AttemptID, "e2-") || rec.Worker != survivor.ID {
				t.Fatalf("shard 1 complete %+v, want an epoch-2 record from %s", rec, survivor.ID)
			}
		}
	}
	if completesPerShard[0] != 1 || completesPerShard[1] != 1 {
		t.Fatalf("complete records per shard %v, want exactly one each", completesPerShard)
	}

	st2, err := runjournal.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Merged || st2.Epoch != 2 || st2.LeaseOwner != "standby" {
		t.Fatalf("post-takeover state %+v", st2)
	}
}

// TestStandbyTakeoverFromEveryRecordBoundary: the primary killed
// immediately after any journal append (every record-boundary prefix
// of a real run journal) leaves a state the standby can take over —
// declared stale, resumed at the next epoch, merged byte-identical.
// The complete journal instead sends the standby home un-fenced.
func TestStandbyTakeoverFromEveryRecordBoundary(t *testing.T) {
	path, want := journaledRun(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int
	for off, b := range data {
		if b == '\n' {
			boundaries = append(boundaries, off+1)
		}
	}
	// The journal's timestamps are wall-clock (journaledRun uses the
	// default clock); an hour-ahead standby clock makes every unmerged
	// prefix stale without sleeping.
	farFuture := func() time.Time { return time.Now().Add(time.Hour) }

	for i, end := range boundaries {
		prefix := filepath.Join(t.TempDir(), "crash.journal")
		if err := os.WriteFile(prefix, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		w1, w2 := startWorker(t), startWorker(t)
		sb, err := NewStandby(StandbyOptions{
			Journal:     prefix,
			LeaseTTL:    5 * time.Second,
			Now:         farFuture,
			Coordinator: Config{Workers: []string{w1.URL, w2.URL}, Logf: t.Logf},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, stale, err := sb.Check()
		if err != nil {
			t.Fatalf("prefix of %d records: %v", i+1, err)
		}
		if st.Merged {
			if stale {
				t.Fatalf("prefix of %d records: merged run declared stale", i+1)
			}
			continue // the full journal: the standby stands down
		}
		if !stale {
			t.Fatalf("prefix of %d records: dead primary not declared stale", i+1)
		}
		table, err := sb.TakeOver(st)
		if err != nil {
			t.Fatalf("prefix of %d records: takeover: %v", i+1, err)
		}
		if got := formatTable(t, table); !bytes.Equal(got, want) {
			t.Fatalf("takeover from %d-record prefix: merged bytes differ from uninterrupted run", i+1)
		}
	}
}

// TestStandbyHealthyPrimaryNotStale: a lease within TTL is never
// stale, so a live primary is not fenced.
func TestStandbyHealthyPrimaryNotStale(t *testing.T) {
	h := newFleetHarness(t)
	path := deadPrimaryJournal(t, h)
	h.clock.Advance(2 * time.Second) // within the 5s TTL

	sb, err := NewStandby(StandbyOptions{
		Journal:     path,
		LeaseTTL:    5 * time.Second,
		Now:         h.clock.Now,
		Coordinator: Config{Registry: h.reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, stale, err := sb.Check(); err != nil || stale {
		t.Fatalf("healthy primary: stale=%v err=%v", stale, err)
	}
}

// TestStandbyStandsDownWhenMerged: a journal whose run already merged
// sends the standby home with (nil, nil) — no takeover, no dispatch.
func TestStandbyStandsDownWhenMerged(t *testing.T) {
	h := newFleetHarness(t)
	path, _ := journaledRun(t, 2)
	sb, err := NewStandby(StandbyOptions{
		Journal:     path,
		Now:         h.clock.Now,
		Coordinator: Config{Registry: h.reg, Logf: t.Logf},
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := sb.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if table != nil {
		t.Fatal("standby took over a merged run")
	}
}

func TestStandbyValidation(t *testing.T) {
	if _, err := NewStandby(StandbyOptions{Coordinator: Config{Workers: []string{"w"}}}); err == nil {
		t.Fatal("standby without a journal path accepted")
	}
	if _, err := NewStandby(StandbyOptions{Journal: "x.journal"}); err == nil {
		t.Fatal("standby without workers or registry accepted")
	}
}
