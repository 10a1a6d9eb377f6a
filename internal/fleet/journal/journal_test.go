package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

func jSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:       "journal-test",
		Kind:       scenario.KindEval,
		Systems:    []scenario.SystemAxis{{Family: "grid", Params: []int{2}}},
		Demands:    []float64{0},
		Strategies: []string{"closest"},
		Measures:   []string{"response"},
	}
}

func jConfig() scenario.RunConfig {
	return scenario.RunConfig{Reproducible: true}
}

func jPartial(shard, shards int) *scenario.Partial {
	return &scenario.Partial{
		Scenario: "journal-test",
		Config:   jConfig(),
		Shard:    shard,
		Shards:   shards,
		Points:   []int{shard},
		Tags:     []scenario.RowTag{{Point: shard, Seq: 0}},
	}
}

// tick is a manual clock for deterministic lease timestamps.
type tick struct{ t time.Time }

func newTick() *tick                    { return &tick{t: time.Unix(1000, 0)} }
func (c *tick) Now() time.Time          { return c.t }
func (c *tick) Advance(d time.Duration) { c.t = c.t.Add(d) }

func TestRunJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	clk := newTick()
	r, err := Create(path, jSpec(), jConfig(), 3, Options{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("fresh journal epoch %d, want 1", r.Epoch())
	}
	clk.Advance(time.Second)
	if err := r.Dispatch(0, "e1-s0-a1", "w-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Dispatch(1, "e1-s1-a1", "w-2"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := r.Complete(1, "e1-s1-a1", "w-2", jPartial(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantHash, _ := jSpec().Hash()
	if st.SpecHash != wantHash {
		t.Fatalf("spec hash %s, want %s", st.SpecHash, wantHash)
	}
	if st.Shards != 3 || st.Epoch != 1 || st.Merged || st.Torn {
		t.Fatalf("state %+v", st)
	}
	if st.Config != jConfig() {
		t.Fatalf("config %+v", st.Config)
	}
	if len(st.Completed) != 1 || !reflect.DeepEqual(st.Completed[1], jPartial(1, 3)) {
		t.Fatalf("completed %+v", st.Completed)
	}
	if st.LeaseOwner != "coordinator" {
		t.Fatalf("lease owner %q", st.LeaseOwner)
	}
	if want := time.Unix(1002, 0); !st.LastActivity.Equal(want) {
		t.Fatalf("last activity %v, want %v", st.LastActivity, want)
	}
}

func TestContinueAdvancesEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	clk := newTick()
	r, err := Create(path, jSpec(), jConfig(), 2, Options{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(0, "e1-s0-a1", "w-1", jPartial(0, 2)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	r2, err := Continue(path, st, Options{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch() != 2 {
		t.Fatalf("continued epoch %d, want 2", r2.Epoch())
	}
	if err := r2.Complete(1, "e2-s1-a1", "w-3", jPartial(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Merged(2); err != nil {
		t.Fatal(err)
	}
	r2.Close()

	st2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch != 2 || st2.LeaseOwner != "standby" || !st2.Merged {
		t.Fatalf("state after takeover %+v", st2)
	}
	if len(st2.Completed) != 2 {
		t.Fatalf("completed %d shards, want 2", len(st2.Completed))
	}
}

// TestFirstCompleteWins: a dead primary's duplicate complete landing
// after the new epoch's must not displace the recorded result.
func TestFirstCompleteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	r, err := Create(path, jSpec(), jConfig(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := jPartial(0, 2)
	first.Points = []int{0}
	if err := r.Complete(0, "e1-s0-a1", "w-1", first); err != nil {
		t.Fatal(err)
	}
	dup := jPartial(0, 2)
	dup.Tags = []scenario.RowTag{{Point: 0, Seq: 99}} // distinguishable
	if err := r.Complete(0, "e1-s0-a2", "w-2", dup); err != nil {
		t.Fatal(err)
	}
	r.Close()

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Completed[0]; !reflect.DeepEqual(got, first) {
		t.Fatalf("duplicate complete displaced the first: %+v", got)
	}
}

func TestLoadRejectsTamperedSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	r, err := Create(path, jSpec(), jConfig(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"journal-test"`, `"other-study"`, 1)
	if edited == string(data) {
		t.Fatal("fixture: spec name not found in journal")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "spec hash") {
		t.Fatalf("tampered journal loaded: %v", err)
	}
}

// TestTornFinalRecordEveryOffset is the torn-write satellite at the
// journal layer: truncate the journal mid-line at every byte offset of
// the final record and assert recovery discards only that record —
// the loaded state deep-equals the state of the journal without it.
func TestTornFinalRecordEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	clk := newTick()
	r, err := Create(path, jSpec(), jConfig(), 3, Options{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := r.Dispatch(0, "e1-s0-a1", "w-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(0, "e1-s0-a1", "w-1", jPartial(0, 3)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := r.Complete(2, "e1-s2-a1", "w-2", jPartial(2, 3)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(data), "\n")
	cutAt := strings.LastIndexByte(body, '\n') + 1 // start of the final record
	prefix := data[:cutAt]
	final := data[cutAt:]

	// The reference state: the journal minus its final record.
	ref := filepath.Join(dir, "ref.journal")
	if err := os.WriteFile(ref, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Load(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Completed) != 1 {
		t.Fatalf("reference keeps %d completes, want 1", len(want.Completed))
	}

	for cut := 0; cut < len(final); cut++ {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, append(append([]byte(nil), prefix...), final[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantTorn := cut > 0
		if got.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, got.Torn, wantTorn)
		}
		got.Torn = want.Torn // compare everything else exactly
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: recovered state diverges:\n%+v\nvs\n%+v", cut, got, want)
		}
		if err := os.Remove(torn); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Fatal("empty journal loaded")
	}
	noHeader := filepath.Join(dir, "nohdr.journal")
	if err := os.WriteFile(noHeader, []byte(`{"type":"lease","owner":"x","epoch":1,"t":5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(noHeader); err == nil {
		t.Fatal("headerless journal loaded")
	}
}
