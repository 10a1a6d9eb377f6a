package deploy

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/plan"
)

// bothProfiles runs f on the shared fixture's plan.Config under the
// default and the reproducible solver profile: replay ≡ live is a
// property of the pipeline, not a mode the journal switches on.
func bothProfiles(t *testing.T, f func(t *testing.T, pcfg plan.Config)) {
	for _, repro := range []bool{false, true} {
		pcfg := deployPlanConfig()
		pcfg.Reproducible = repro
		name := "default"
		if repro {
			name = "reproducible"
		}
		t.Run(name, func(t *testing.T) { f(t, pcfg) })
	}
}

// recoverManager builds a fresh planner from the shared fixtures and
// Recovers a manager from path — exactly what a restarted quorumd does.
func recoverManager(t *testing.T, pcfg plan.Config, cfg Config, path string) (*Manager, int) {
	t.Helper()
	p, err := plan.New(deployTopo(t), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, n, err := Recover(p, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	return m, n
}

// journalBatches drives a journaled manager through every batch outcome
// the journal must reproduce: published re-plans (eval-only and
// placement-dirtying), a no-publish batch, and a failed re-plan whose
// deltas are nevertheless in force.
func journalBatches(t *testing.T, m *Manager) {
	t.Helper()
	site := m.Current().Snapshot.Topology.Site(0).Name
	mustApply := func(ds []Delta) {
		t.Helper()
		if _, err := m.Apply(ds); err != nil {
			t.Fatal(err)
		}
	}
	mustApply([]Delta{{Kind: KindDemand, Value: 9000}})
	mustApply([]Delta{{Kind: KindWeights, Weights: map[string]float64{site: 3}}})
	mustApply([]Delta{{Kind: KindCapacity, Site: site, Value: 2.5}})
	// Same demand again: alpha unchanged, nothing dirtied, no publish.
	if _, err := m.Apply([]Delta{{Kind: KindDemand, Value: 9000}}); err != nil {
		t.Fatal(err)
	}
	// Starve every site: the strategy LP goes infeasible, the batch is in
	// force but unplannable.
	if _, err := m.Apply([]Delta{{Kind: KindUniformCapacity, Value: 1e-9}}); !errors.Is(err, ErrReplan) {
		t.Fatalf("starvation batch: %v, want ErrReplan", err)
	}
	// Recovery batch: capacity restored, planning resumes.
	mustApply([]Delta{{Kind: KindUniformCapacity, Value: 2}})
}

type historyRow struct {
	Version  uint64
	Decision string
	Applied  int
	Response float64
}

func historyRows(m *Manager) []historyRow {
	var rows []historyRow
	for _, e := range m.History() {
		rows = append(rows, historyRow{e.Snapshot.Version, e.Decision, e.Applied, e.Snapshot.Response})
	}
	return rows
}

// TestRecoverFreshJournal: a new path starts a journal with an identity
// header, and applied batches land in it durably.
func TestRecoverFreshJournal(t *testing.T) { bothProfiles(t, testRecoverFreshJournal) }

func testRecoverFreshJournal(t *testing.T, pcfg plan.Config) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	m, n := recoverManager(t, pcfg, Config{}, path)
	if n != 0 {
		t.Fatalf("fresh journal replayed %d batches", n)
	}
	site := m.Current().Snapshot.Topology.Site(0).Name
	if _, err := m.Apply([]Delta{{Kind: KindCapacity, Site: site, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	// Every append is synced; the records are durable without a Close.
	records, torn, err := journal.ReadAll(path)
	if err != nil || torn {
		t.Fatalf("journal: torn=%v err=%v", torn, err)
	}
	if len(records) != 2 {
		t.Fatalf("journal has %d records, want header + 1 batch", len(records))
	}
	var header journalRecord
	if err := json.Unmarshal(records[0], &header); err != nil {
		t.Fatal(err)
	}
	if header.Type != jTypeHeader || header.Sites != 18 || header.System == "" {
		t.Fatalf("header %+v", header)
	}
	if err := m.journal.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverReplaysIdenticalHistory is the crash/restart acceptance
// test at the manager level: a journaled manager applies every batch
// outcome, the process "dies" (the manager is simply abandoned — each
// record was fsynced at apply time), and a second Recover with an
// identically-built planner replays to the exact same version, decision,
// response, and applied-count history. The restarted manager keeps
// journaling: its next batch publishes the next version.
func TestRecoverReplaysIdenticalHistory(t *testing.T) {
	bothProfiles(t, testRecoverReplaysIdenticalHistory)
}

func testRecoverReplaysIdenticalHistory(t *testing.T, pcfg plan.Config) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	m1, _ := recoverManager(t, pcfg, Config{}, path)
	journalBatches(t, m1)
	want := historyRows(m1)
	// m1 is abandoned un-closed: the crash.

	m2, n := recoverManager(t, pcfg, Config{}, path)
	if n != 6 {
		t.Fatalf("replayed %d batches, want 6", n)
	}
	got := historyRows(m2)
	if len(got) != len(want) {
		t.Fatalf("history length %d after recovery, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history[%d] = %+v after recovery, want %+v", i, got[i], want[i])
		}
	}

	// The recovered manager appends where the dead one left off.
	before := m2.Current().Snapshot.Version
	if _, err := m2.Apply([]Delta{{Kind: KindDemand, Value: 12000}}); err != nil {
		t.Fatal(err)
	}
	if v := m2.Current().Snapshot.Version; v <= before {
		t.Fatalf("post-recovery apply went from version %d to %d", before, v)
	}
	records, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+6+1 {
		t.Fatalf("journal has %d records, want header + 7 batches", len(records))
	}
}

// TestRecoverTornTailDiscarded: a crash mid-append leaves a torn final
// line; its batch never committed (the append happens before Apply
// returns), so recovery discards it and replays the intact prefix.
func TestRecoverTornTailDiscarded(t *testing.T) { bothProfiles(t, testRecoverTornTailDiscarded) }

func testRecoverTornTailDiscarded(t *testing.T, pcfg plan.Config) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	m1, _ := recoverManager(t, pcfg, Config{}, path)
	journalBatches(t, m1)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"batch","deltas":[{"kind":"demand","va`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, n := recoverManager(t, pcfg, Config{}, path)
	if n != 6 {
		t.Fatalf("replayed %d batches, want the 6 intact ones", n)
	}
	// The reopened journal truncated the torn tail: a new batch appends a
	// clean record.
	if _, err := m2.Apply([]Delta{{Kind: KindDemand, Value: 12000}}); err != nil {
		t.Fatal(err)
	}
	if records, torn, err := journal.ReadAll(path); err != nil || torn || len(records) != 8 {
		t.Fatalf("post-recovery journal: %d records torn=%v err=%v, want 8 clean", len(records), torn, err)
	}
}

// TestRecoverRejectsForeignDeployment: a journal replayed against a
// deployment rebuilt with different flags is refused at the header.
func TestRecoverRejectsForeignDeployment(t *testing.T) {
	bothProfiles(t, testRecoverRejectsForeignDeployment)
}

func testRecoverRejectsForeignDeployment(t *testing.T, pcfg plan.Config) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	m, _ := recoverManager(t, pcfg, Config{}, path)
	journalBatches(t, m)

	pcfg.Demand = 4000 // restarted with the wrong -demand flag
	p, err := plan.New(deployTopo(t), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(p, Config{}, path); err == nil || !strings.Contains(err.Error(), "different deployment") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

// TestRecoverDetectsDivergedReplay: a tampered batch record (its
// recorded version no longer matches what deterministic replay
// produces) fails recovery loudly instead of serving a silently wrong
// history.
func TestRecoverDetectsDivergedReplay(t *testing.T) {
	bothProfiles(t, testRecoverDetectsDivergedReplay)
}

func testRecoverDetectsDivergedReplay(t *testing.T, pcfg plan.Config) {
	path := filepath.Join(t.TempDir(), "deploy.journal")
	m, _ := recoverManager(t, pcfg, Config{}, path)
	journalBatches(t, m)

	records, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, raw := range records {
		if i == 1 { // the first batch record
			var rec journalRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Version += 7
			raw, err = json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
		}
		lines = append(lines, string(raw))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := plan.New(deployTopo(t), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(p, Config{}, path); err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("tampered journal accepted: %v", err)
	}
}
