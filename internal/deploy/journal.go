package deploy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/plan"
)

// Journal record types. The journal is a commit log of the deployment's
// applied delta batches: replaying it through a planner rebuilt with the
// same inputs reproduces the exact snapshot version and decision
// sequence, because the whole planning pipeline is deterministic —
// under the default solver profile (warm re-solves carried from batch
// to batch) as much as under plan.Config.Reproducible; the TestRecover*
// tests run over both.
const (
	jTypeHeader = "header"
	jTypeBatch  = "batch"
)

// journalRecord is one line of the deployment journal.
type journalRecord struct {
	Type string `json:"type"`

	// Header fields: the identity of the deployment the journal belongs
	// to. Recover refuses to replay a journal against a manager built
	// from different inputs — replay would silently diverge.
	Sites           int     `json:"sites,omitempty"`
	System          string  `json:"system,omitempty"`
	InitialResponse float64 `json:"initial_response,omitempty"`

	// Batch fields: the coalesced batch as applied, and the outcome the
	// replay must reproduce.
	Deltas []Delta `json:"deltas,omitempty"`
	// Version is the published snapshot version after the batch (the
	// standing version when the batch did not publish).
	Version uint64 `json:"version"`
	// Published is false for batches that dirtied nothing new.
	Published bool `json:"published"`
	// Decision is the adaptation decision of a published batch.
	Decision string `json:"decision,omitempty"`
	// Error records a re-plan failure (ErrReplan): the batch mutated the
	// deployment but produced no snapshot, and replay must fail the same
	// way.
	Error string `json:"error,omitempty"`
	// Applied is the cumulative applied-delta count after the batch.
	Applied int `json:"applied"`
}

// journalBatch appends the batch outcome to the journal, if one is
// attached. Called with mu held, after the batch took effect — the
// journal is a commit log, so a record's presence means the batch IS in
// force. A failed append is reported to the caller (the world and the
// journal have diverged; the operator must not trust the journal for
// recovery), but the batch itself stands.
func (m *Manager) journalBatch(rec journalRecord) error {
	if m.journal == nil {
		return nil
	}
	rec.Type = jTypeBatch
	if err := m.journal.AppendSync(rec); err != nil {
		return fmt.Errorf("deploy: batch applied but journal append failed (journal no longer replayable): %w", err)
	}
	return nil
}

// Recover builds a Manager whose applied batches are durable in a
// journal at path, replaying any batches already recorded there.
//
// The planner must be constructed exactly as it was for the journal's
// original manager (same topology, system, strategy, demand, solver
// profile — i.e. the daemon restarted with the same flags; GOMAXPROCS may
// differ): the journal stores only the delta batches, and determinism
// of the planning pipeline does the rest. A fresh path starts a new
// journal; an existing one is verified against the rebuilt deployment
// (site count, system, initial plan response) and replayed batch by
// batch, asserting that every re-plan reproduces the recorded version
// and decision. After a successful replay the manager's snapshot
// history — versions, decisions, ETags — is identical to the pre-crash
// manager's, and the journal is reopened for appending (a torn final
// line, the artifact of a crash mid-append, is discarded: its batch
// never committed).
//
// The returned int is the number of batches replayed (0 for a fresh
// journal).
func Recover(p *plan.Planner, cfg Config, path string) (*Manager, int, error) {
	m, err := New(p, cfg)
	if err != nil {
		return nil, 0, err
	}
	cur := m.Current().Snapshot
	header := journalRecord{
		Type:            jTypeHeader,
		Sites:           cur.Topology.Size(),
		System:          cur.System.Name(),
		InitialResponse: cur.Response,
	}

	records, _, err := journal.ReadAll(path)
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh journal: create it, stamp the identity header.
		w, cerr := journal.Create(path)
		if cerr != nil {
			return nil, 0, fmt.Errorf("deploy: create journal: %w", cerr)
		}
		if aerr := w.AppendSync(header); aerr != nil {
			w.Close()
			return nil, 0, fmt.Errorf("deploy: write journal header: %w", aerr)
		}
		m.journal = w
		return m, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: read journal: %w", err)
	}
	if len(records) == 0 {
		return nil, 0, fmt.Errorf("deploy: journal %s has no intact header record", path)
	}

	var got journalRecord
	if err := json.Unmarshal(records[0], &got); err != nil {
		return nil, 0, fmt.Errorf("deploy: journal header: %w", err)
	}
	if got.Type != jTypeHeader {
		return nil, 0, fmt.Errorf("deploy: journal %s starts with %q record, want header", path, got.Type)
	}
	if got.Sites != header.Sites || got.System != header.System || got.InitialResponse != header.InitialResponse {
		return nil, 0, fmt.Errorf(
			"deploy: journal belongs to a different deployment (journal: %d sites, system %s, initial response %.6g; rebuilt: %d sites, system %s, initial response %.6g) — restart with the original flags",
			got.Sites, got.System, got.InitialResponse, header.Sites, header.System, header.InitialResponse)
	}

	replayed := 0
	for i, raw := range records[1:] {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, 0, fmt.Errorf("deploy: journal record %d: %w", i+2, err)
		}
		if rec.Type != jTypeBatch {
			return nil, 0, fmt.Errorf("deploy: journal record %d: unexpected type %q", i+2, rec.Type)
		}
		diverged := func(format string, args ...interface{}) error {
			return fmt.Errorf("deploy: journal replay diverged at record %d: %s", i+2, fmt.Sprintf(format, args...))
		}
		entry, err := m.Apply(rec.Deltas) // m.journal is nil: replay does not re-journal
		switch {
		case rec.Error != "":
			if err == nil {
				return nil, 0, diverged("journal records re-plan failure %q but replay published version %d", rec.Error, entry.Snapshot.Version)
			}
			if !errors.Is(err, ErrReplan) {
				return nil, 0, diverged("journal records re-plan failure but replay failed differently: %v", err)
			}
		case err != nil:
			return nil, 0, diverged("journal records success at version %d but replay failed: %v", rec.Version, err)
		default:
			if entry.Snapshot.Version != rec.Version {
				return nil, 0, diverged("version %d, journal records %d", entry.Snapshot.Version, rec.Version)
			}
			if rec.Published && entry.Decision != rec.Decision {
				return nil, 0, diverged("decision %q, journal records %q", entry.Decision, rec.Decision)
			}
		}
		if m.applied != rec.Applied {
			return nil, 0, diverged("applied count %d, journal records %d", m.applied, rec.Applied)
		}
		replayed++
	}

	// Reopen for appending; Open truncates any torn tail the crash left.
	w, err := journal.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: reopen journal: %w", err)
	}
	m.journal = w
	return m, replayed, nil
}
