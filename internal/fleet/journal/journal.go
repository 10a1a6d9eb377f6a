// Package journal is the fleet coordinator's run journal: one
// append-only JSON-lines file (internal/journal format) recording every
// state transition of a sharded study, durable enough that a crashed
// coordinator's run resumes from the journal alone.
//
// Record types, in protocol order:
//
//	header    — spec hash, the spec itself, the run's
//	            scenario.RunConfig, shard count. Written once at
//	            Create; everything a resume needs to rebuild the run is
//	            inlined, so -resume takes only the journal path.
//	lease     — "a coordinator with this owner label and epoch is
//	            alive at t". A writer opened by Create stamps every
//	            record "coordinator"; one opened by Continue — a
//	            standby's takeover, or quorumbench -resume, which is
//	            the same takeover at once — stamps "standby". Each
//	            writer stamps one lease when it opens and renews it
//	            during quiet stretches; a standby declares the primary
//	            dead when the newest stamped record is older than its
//	            lease TTL.
//	dispatch  — shard s handed to worker w as attempt id a. Not fsynced:
//	            losing a dispatch record merely costs a re-dispatch.
//	complete  — shard s finished; the scenario.Partial is inlined.
//	            Fsynced: this is the record whose loss costs real work.
//	merged    — the run merged successfully (row count recorded).
//
// Fencing is first-complete-wins: Load keeps the first complete record
// per shard and ignores later ones, so a dead primary's in-flight
// duplicate landing after a takeover cannot displace the result the new
// epoch already recorded. Epochs are generation numbers: Continue opens
// the journal at max-seen-epoch+1, and attempt ids carry the epoch
// ("e2-s1-a1"), making a takeover's dispatches distinguishable from the
// dead primary's in every event stream and error message.
package journal

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// Record is one journal line. Type selects which fields are meaningful;
// the rest stay at their zero values and are omitted from the JSON.
type Record struct {
	Type string `json:"type"`

	// header fields
	SpecHash string              `json:"spec_hash,omitempty"`
	Spec     *scenario.Spec      `json:"spec,omitempty"`
	Config   *scenario.RunConfig `json:"config,omitempty"`
	Shards   int                 `json:"shards,omitempty"`

	// lease fields (Owner/Epoch also stamp dispatch/complete/merged)
	Owner  string `json:"owner,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`
	TimeNS int64  `json:"t,omitempty"`

	// dispatch/complete fields
	Shard     int               `json:"shard"`
	AttemptID string            `json:"attempt_id,omitempty"`
	Worker    string            `json:"worker,omitempty"`
	Partial   *scenario.Partial `json:"partial,omitempty"`

	// merged fields
	Rows int `json:"rows,omitempty"`
}

// Record types.
const (
	TypeHeader   = "header"
	TypeLease    = "lease"
	TypeDispatch = "dispatch"
	TypeComplete = "complete"
	TypeMerged   = "merged"
)

// Options configures a run journal writer.
type Options struct {
	// Now supplies lease timestamps; tests inject fake clocks. Defaults
	// to time.Now.
	Now func() time.Time
}

// The owner labels stamped on every record: the coordinator that
// created the run, and every generation that continues it — a standby
// taking over a stale lease, or quorumbench -resume, which is the same
// takeover without the wait.
const (
	createOwner   = "coordinator"
	continueOwner = "standby"
)

func (o Options) now() time.Time {
	if o.Now == nil {
		return time.Now()
	}
	return o.Now()
}

// Run appends a coordinator's state transitions to its journal. Safe
// for concurrent use — the lease ticker renews from its own goroutine
// while the dispatcher journals.
type Run struct {
	w     *journal.Writer
	opts  Options
	owner string
	epoch int

	mu   sync.Mutex
	last time.Time // newest timestamp stamped by this writer
}

// Create starts a new run journal at path: header (spec inlined + spec
// hash + run config + shard count) and the epoch-1 lease stamped
// createOwner, fsynced before returning so the run is resumable from
// its very first dispatch.
func Create(path string, spec *scenario.Spec, cfg scenario.RunConfig, shards int, opts Options) (*Run, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	w, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	r := &Run{w: w, opts: opts, owner: createOwner, epoch: 1}
	if err := w.Append(Record{
		Type:     TypeHeader,
		SpecHash: hash,
		Spec:     spec,
		Config:   &cfg,
		Shards:   shards,
	}); err != nil {
		w.Close()
		return nil, err
	}
	if err := r.Lease(); err != nil {
		w.Close()
		return nil, err
	}
	return r, nil
}

// Continue reopens an existing run journal for a new coordinator
// generation: any torn tail is truncated, the epoch advances past every
// epoch the journal has seen, and the new generation's lease, stamped
// continueOwner, is fsynced before returning — from that record on, the
// journal's authority is the new generation.
func Continue(path string, st *State, opts Options) (*Run, error) {
	w, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Run{w: w, opts: opts, owner: continueOwner, epoch: st.Epoch + 1}
	if err := r.Lease(); err != nil {
		w.Close()
		return nil, err
	}
	return r, nil
}

// Epoch is this writer's coordinator generation.
func (r *Run) Epoch() int { return r.epoch }

func (r *Run) stamp(rec Record) Record {
	rec.Owner = r.owner
	rec.Epoch = r.epoch
	now := r.opts.now()
	rec.TimeNS = now.UnixNano()
	r.mu.Lock()
	if now.After(r.last) {
		r.last = now
	}
	r.mu.Unlock()
	return rec
}

// Lease renews this coordinator's claim on the run. Fsynced: a lease
// only works as a liveness signal if it is on disk when the standby
// looks.
func (r *Run) Lease() error {
	return r.w.AppendSync(r.stamp(Record{Type: TypeLease}))
}

// RenewLease appends a lease only if at least interval has passed since
// this writer's newest stamped record — every dispatch and complete
// already proves liveness, so quiet stretches are the only time a
// renewal buys anything.
func (r *Run) RenewLease(interval time.Duration) error {
	r.mu.Lock()
	due := r.opts.now().Sub(r.last) >= interval
	r.mu.Unlock()
	if !due {
		return nil
	}
	return r.Lease()
}

// Dispatch records shard handed to worker as attemptID. Not fsynced —
// batched behind the next Complete/Lease; a lost dispatch record costs
// only a redundant re-dispatch on resume.
func (r *Run) Dispatch(shard int, attemptID, worker string) error {
	return r.w.Append(r.stamp(Record{
		Type:      TypeDispatch,
		Shard:     shard,
		AttemptID: attemptID,
		Worker:    worker,
	}))
}

// Complete records a shard's finished Partial. Fsynced: once this
// returns, the shard survives any crash.
func (r *Run) Complete(shard int, attemptID, worker string, p *scenario.Partial) error {
	return r.w.AppendSync(r.stamp(Record{
		Type:      TypeComplete,
		Shard:     shard,
		AttemptID: attemptID,
		Worker:    worker,
		Partial:   p,
	}))
}

// Merged records the run's successful merge. Fsynced.
func (r *Run) Merged(rows int) error {
	return r.w.AppendSync(r.stamp(Record{Type: TypeMerged, Rows: rows}))
}

// Close flushes and closes the journal.
func (r *Run) Close() error { return r.w.Close() }

// State is a run journal read back: everything a resume or standby
// takeover needs.
type State struct {
	SpecHash string
	Spec     *scenario.Spec
	Config   scenario.RunConfig
	Shards   int
	// Completed holds the first complete record per shard —
	// first-complete-wins is the fencing rule that makes a dead
	// primary's late duplicate harmless.
	Completed map[int]*scenario.Partial
	// Epoch is the highest coordinator generation seen; Continue starts
	// the next generation at Epoch+1.
	Epoch int
	// LeaseOwner is the owner of the newest stamped record.
	LeaseOwner string
	// LastActivity is the newest timestamp stamped on any record — the
	// staleness signal standbys compare against their lease TTL.
	LastActivity time.Time
	// Merged reports whether the run already merged.
	Merged bool
	// Torn reports whether a torn final line was discarded.
	Torn bool
}

// Load reads a run journal back into a State, discarding a torn final
// line and verifying the header's spec hash against the inlined spec.
func Load(path string) (*State, error) {
	raw, torn, err := journal.ReadAll(path)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("run journal %s: empty (no intact header)", path)
	}
	st := &State{Completed: make(map[int]*scenario.Partial), Torn: torn}
	for i, line := range raw {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("run journal %s: record %d: %w", path, i, err)
		}
		if i == 0 {
			if rec.Type != TypeHeader {
				return nil, fmt.Errorf("run journal %s: first record is %q, want header", path, rec.Type)
			}
			if rec.Spec == nil || rec.Config == nil || rec.Shards <= 0 {
				return nil, fmt.Errorf("run journal %s: malformed header", path)
			}
			hash, err := rec.Spec.Hash()
			if err != nil {
				return nil, fmt.Errorf("run journal %s: %w", path, err)
			}
			if hash != rec.SpecHash {
				return nil, fmt.Errorf("run journal %s: spec hash %s does not match inlined spec (%s) — corrupt or edited journal", path, rec.SpecHash, hash)
			}
			st.SpecHash = rec.SpecHash
			st.Spec = rec.Spec
			st.Config = *rec.Config
			st.Shards = rec.Shards
			continue
		}
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
		if rec.TimeNS != 0 {
			at := time.Unix(0, rec.TimeNS)
			if at.After(st.LastActivity) {
				st.LastActivity = at
				st.LeaseOwner = rec.Owner
			}
		}
		switch rec.Type {
		case TypeLease, TypeDispatch:
			// Liveness/progress only; state captured above.
		case TypeComplete:
			if rec.Partial == nil {
				return nil, fmt.Errorf("run journal %s: record %d: complete without partial", path, i)
			}
			if rec.Shard < 0 || rec.Shard >= st.Shards {
				return nil, fmt.Errorf("run journal %s: record %d: shard %d out of range [0,%d)", path, i, rec.Shard, st.Shards)
			}
			if _, dup := st.Completed[rec.Shard]; !dup { // first-complete-wins
				st.Completed[rec.Shard] = rec.Partial
			}
		case TypeMerged:
			st.Merged = true
		case TypeHeader:
			return nil, fmt.Errorf("run journal %s: record %d: duplicate header", path, i)
		default:
			return nil, fmt.Errorf("run journal %s: record %d: unknown type %q", path, i, rec.Type)
		}
	}
	if st.Epoch == 0 {
		st.Epoch = 1 // header-only journal: the creating coordinator was epoch 1
	}
	return st, nil
}
