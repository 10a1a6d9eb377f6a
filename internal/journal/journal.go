// Package journal is the shared append-only JSON-lines log both
// control planes persist their state transitions to: the fleet
// coordinator's run journal (internal/fleet/journal) and the deployment
// manager's delta journal (internal/deploy). One record is one JSON
// object on one line; a record is durable once its line — written with
// a single write call so concurrent appenders never interleave — has
// been fsynced.
//
// Recovery reads the journal back tolerating exactly the failure the
// format invites: a crash mid-append leaves a torn final line (no
// terminating newline), which ReadAll discards and Open truncates
// before appending resumes. Anything else malformed — an invalid JSON
// object on a terminated line — is corruption, not a crash artifact,
// and is reported as an error rather than silently skipped.
//
// Fsync policy is the caller's: Append leaves the line in the OS page
// cache (cheap, batchable), and AppendSync forces it and everything
// appended before it to disk. Writers put the records whose
// loss merely costs recomputation (dispatch, lease renewals) through
// Append and the ones that carry results (completed partials, published
// versions) through AppendSync.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Writer appends JSON-line records to one journal file. Safe for
// concurrent use.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	dirty bool // appended since the last fsync
}

// Create makes a new journal at path, failing if the file already
// exists — a journal records one history; overwriting one is never
// recovery, always data loss.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	return &Writer{f: f}, nil
}

// Open reopens an existing journal for appending. A torn final line —
// the mark of a crash mid-append — is truncated away first, so the next
// Append starts a well-formed record instead of gluing onto the torn
// one.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	keep := int64(len(data))
	if cut := bytes.LastIndexByte(data, '\n'); cut < len(data)-1 {
		keep = int64(cut + 1) // cut == -1 (no newline at all) keeps 0
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Writer{f: f}, nil
}

// Append marshals v and appends it as one line with a single write
// call. The line reaches the OS but not necessarily the disk; use
// AppendSync for durability barriers.
func (w *Writer) Append(v interface{}) error {
	return w.append(v, false)
}

// AppendSync appends like Append and then fsyncs, so the record — and
// every batched record before it — is durable when it returns.
func (w *Writer) AppendSync(v interface{}) error {
	return w.append(v, true)
}

func (w *Writer) append(v interface{}, sync bool) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshaling record: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer closed")
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	w.dirty = true
	if sync {
		return w.syncLocked()
	}
	return nil
}

func (w *Writer) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.dirty = false
	return nil
}

// Close syncs and closes the journal.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ReadAll reads a journal's records in order. A torn final line — bytes
// after the last newline, the signature of a crash mid-append — is
// discarded and reported through torn; the records before it are intact
// by the append protocol. A terminated line that is not a JSON object
// cannot be produced by a torn append and is an error.
func ReadAll(path string) (records []json.RawMessage, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("journal: read %s: %w", path, err)
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return records, true, nil // torn final line: discard
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			return nil, false, fmt.Errorf("journal: %s: record %d is blank", path, len(records))
		}
		if !json.Valid(line) {
			return nil, false, fmt.Errorf("journal: %s: record %d is not valid JSON (corrupt journal, not a torn tail)", path, len(records))
		}
		records = append(records, json.RawMessage(append([]byte(nil), line...)))
	}
	return records, false, nil
}
