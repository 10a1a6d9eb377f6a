package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one delta
// batch share its sequence number as Trace; Parent is the ID of the
// span that caused this one, or -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans in memory; they are written out once, when the
// run ends. A nil tracer records nothing, which is how untraced runs
// share the traced runs' code. Not safe for concurrent use: spans are
// recorded by the goroutine that drives the run, after the fact for
// intervals other goroutines measured.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished interval and returns its span ID.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// time runs fn inside a span and returns the span ID and fn's duration
// in milliseconds.
func (t *tracer) time(name string, trace, parent int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, trace, parent, start, end), ms(end.Sub(start))
}

// durations returns the length in milliseconds of every span with the
// given name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part its direct children cover, in milliseconds. Children
// of one parent are sequential calls here, so their lengths add up.
func (t *tracer) selfTimes(name string) []float64 {
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS-covered[s.ID])/1e6)
		}
	}
	return out
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
