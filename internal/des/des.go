// Package des is a small deterministic discrete-event simulation kernel:
// a simulated clock and an event queue ordered by (time, insertion
// sequence). It stands in for the ModelNet emulation testbed the paper
// used for its Q/U experiments (§3): instead of emulating a WAN at packet
// level, the protocol simulation schedules message deliveries and
// processing completions as events on this kernel.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Simulator is a discrete-event simulator. The zero value is ready to
// use with a clock at 0.
type Simulator struct {
	now   float64
	seq   uint64
	queue eventHeap
}

type event struct {
	at  float64
	seq uint64 // FIFO tie-break for equal times → determinism
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current simulated time (milliseconds by convention in
// this library).
func (s *Simulator) Now() float64 { return s.now }

// Schedule queues fn to run after delay. Zero delays are allowed (the
// event runs after already-queued events at the same instant).
func (s *Simulator) Schedule(delay float64, fn func()) error {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("des: invalid delay %v", delay)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event function")
	}
	s.seq++
	heap.Push(&s.queue, event{at: s.now + delay, seq: s.seq, fn: fn})
	return nil
}

// Step runs the next event, if any, advancing the clock to its time. It
// reports whether an event ran.
func (s *Simulator) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(event)
	s.now = e.at
	e.fn()
	return true
}

// Run processes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}
