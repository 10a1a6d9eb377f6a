package serve

import (
	"sync"
	"time"
)

// wheelGranularity is the deadline rounding of the shared long-poll
// wheel: every poll expiring inside the same bucket shares one timer
// and one channel close, so the live-timer count is bounded by
// MaxWait/granularity instead of the watcher count. Deadlines round
// UP, so a poll never times out before its requested duration.
const wheelGranularity = 100 * time.Millisecond

// wheel is the shared coarse-deadline source: after(d) returns a
// channel closed once d (rounded up to the bucket boundary) has
// elapsed. All tenants of a server share one wheel.
type wheel struct {
	gran time.Duration

	mu      sync.Mutex
	buckets map[int64]chan struct{}
}

func newWheel(gran time.Duration) *wheel {
	if gran <= 0 {
		gran = wheelGranularity
	}
	return &wheel{gran: gran, buckets: make(map[int64]chan struct{})}
}

// closedCh is the degenerate d <= 0 deadline: already expired.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// after returns a channel closed once at least d has elapsed. Polls
// landing in the same gran-wide bucket share the channel (and its one
// timer).
func (w *wheel) after(d time.Duration) <-chan struct{} {
	if d <= 0 {
		return closedCh
	}
	deadline := time.Now().Add(d).UnixNano()
	gran := int64(w.gran)
	slot := (deadline + gran - 1) / gran // ceil: never early

	w.mu.Lock()
	defer w.mu.Unlock()
	if ch, ok := w.buckets[slot]; ok {
		return ch
	}
	ch := make(chan struct{})
	w.buckets[slot] = ch
	time.AfterFunc(time.Duration(slot*gran-time.Now().UnixNano()), func() {
		close(ch)
		w.mu.Lock()
		delete(w.buckets, slot)
		w.mu.Unlock()
	})
	return ch
}
