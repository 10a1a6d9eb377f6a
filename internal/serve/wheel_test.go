package serve

import (
	"testing"
	"time"
)

// TestWheelNeverEarly: deadlines round up to the bucket boundary, so a
// wait never expires before its requested duration.
func TestWheelNeverEarly(t *testing.T) {
	w := newWheel(20 * time.Millisecond)
	start := time.Now()
	ch := w.after(30 * time.Millisecond)
	<-ch
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("wheel fired after %v, want >= 30ms", elapsed)
	}
}

// TestWheelSharesBuckets: waits landing in the same bucket share one
// channel (one timer for any number of watchers).
func TestWheelSharesBuckets(t *testing.T) {
	// Buckets are aligned to the epoch, so two waits straddle a boundary
	// only if one falls between their deadlines: equal waits issued back
	// to back are nanoseconds apart, where a minute apart failed in the
	// last minutes of every hour.
	w := newWheel(time.Hour)
	ch1 := w.after(time.Minute)
	ch2 := w.after(time.Minute)
	if ch1 != ch2 {
		t.Fatal("same-bucket waits got distinct channels")
	}
	w.mu.Lock()
	n := len(w.buckets)
	w.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d live buckets, want 1", n)
	}
}

// TestWheelZero: a non-positive wait is already expired.
func TestWheelZero(t *testing.T) {
	w := newWheel(0)
	select {
	case <-w.after(0):
	default:
		t.Fatal("after(0) not immediately expired")
	}
	select {
	case <-w.after(-time.Second):
	default:
		t.Fatal("after(-1s) not immediately expired")
	}
}

// TestWheelBucketCleanup: fired buckets are deleted, so the map stays
// bounded by the in-flight horizon.
func TestWheelBucketCleanup(t *testing.T) {
	w := newWheel(5 * time.Millisecond)
	<-w.after(10 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		n := len(w.buckets)
		w.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d buckets still live after firing", n)
		}
		time.Sleep(time.Millisecond)
	}
}
