package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// TestCachedReadAllocs pins the point of Tenant.Encoded: a plan read
// from the per-publish cache allocates at least 10× less than encoding
// the plan per request, which is the work each read did before the
// cache and each cache miss still does.
func TestCachedReadAllocs(t *testing.T) {
	tenant, err := NewRegistry(Options{}).Open("t0", testManager(t, "allocs", 7))
	if err != nil {
		t.Fatal(err)
	}
	const reads = 1000
	cached := testing.AllocsPerRun(10, func() {
		for i := 0; i < reads; i++ {
			tenant.Encoded()
		}
	}) / reads
	cur := tenant.m.Current()
	marshal := testing.AllocsPerRun(10, func() {
		if _, err := json.MarshalIndent(planJSON(cur), "", "  "); err != nil {
			t.Fatal(err)
		}
	})
	// The cached read makes no allocation at all; floor it at the
	// measurement's resolution, one allocation across every read.
	cached = max(cached, 1.0/reads)
	t.Logf("allocations per read: cached %.3f, marshalled %.0f", cached, marshal)
	if marshal < 10*cached {
		t.Fatalf("cached read allocates %.3f times, marshalling %.0f: %.1fx, want >= 10x", cached, marshal, marshal/cached)
	}
}

// BenchmarkWatcherFanout measures one publish's fan-out over watchers ×
// tenants. Watchers are goroutines parked round-robin on the tenants'
// epoch channels, as the HTTP long-poll parks them minus the sockets,
// which is what lets one process hold a million. One op is one publish
// round: every tenant applies a demand delta concurrently, and every
// watcher wakes, reads the cached body and re-arms. The tenants are
// small closest-strategy deployments whose re-plan is sub-millisecond,
// so wake_last_ms (the slowest round's delta post to its last wakeup)
// is the fan-out cost.
func BenchmarkWatcherFanout(b *testing.B) {
	for _, watchers := range []int{10_000, 100_000, 1_000_000} {
		for _, tenants := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("watchers=%d/tenants=%d", watchers, tenants), func(b *testing.B) {
				benchFanout(b, watchers, tenants)
			})
		}
	}
}

func benchFanout(b *testing.B, nw, nt int) {
	reg := NewRegistry(Options{})
	tenants := make([]*Tenant, nt)
	for i := range tenants {
		var err error
		if tenants[i], err = reg.Open(fmt.Sprintf("t%d", i), testManager(b, fmt.Sprint(i), int64(7+i))); err != nil {
			b.Fatal(err)
		}
	}
	wake := make([]int64, nw) // when each watcher last woke
	var parked, round sync.WaitGroup
	parked.Add(nw)
	round.Add(nw)
	start := time.Now()
	for s := 0; s < nw; s++ {
		go func(s int, t *Tenant) {
			ch := t.Notify()
			parked.Done()
			for r := 0; r < b.N; r++ {
				<-ch
				wake[s] = time.Now().UnixNano()
				t.Encoded()
				ch = t.Notify() // re-arm before reporting, so no publish is lost
				round.Done()
			}
		}(s, tenants[s%nt])
	}
	parked.Wait()
	spawn := time.Since(start)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	posted := make([]int64, nt)
	errs := make([]error, nt)
	var last int64
	b.ResetTimer()
	for r := 0; r < b.N; r++ {
		if r > 0 {
			round.Add(nw)
		}
		var writers sync.WaitGroup
		for ti := range tenants {
			writers.Add(1)
			go func(ti int) {
				defer writers.Done()
				// Stamped before Apply: a stamp taken after it can land
				// after the wakeups the publish caused.
				posted[ti] = time.Now().UnixNano()
				_, errs[ti] = tenants[ti].m.Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: float64(9000 + 1000*r)}})
			}(ti)
		}
		writers.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		round.Wait()
		for s, w := range wake {
			last = max(last, w-posted[s%nt])
		}
		for ti, t := range tenants {
			if v := t.Encoded().Version; v != uint64(r+2) {
				b.Fatalf("round %d: tenant %d at version %d, want %d", r, ti, v, r+2)
			}
		}
	}
	b.ReportMetric(float64(spawn.Microseconds())/1e3, "spawn_ms")
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap_mb")
	b.ReportMetric(float64(last)/1e6, "wake_last_ms")
}
