// Package par holds the one concurrency primitive the library needs: a
// parallel index loop. Sweeps, placement anchor searches, and
// experiment fan-outs all follow the same pattern — n independent units
// of work whose results land in index-addressed slots, so the outcome
// never depends on scheduling, and so never on how wide the loop runs.
//
// Pool width is this package's decision alone. The process holds one
// budget of GOMAXPROCS−1 helper goroutines. Each For runs on its caller
// plus as many helpers as it can take from the budget, up to n−1; it
// never waits for a free slot, and each helper returns its slot when it
// exits. A top-level loop is therefore GOMAXPROCS wide, while a loop
// nested inside another loop's body gets only the slots that are free —
// none, and it runs serially on its caller — so no caller needs to know
// whether it is nested. Operators bound parallelism with GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the live helper goroutines of every For in the process.
var helpers atomic.Int64

// For runs fn(i) for every i in [0, n) and returns when all calls have
// finished. fn receives each index exactly once, on the caller or on a
// helper taken from the process-wide budget; it must confine its writes
// to index-addressed slots (or synchronize otherwise). With no free
// slot, or n == 1, the calls arrive in index order on the caller.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	var wg sync.WaitGroup
	for h := 1; h < n && take(limit); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
}

// take claims one helper slot if fewer than limit are live.
func take(limit int64) bool {
	for {
		live := helpers.Load()
		if live >= limit {
			return false
		}
		if helpers.CompareAndSwap(live, live+1) {
			return true
		}
	}
}
