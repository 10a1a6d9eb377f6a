package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quorumnet/quorumnet/internal/par/partest"
)

// peak is a high-water mark of live helpers, sampled inside loop bodies.
type peak struct{ max atomic.Int64 }

func (p *peak) sample() {
	live := helpers.Load()
	for {
		m := p.max.Load()
		if live <= m || p.max.CompareAndSwap(m, live) {
			return
		}
	}
}

// check fails the test if any index ran other than exactly once, or if
// more helpers were ever live than the budget allows.
func (p *peak) check(t *testing.T, ctx string, counts []atomic.Int32) {
	t.Helper()
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("%s: index %d ran %d times", ctx, i, got)
		}
	}
	if limit := int64(runtime.GOMAXPROCS(0) - 1); p.max.Load() > limit {
		t.Fatalf("%s: %d helpers live, budget is %d", ctx, p.max.Load(), limit)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 7} {
		partest.SetGOMAXPROCS(t, width)
		for _, n := range []int{0, 1, 5, 64} {
			var p peak
			counts := make([]atomic.Int32, n)
			For(n, func(i int) {
				p.sample()
				runtime.Gosched()
				counts[i].Add(1)
			})
			p.check(t, "top level", counts)
		}
	}
}

func TestForNestedTwoDeep(t *testing.T) {
	const a, b, c = 6, 5, 4
	for _, width := range []int{1, 2, 7} {
		partest.SetGOMAXPROCS(t, width)
		var p peak
		counts := make([]atomic.Int32, a*b*c)
		For(a, func(i int) {
			For(b, func(j int) {
				For(c, func(k int) {
					p.sample()
					runtime.Gosched()
					counts[(i*b+j)*c+k].Add(1)
				})
			})
		})
		p.check(t, "nested", counts)
	}
}

func TestForConcurrentCallers(t *testing.T) {
	const callers, n = 8, 50
	for _, width := range []int{1, 2, 7} {
		partest.SetGOMAXPROCS(t, width)
		var p peak
		counts := make([]atomic.Int32, callers*n)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(n, func(i int) {
					p.sample()
					runtime.Gosched()
					counts[c*n+i].Add(1)
				})
			}()
		}
		wg.Wait()
		p.check(t, "concurrent callers", counts)
	}
}

func TestTopLevelForIsGOMAXPROCSWide(t *testing.T) {
	// Every call blocks until all four are in flight at once, which
	// only a four-wide loop can satisfy.
	const width = 4
	partest.SetGOMAXPROCS(t, width)
	var inFlight atomic.Int32
	var stuck atomic.Bool
	For(width, func(int) {
		inFlight.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for inFlight.Load() < width {
			if time.Now().After(deadline) {
				stuck.Store(true)
				return
			}
			runtime.Gosched()
		}
	})
	if stuck.Load() {
		t.Fatalf("a top-level loop of %d never had %d calls in flight", width, width)
	}
	if live := helpers.Load(); live != 0 {
		t.Fatalf("%d helper slots still held after For returned", live)
	}
}

func TestForSerialAtOneProc(t *testing.T) {
	// With no helper slots the calls, nested ones included, arrive in
	// index order on the calling goroutine.
	partest.SetGOMAXPROCS(t, 1)
	var order []int
	For(3, func(i int) {
		For(2, func(j int) { order = append(order, i*2+j) })
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("order %v not sequential", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ran %d of 6 calls", len(order))
	}
}
