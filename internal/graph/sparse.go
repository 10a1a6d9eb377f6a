package graph

import (
	"sync"

	"github.com/quorumnet/quorumnet/internal/par"
)

// csr is a compressed-sparse-row view of the adjacency lists: one flat
// half-edge array indexed by per-node offsets. Dijkstra's inner loop walks
// it with sequential loads instead of chasing per-node slice headers, which
// is where most of the cache misses in the slice-of-slices layout came
// from. It is built once per closure and shared read-only by all workers.
type csr struct {
	ptr []int32   // node -> first half-edge index; len n+1
	to  []int32   // half-edge target
	w   []float64 // half-edge length
}

func newCSR(g *Graph) *csr {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	c := &csr{
		ptr: make([]int32, g.n+1),
		to:  make([]int32, total),
		w:   make([]float64, total),
	}
	k := 0
	for u, es := range g.adj {
		c.ptr[u] = int32(k)
		for _, e := range es {
			c.to[k] = int32(e.to)
			c.w[k] = e.length
			k++
		}
	}
	c.ptr[g.n] = int32(k)
	return c
}

// heapEntry is one slot of the 4-ary heap: the tentative distance is
// embedded next to the node id so sibling comparisons during sift-down are
// sequential loads (four children share a cache line) instead of random
// accesses into the distance slice — which profiling showed was where half
// the closure time went.
type heapEntry struct {
	key  float64
	node int32
}

// dijkstra is a reusable single-source shortest-path workspace: an
// index-addressed 4-ary min-heap with a node->slot position table for
// decrease-key. A run performs no heap allocations, so the all-pairs
// closure can fan thousands of sources across a worker pool without
// garbage-collector pressure. The 4-ary layout trades slightly more
// comparisons per sift-down for half the tree depth and better cache
// locality than a binary heap.
type dijkstra struct {
	c    *csr
	heap []heapEntry
	pos  []int32 // node -> slot in heap, or -1 when not enqueued
}

func newDijkstra(c *csr, n int) *dijkstra {
	d := &dijkstra{c: c, heap: make([]heapEntry, 0, n), pos: make([]int32, n)}
	for i := range d.pos {
		d.pos[i] = -1
	}
	return d
}

// run fills dist (length n) with shortest-path distances from src.
// Unreachable nodes get Inf. Every node that enters the heap leaves it,
// with pos reset to -1 on pop, so the workspace is clean for the next run.
func (d *dijkstra) run(src int, dist []float64) {
	for i := range dist {
		dist[i] = Inf
	}
	d.heap = d.heap[:0]
	dist[src] = 0
	d.push(heapEntry{key: 0, node: int32(src)})
	ptr, to, w := d.c.ptr, d.c.to, d.c.w
	for len(d.heap) > 0 {
		top := d.popMin()
		du := top.key
		for k, end := ptr[top.node], ptr[top.node+1]; k < end; k++ {
			if nd := du + w[k]; nd < dist[to[k]] {
				dist[to[k]] = nd
				d.decrease(heapEntry{key: nd, node: to[k]})
			}
		}
	}
}

// runGraph is run over the graph's adjacency lists directly, for
// single-source callers that don't amortize a CSR build across sources.
func (d *dijkstra) runGraph(g *Graph, src int, dist []float64) {
	for i := range dist {
		dist[i] = Inf
	}
	d.heap = d.heap[:0]
	dist[src] = 0
	d.push(heapEntry{key: 0, node: int32(src)})
	for len(d.heap) > 0 {
		top := d.popMin()
		du := top.key
		for _, e := range g.adj[top.node] {
			if nd := du + e.length; nd < dist[e.to] {
				dist[e.to] = nd
				d.decrease(heapEntry{key: nd, node: int32(e.to)})
			}
		}
	}
}

func (d *dijkstra) push(e heapEntry) {
	d.heap = append(d.heap, e)
	d.siftUp(len(d.heap)-1, e)
}

// decrease restores heap order after e.node's key dropped, inserting it if
// not currently enqueued. Keys only ever decrease, so a sift-up suffices.
func (d *dijkstra) decrease(e heapEntry) {
	if p := d.pos[e.node]; p >= 0 {
		d.siftUp(int(p), e)
	} else {
		d.push(e)
	}
}

func (d *dijkstra) popMin() heapEntry {
	h := d.heap
	min := h[0]
	d.pos[min.node] = -1
	last := h[len(h)-1]
	d.heap = h[:len(h)-1]
	if len(d.heap) > 0 {
		d.siftDown(0, last)
	}
	return min
}

func (d *dijkstra) siftUp(i int, e heapEntry) {
	h := d.heap
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if p.key <= e.key {
			break
		}
		h[i] = p
		d.pos[p.node] = int32(i)
		i = parent
	}
	h[i] = e
	d.pos[e.node] = int32(i)
}

func (d *dijkstra) siftDown(i int, e heapEntry) {
	h := d.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var mc int
		var md float64
		if c+3 < n {
			// Full fan of four children: a two-level min tree keeps the
			// four key loads and the first two comparisons independent,
			// which matters because mispredicted child comparisons are
			// what dominates pop cost on sparse graphs.
			d0, d1, d2, d3 := h[c].key, h[c+1].key, h[c+2].key, h[c+3].key
			m01, i01 := d0, c
			if d1 < d0 {
				m01, i01 = d1, c+1
			}
			m23, i23 := d2, c+2
			if d3 < d2 {
				m23, i23 = d3, c+3
			}
			mc, md = i01, m01
			if m23 < m01 {
				mc, md = i23, m23
			}
		} else {
			mc, md = c, h[c].key
			for k := c + 1; k < n; k++ {
				if dk := h[k].key; dk < md {
					mc, md = k, dk
				}
			}
		}
		if md >= e.key {
			break
		}
		h[i] = h[mc]
		d.pos[h[i].node] = int32(i)
		i = mc
	}
	h[i] = e
	d.pos[e.node] = int32(i)
}

// dial is Dijkstra over a cyclic bucket queue (Dial's algorithm): with
// bucket width δ = the minimum edge length, a node popped from the lowest
// nonempty bucket is settled — any edge out of the current bucket lands at
// least one bucket later (du + w ≥ du + δ), so no intra-bucket improvement
// is possible and entries may pop in any order within a bucket. All queue
// operations are array pushes/pops plus integer arithmetic; profiling
// showed the comparison-based heap spends most of the closure in branch
// mispredictions on random keys, which this structure avoids entirely
// (~2× per source on AS-like graphs). Improved nodes are re-pushed
// lazily; stale entries are skipped on pop.
//
// The active key range at any time spans at most the maximum edge length,
// so ceil(cmax/δ)+2 cyclic buckets never collide. Eligibility (positive
// minimum length, bounded cmax/cmin ratio) is checked by dialEligible;
// ineligible graphs use the 4-ary heap instead.
type dial struct {
	c       *csr
	buckets [][]heapEntry // cyclic, indexed by floor(dist/δ) mod len
	inv     float64       // 1/δ
	count   int
	curAbs  int64 // absolute bucket index of the sweep position
}

// maxDialBuckets caps the bucket array; graphs whose edge-length ratio
// exceeds it fall back to the heap-based engine.
const maxDialBuckets = 1 << 14

// edgeLengthRange returns the minimum and maximum edge length (0, 0 for an
// edgeless graph).
func (c *csr) edgeLengthRange() (cmin, cmax float64) {
	if len(c.w) == 0 {
		return 0, 0
	}
	cmin, cmax = c.w[0], c.w[0]
	for _, w := range c.w[1:] {
		if w < cmin {
			cmin = w
		}
		if w > cmax {
			cmax = w
		}
	}
	return cmin, cmax
}

func dialEligible(cmin, cmax float64) bool {
	return cmin > 0 && cmax/cmin <= maxDialBuckets-2
}

func newDial(c *csr, cmin, cmax float64) *dial {
	nb := int(cmax/cmin) + 3
	return &dial{c: c, buckets: make([][]heapEntry, nb), inv: 1 / cmin}
}

func (q *dial) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.count = 0
	q.curAbs = 0
}

func (q *dial) push(d float64, node int32) {
	b := int(int64(d*q.inv) % int64(len(q.buckets)))
	q.buckets[b] = append(q.buckets[b], heapEntry{key: d, node: node})
	q.count++
}

func (q *dial) pop() heapEntry {
	b := int(q.curAbs % int64(len(q.buckets)))
	for len(q.buckets[b]) == 0 {
		q.curAbs++
		b = int(q.curAbs % int64(len(q.buckets)))
	}
	bk := q.buckets[b]
	e := bk[len(bk)-1]
	q.buckets[b] = bk[:len(bk)-1]
	q.count--
	return e
}

// run fills dist (length n) with shortest-path distances from src, exactly
// like (*dijkstra).run but over the bucket queue.
func (q *dial) run(src int, dist []float64) {
	for i := range dist {
		dist[i] = Inf
	}
	q.reset()
	dist[src] = 0
	q.push(0, int32(src))
	ptr, to, w := q.c.ptr, q.c.to, q.c.w
	for q.count > 0 {
		top := q.pop()
		if top.key > dist[top.node] {
			continue // stale: improved after this entry was queued
		}
		du := top.key
		for k, end := ptr[top.node], ptr[top.node+1]; k < end; k++ {
			if nd := du + w[k]; nd < dist[to[k]] {
				dist[to[k]] = nd
				q.push(nd, to[k])
			}
		}
	}
}

// closureDense selects between the sparse all-pairs-Dijkstra path
// and the dense Floyd–Warshall fallback: with m edges, n Dijkstra runs cost
// O(n·m·log n) versus Floyd–Warshall's O(n³), so the sparse path wins
// whenever m is well below n². The factor 8 keeps small dense graphs (where
// the fused FW loop is fastest) on the dense path.
func closureDense(n, edges int) bool { return n > 0 && 8*edges >= n*n }

// Closure returns the shortest-path distance matrix (metric closure) of the
// graph. Sparse graphs run Dijkstra from every source, fanned out with
// par.For; dense graphs fall back to MetricClosure's Floyd–Warshall,
// which is faster when most pairs are already edges. Both paths
// symmetrize with the minimum of the two directions, so the result is
// exactly symmetric with a zero diagonal. Disconnected pairs are Inf.
func (g *Graph) Closure() *Matrix {
	if closureDense(g.n, g.NumEdges()) {
		m := g.edgeMatrix()
		m.MetricClosure()
		return m
	}
	return g.sparseClosure()
}

// edgeMatrix returns the direct-edge distance matrix: 0 on the diagonal,
// the minimum parallel-edge length where an edge exists, Inf elsewhere.
func (g *Graph) edgeMatrix() *Matrix {
	m := NewMatrix(g.n)
	for i := 0; i < g.n; i++ {
		row := m.rows[i]
		for j := range row {
			row[j] = Inf
		}
		row[i] = 0
	}
	for u := 0; u < g.n; u++ {
		row := m.rows[u]
		for _, e := range g.adj[u] {
			if e.length < row[e.to] {
				row[e.to] = e.length
			}
		}
	}
	return m
}

// ssspRunner is a single-source shortest-path engine over a shared CSR:
// either the bucket-queue dial (preferred when the edge-length ratio is
// bounded) or the 4-ary-heap dijkstra (always valid).
type ssspRunner interface {
	run(src int, dist []float64)
}

// sparseClosure runs Dijkstra from every source in parallel, each worker
// reusing a pooled workspace and writing straight into its matrix row, then
// symmetrizes in two triangle passes (read-lower/write-upper, then
// read-upper/write-lower) so no two goroutines touch the same cell.
func (g *Graph) sparseClosure() *Matrix {
	m := NewMatrix(g.n)
	c := newCSR(g)
	cmin, cmax := c.edgeLengthRange()
	newRunner := func() ssspRunner { return newDijkstra(c, g.n) }
	if dialEligible(cmin, cmax) {
		newRunner = func() ssspRunner { return newDial(c, cmin, cmax) }
	}
	pool := sync.Pool{New: func() any { return newRunner() }}
	par.For(g.n, func(src int) {
		d := pool.Get().(ssspRunner)
		d.run(src, m.rows[src])
		pool.Put(d)
	})
	par.For(g.n, func(i int) {
		ri := m.rows[i]
		for j := i + 1; j < g.n; j++ {
			if d := m.rows[j][i]; d < ri[j] {
				ri[j] = d
			}
		}
	})
	par.For(g.n, func(j int) {
		rj := m.rows[j]
		for i := 0; i < j; i++ {
			rj[i] = m.rows[i][j]
		}
	})
	return m
}

// Connected reports whether every node is reachable from node 0 (true for
// the empty graph). It is a single O(n + m) traversal, used to reject
// topologies whose closure would contain Inf distances.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := make([]int32, 0, g.n)
	seen[0] = true
	stack = append(stack, 0)
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, int32(e.to))
			}
		}
	}
	return count == g.n
}
