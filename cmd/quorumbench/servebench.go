package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// The serve bench (-bench-serve) proves the serving plane's fan-out
// claim in-process: for each (watcher count × tenant count) point it
// builds a serve.Registry of small deployments, parks the watchers on
// the tenants' epoch channels exactly like the HTTP long-poll path
// does, then drives publish rounds through concurrent per-tenant delta
// writers and measures
//
//   - plan-read latency (p50/p99) against the per-publish encoding
//     cache, and allocations/bytes per read vs the per-request-marshal
//     baseline the cache replaced (the bench fails if the improvement
//     is under 10×),
//   - publication→watcher-wakeup latency: every parked watcher is
//     woken by the publish's single channel close; the last-watcher
//     latency is the fan-out cost of one re-plan.
//
// Watchers are goroutines parked on Tenant.Notify() — the same
// channels, cache, and wake protocol the HTTP handlers use, minus the
// sockets, which is what makes 1M concurrent watchers measurable in
// one process (à la the in-process fleet tests).

// serveBenchPoint is one (watchers, tenants) measurement.
type serveBenchPoint struct {
	Watchers int `json:"watchers"`
	Tenants  int `json:"tenants"`
	Rounds   int `json:"rounds"`
	// SpawnMS is the time to spawn and park all watchers.
	SpawnMS float64 `json:"spawn_ms"`
	// BodyBytes is the cached plan body size (per tenant 0).
	BodyBytes int `json:"body_bytes"`
	// Read latency percentiles over ReadSamples cached reads, measured
	// while every watcher is parked.
	ReadSamples int     `json:"read_samples"`
	ReadP50US   float64 `json:"read_p50_us"`
	ReadP99US   float64 `json:"read_p99_us"`
	// Allocations and bytes per cached read vs the per-request-marshal
	// baseline; AllocImprovement is baseline/cached (clamped at the
	// baseline count when the cached path does not allocate at all).
	AllocsPerRead         float64 `json:"allocs_per_read"`
	BytesPerRead          float64 `json:"bytes_per_read"`
	BaselineAllocsPerRead float64 `json:"baseline_allocs_per_read"`
	BaselineBytesPerRead  float64 `json:"baseline_bytes_per_read"`
	AllocImprovement      float64 `json:"alloc_improvement"`
	// ApplyMSAvg is the mean delta-apply (re-plan + publish) time per
	// tenant per round, stamped inside the writer goroutine. At large
	// watcher counts on few cores the tail of an Apply competes with the
	// fan-out it triggered, so this is an upper bound on re-plan time.
	ApplyMSAvg float64 `json:"apply_ms_avg"`
	// Wake latencies: from the tenant's delta post (stamped in the
	// writer immediately before Apply — before any watcher can wake, so
	// scheduler preemption cannot reorder the reference after the wakes)
	// to each watcher recording its wakeup. Includes the sub-millisecond
	// re-plan; see ApplyMSAvg. WakeLastMS* track the LAST watcher woken
	// per round — the full fan-out cost of one publish.
	WakeP50MS     float64 `json:"wake_p50_ms"`
	WakeP99MS     float64 `json:"wake_p99_ms"`
	WakeLastMSAvg float64 `json:"wake_last_ms_avg"`
	WakeLastMSMax float64 `json:"wake_last_ms_max"`
	// HeapMB and Goroutines snapshot the parked steady state.
	HeapMB     float64 `json:"heap_mb"`
	Goroutines int     `json:"goroutines"`
}

type serveBenchReport struct {
	Tool       string            `json:"tool"`
	Seed       int64             `json:"seed"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Points     []serveBenchPoint `json:"points"`
}

// runBenchServe executes the serving-plane bench over the watcher ×
// tenant grid and writes the JSON report to path.
func runBenchServe(path, watchersArg, tenantsArg string, rounds int, seed int64) int {
	watcherCounts, err := parsePositiveList("-bench-watchers", watchersArg)
	if err != nil {
		return fail(err)
	}
	tenantCounts, err := parsePositiveList("-bench-serve-tenants", tenantsArg)
	if err != nil {
		return fail(err)
	}
	if rounds < 1 {
		return fail(fmt.Errorf("quorumbench: -bench-serve-rounds must be >= 1, got %d", rounds))
	}
	rep := serveBenchReport{
		Tool:       "quorumbench -bench-serve",
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, nw := range watcherCounts {
		for _, nt := range tenantCounts {
			if nw < nt {
				fmt.Fprintf(os.Stderr, "bench-serve: skipping %d watchers across %d tenants (fewer watchers than tenants)\n", nw, nt)
				continue
			}
			pt, err := benchServePoint(nw, nt, rounds, seed)
			if err != nil {
				return fail(fmt.Errorf("bench-serve at %d watchers, %d tenants: %w", nw, nt, err))
			}
			fmt.Fprintf(os.Stderr,
				"bench-serve: %8d watchers, %2d tenants: read p50 %.2fus p99 %.2fus, %.2f allocs/read (baseline %.0f, %.0fx), wake p99 %.1fms last %.1fms, spawn %.0fms, heap %.0fMB\n",
				nw, nt, pt.ReadP50US, pt.ReadP99US, pt.AllocsPerRead, pt.BaselineAllocsPerRead,
				pt.AllocImprovement, pt.WakeP99MS, pt.WakeLastMSMax, pt.SpawnMS, pt.HeapMB)
			rep.Points = append(rep.Points, pt)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "bench-serve: wrote %s (%d points)\n", path, len(rep.Points))
	return 0
}

// serveBenchManager builds one tenant's deployment: a small two-region
// WAN with the closest-quorum strategy, so demand deltas re-plan in
// well under a millisecond and the bench measures fan-out, not LP
// solves.
func serveBenchManager(label string, seed int64) (*deploy.Manager, error) {
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "serve-bench-" + label,
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 6, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 6, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	p, err := plan.New(topo, plan.Config{
		System:   plan.SystemSpec{Family: "grid", Param: 3},
		Strategy: plan.StratClosest,
		Demand:   8000,
	})
	if err != nil {
		return nil, err
	}
	return deploy.New(p, deploy.Config{})
}

func benchServePoint(nw, nt, rounds int, seed int64) (serveBenchPoint, error) {
	pt := serveBenchPoint{Watchers: nw, Tenants: nt, Rounds: rounds}

	reg := serve.NewRegistry(serve.Options{})
	tenants := make([]*serve.Tenant, nt)
	mgrs := make([]*deploy.Manager, nt)
	for i := 0; i < nt; i++ {
		m, err := serveBenchManager(strconv.Itoa(i), seed+int64(i))
		if err != nil {
			return pt, err
		}
		tenant, err := reg.Open(fmt.Sprintf("t%d", i), m)
		if err != nil {
			return pt, err
		}
		tenants[i], mgrs[i] = tenant, m
	}
	pt.BodyBytes = len(tenants[0].Encoded().Body)

	// Spawn the watchers, round-robin across tenants, and wait until
	// every one holds the epoch channel of its tenant's current version
	// — the parked state a publish broadcasts into.
	tenantOf := make([]int8, nw) // tenant index per watcher slot (nt <= 127)
	wake := make([]int64, nw)    // wakeup timestamps, one slot per watcher
	rwg := make([]sync.WaitGroup, rounds)
	for r := range rwg {
		rwg[r].Add(nw)
	}
	var readyWG, doneWG sync.WaitGroup
	readyWG.Add(nw)
	doneWG.Add(nw)
	spawnStart := time.Now()
	for s := 0; s < nw; s++ {
		tenantOf[s] = int8(s % nt)
		go func(s int, t *serve.Tenant) {
			defer doneWG.Done()
			ch := t.Notify()
			readyWG.Done()
			for r := 0; r < rounds; r++ {
				<-ch
				wake[s] = time.Now().UnixNano()
				enc := t.Encoded() // the post-wake read, from the publish's cached bytes
				_ = enc.Version
				ch = t.Notify() // re-arm before reporting, so no publish is lost
				rwg[r].Done()
			}
		}(s, tenants[s%nt])
	}
	readyWG.Wait()
	pt.SpawnMS = toMS(time.Since(spawnStart))
	pt.Goroutines = runtime.NumGoroutine()

	// Read phase, with every watcher parked: cached-read latency
	// percentiles, then allocs/bytes per read vs the per-request-marshal
	// baseline.
	const readSamples = 200_000
	pt.ReadSamples = readSamples
	lat := make([]float64, readSamples)
	t0 := tenants[0]
	inm := t0.Encoded().ETag
	var sink int
	for i := range lat {
		start := time.Now()
		enc := t0.Encoded()
		if enc.ETag != inm { // the handler's If-None-Match compare
			sink++
		}
		sink += len(enc.Body)
		lat[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	_ = sink
	pt.ReadP50US, pt.ReadP99US = percentile(lat, 50), percentile(lat, 99)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < readSamples; i++ {
		enc := t0.Encoded()
		sink += len(enc.Body)
	}
	runtime.ReadMemStats(&ms1)
	pt.AllocsPerRead = float64(ms1.Mallocs-ms0.Mallocs) / readSamples
	pt.BytesPerRead = float64(ms1.TotalAlloc-ms0.TotalAlloc) / readSamples
	pt.HeapMB = float64(ms1.HeapAlloc) / (1 << 20)

	// The baseline marshals the plan per read, as the serving layer did
	// before Tenant.Encoded cached the bytes. Building the view from the
	// snapshot is the serving layer's business and is left out, so the
	// baseline — and the improvement ratio — is a lower bound.
	const baseSamples = 2_000
	var plan serve.PlanJSON
	if err := json.Unmarshal(t0.Encoded().Body, &plan); err != nil {
		return pt, fmt.Errorf("decoding the cached plan body: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < baseSamples; i++ {
		body, err := json.MarshalIndent(&plan, "", "  ")
		if err != nil {
			return pt, err
		}
		sink += len(append(body, '\n'))
	}
	runtime.ReadMemStats(&ms1)
	pt.BaselineAllocsPerRead = float64(ms1.Mallocs-ms0.Mallocs) / baseSamples
	pt.BaselineBytesPerRead = float64(ms1.TotalAlloc-ms0.TotalAlloc) / baseSamples
	// The cached path routinely measures 0 allocs/read; floor it at the
	// measurement resolution (one alloc across all samples) so the
	// reported ratio is a defensible lower bound rather than infinity.
	cached := pt.AllocsPerRead
	if cached < 1.0/readSamples {
		cached = 1.0 / readSamples
	}
	pt.AllocImprovement = pt.BaselineAllocsPerRead / cached
	if pt.AllocImprovement < 10 {
		return pt, fmt.Errorf("cached read path allocates too much: %.2f allocs/read vs baseline %.2f (%.1fx < 10x)",
			pt.AllocsPerRead, pt.BaselineAllocsPerRead, pt.AllocImprovement)
	}

	// Publish rounds: concurrent per-tenant delta writers, each publish
	// waking that tenant's parked watchers with one channel close. The
	// wake reference is stamped in the writer BEFORE its Apply: a
	// timestamp taken after Apply returns can land after a million
	// already-woken watchers' timestamps when the scheduler preempts the
	// writer at the publish (seen at 1M watchers on one core).
	applyPost := make([]int64, nt)
	var applyTotalNS atomic.Int64
	wakeLat := make([]float64, 0, rounds*nw)
	var wakeLastSum, wakeLastMax float64
	demand := 8000.0
	for r := 0; r < rounds; r++ {
		demand += 1000
		var writers sync.WaitGroup
		var applyErr error
		var applyMu sync.Mutex
		for ti := 0; ti < nt; ti++ {
			writers.Add(1)
			go func(ti int) {
				defer writers.Done()
				start := time.Now()
				applyPost[ti] = start.UnixNano()
				_, err := mgrs[ti].Apply([]deploy.Delta{{Kind: deploy.KindDemand, Value: demand}})
				applyTotalNS.Add(int64(time.Since(start)))
				if err != nil {
					applyMu.Lock()
					applyErr = err
					applyMu.Unlock()
				}
			}(ti)
		}
		writers.Wait()
		if applyErr != nil {
			return pt, applyErr
		}
		rwg[r].Wait() // every watcher woken and re-armed
		var last float64
		for s := 0; s < nw; s++ {
			l := float64(wake[s]-applyPost[tenantOf[s]]) / float64(time.Millisecond)
			if l < 0 {
				l = 0
			}
			wakeLat = append(wakeLat, l)
			if l > last {
				last = l
			}
		}
		wakeLastSum += last
		if last > wakeLastMax {
			wakeLastMax = last
		}
		// Every tenant must have advanced exactly one version.
		for ti, t := range tenants {
			if v := t.Encoded().Version; v != uint64(r+2) {
				return pt, fmt.Errorf("round %d: tenant %d at version %d, want %d", r, ti, v, r+2)
			}
		}
	}
	doneWG.Wait()
	pt.ApplyMSAvg = toMS(time.Duration(applyTotalNS.Load())) / float64(rounds*nt)
	pt.WakeP50MS, pt.WakeP99MS = percentile(wakeLat, 50), percentile(wakeLat, 99)
	pt.WakeLastMSAvg = wakeLastSum / float64(rounds)
	pt.WakeLastMSMax = wakeLastMax
	return pt, nil
}

// percentile returns the p-th percentile of values (sorted in place).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	idx := int(p / 100 * float64(len(values)-1))
	return values[idx]
}

func parsePositiveList(flagName, arg string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(arg, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("quorumbench: bad %s entry %q (want integers >= 1)", flagName, s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("quorumbench: %s is empty", flagName)
	}
	return out, nil
}
