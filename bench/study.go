package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/quorumnet/quorumnet/internal/fleet"
	"github.com/quorumnet/quorumnet/internal/probe"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// The study workload: one fixed sweep spec, cut into studyShards
// shards, run by a quorumbench coordinator on two fleet workers.
const (
	studyWorkload = "study-fleet"
	studySpecFile = "bench/specs/study-fleet.json"
	studyShards   = 16
	studyWorkers  = 2
	// studyMinReps is the least number of repetitions a window holds,
	// however short it is.
	studyMinReps = 4
	// studySetupRepeats is larger than the daemons' setupRepeats because
	// starting two idle workers takes milliseconds, which a handful of
	// samples cannot pin down.
	studySetupRepeats = 15
)

// study is the running fleet: the worker processes and their addresses.
type study struct {
	workers []*child
	addrs   []string
}

// startStudy launches the fleet workers and returns once each answers
// on its socket: the state a coordinator can dispatch from. The time
// that took is the workload's set-up time.
func startStudy(env *benchEnv) (*study, float64, error) {
	s := &study{}
	start := time.Now()
	addrs, err := freeAddrs(studyWorkers)
	if err != nil {
		return nil, 0, err
	}
	for i, addr := range addrs {
		w, err := env.procs.start(env.tmp, "worker"+strconv.Itoa(i), env.bin("quorumbench"), "-fleet-worker", "-addr", addr)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.workers = append(s.workers, w)
		s.addrs = append(s.addrs, addr)
	}
	for i, w := range s.workers {
		err := waitFor(w, readyTimeout, "fleet worker listening", func() bool {
			resp, err := probeClient.Get("http://" + s.addrs[i] + "/v1/shards")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == 200
		})
		if err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(start).Seconds(), nil
}

// probeClient asks a fleet worker whether it is up: one request, on a
// connection of its own.
var probeClient = &http.Client{
	Transport: &http.Transport{DisableKeepAlives: true},
	Timeout:   postTimeout,
}

func (s *study) stop() {
	for _, w := range s.workers {
		w.stop()
	}
}

// workerCPU is the CPU time the workers have consumed so far.
func (s *study) workerCPU() (float64, error) {
	total := 0.0
	for _, w := range s.workers {
		c, err := cpuSeconds(w.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// repetition is one coordinator run, from exec to the last byte of the
// merged table on its standard output.
type repetition struct {
	wallS   float64
	cpuS    float64 // coordinator and both workers
	failure string
}

// run executes the study once through a quorumbench coordinator process
// and checks the merged table against the reference, timing footer
// aside. A re-dispatched shard fails the repetition even if the table
// is right: on a healthy fleet no shard is run twice.
func (s *study) run(env *benchEnv, seed int64, want []byte) repetition {
	var r repetition
	cpu0, err := s.workerCPU()
	if err != nil {
		r.failure = err.Error()
		return r
	}
	cmd := exec.Command(env.bin("quorumbench"),
		"-scenario", filepath.Join(env.root, studySpecFile),
		"-seed", strconv.FormatInt(seed, 10),
		"-shards", strconv.Itoa(studyShards),
		"-fleet", strings.Join(s.addrs, ","),
		"-progress")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	r.wallS = time.Since(start).Seconds()
	if err != nil {
		r.failure = fmt.Sprintf("coordinator: %v: %s", err, lastLine(stderr.Bytes()))
		return r
	}
	cpu1, err := s.workerCPU()
	if err != nil {
		r.failure = err.Error()
		return r
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r.cpuS = cpu1 - cpu0 + tvSeconds(ru.Utime) + tvSeconds(ru.Stime)

	got := stdout.Bytes()
	if i := bytes.LastIndex(bytes.TrimRight(got, "\n"), []byte("\n")); i >= 0 {
		got = got[:i+1] // drop the "(name in 2.4s)" footer
	}
	switch {
	case !bytes.Equal(got, want):
		r.failure = "merged table differs from the in-process scenario.Run of the same spec"
	case bytes.Contains(stderr.Bytes(), []byte("failed")) || bytes.Contains(stderr.Bytes(), []byte("retrying")):
		r.failure = "a shard failed or was re-dispatched: " + lastLine(stderr.Bytes())
	}
	return r
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// loadStudySpec reads the committed spec.
func loadStudySpec(env *benchEnv) (*scenario.Spec, error) {
	f, err := os.Open(filepath.Join(env.root, studySpecFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.Load(f)
}

// referenceTable runs the spec unsharded in this process and formats
// the table the way quorumbench prints it.
func referenceTable(spec *scenario.Spec, seed int64) ([]byte, error) {
	tb, err := scenario.Run(spec, scenario.RunConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tb.Format(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runStudy is the untraced run of the study workload: repetitions back
// to back for the window.
func runStudy(env *benchEnv, seed int64, window time.Duration) (*outcome, error) {
	spec, err := loadStudySpec(env)
	if err != nil {
		return nil, err
	}
	want, err := referenceTable(spec, seed)
	if err != nil {
		return nil, err
	}
	var s *study
	var setups []float64
	for i := 0; i < studySetupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		var t float64
		if s, t, err = startStudy(env); err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer s.stop()

	if r := s.run(env, seed, want); r.failure != "" { // warm-up
		return nil, fmt.Errorf("warm-up repetition: %s", r.failure)
	}
	out := newOutcome()
	var wall, cpu []float64
	start := time.Now()
	for time.Since(start) < window || len(wall) < studyMinReps {
		r := s.run(env, seed, want)
		out.attempt(r.failure)
		if r.failure == "" {
			wall = append(wall, r.wallS*1000)
			cpu = append(cpu, r.cpuS*1000)
		} else if len(out.failures) > studyMinReps {
			break // a broken fleet: stop repeating the same failure
		}
	}
	elapsed := time.Since(start)
	if len(wall) == 0 {
		return nil, fmt.Errorf("no repetition succeeded: %s", out.failures[0])
	}
	rss := 0.0
	for _, w := range s.workers {
		m, err := peakRSSMB(w.pid())
		if err != nil {
			return nil, err
		}
		rss = max(rss, m)
	}
	sorted := sortedCopy(wall)
	out.set("setup_s", median(setups))
	out.set("op_p50_ms", percentile(sorted, 50))
	out.set("op_p90_ms", percentile(sorted, 90))
	out.set("ops_per_s", float64(len(wall))/elapsed.Seconds())
	out.set("cpu_ms_per_op", median(cpu))
	out.set("peak_rss_mb", rss)
	out.notef("%d repetitions in %.1fs (%d shards on %d workers); with so few samples p90 is close to the maximum",
		len(wall), elapsed.Seconds(), studyShards, studyWorkers)
	return out, nil
}

// traceStudy is the traced run of the study workload: the same spec in
// this process, stage by stage (enumerate, execute each shard, merge),
// unsharded, and through an in-process coordinator on real workers
// with the dispatch events hooked.
func traceStudy(env *benchEnv, seed int64, spansPath string) (*outcome, error) {
	spec, err := loadStudySpec(env)
	if err != nil {
		return nil, err
	}
	cfg := scenario.RunConfig{Seed: seed}
	tr := newTracer()
	out := newOutcome()

	var local *scenario.Table
	_, localMS := tr.time("scenario.run", 0, -1, func() { local, err = scenario.Run(spec, cfg) })
	if err != nil {
		return nil, err
	}

	var space *scenario.Space
	tr.time("scenario.new_space", 1, -1, func() { space, err = scenario.NewSpace(spec, cfg) })
	if err != nil {
		return nil, err
	}
	partials := make([]*scenario.Partial, studyShards)
	for i := range partials {
		part, err := space.Shard(i, studyShards)
		if err != nil {
			return nil, err
		}
		tr.time("scenario.execute", 1, -1, func() { partials[i], err = part.Execute() })
		if err != nil {
			return nil, err
		}
	}
	var merged *scenario.Table
	tr.time("scenario.merge", 1, -1, func() { merged, err = space.Merge(partials) })
	if err != nil {
		return nil, err
	}
	out.attempt(tablesDiffer("the table merged from shards executed in process", merged, local))

	s, _, err := startStudy(env)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	// Events and log lines arrive from one goroutine per shard.
	var mu sync.Mutex
	type interval struct{ start, end time.Time }
	shards := map[int]*interval{}
	redispatches := 0
	coord, err := fleet.New(fleet.Config{
		Workers: s.addrs,
		Shards:  studyShards,
		OnEvent: func(ev fleet.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case fleet.EventDispatch:
				shards[ev.Shard] = &interval{start: time.Now()}
			case fleet.EventRedispatch, fleet.EventWorkerDead:
				redispatches++
			}
		},
		// The static dispatcher has no shard-done event; it announces a
		// finished shard only through this log line.
		Logf: func(format string, args ...interface{}) {
			if !strings.Contains(format, "shard %d/%d done") {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if shard, ok := args[1].(int); ok && shards[shard] != nil {
				shards[shard].end = time.Now()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := coord.Run(spec, cfg); err != nil { // warm-up: the workers are fresh processes
		return nil, err
	}
	clear(shards)
	var viaFleet *scenario.Table
	run, fleetMS := tr.time("fleet.run", 2, -1, func() { viaFleet, err = coord.Run(spec, cfg) })
	if err != nil {
		return nil, err
	}
	var shardMS []float64
	for i := 0; i < studyShards; i++ {
		iv := shards[i]
		if iv == nil || iv.end.IsZero() {
			return nil, fmt.Errorf("the coordinator reported no dispatch or no completion for shard %d", i)
		}
		tr.add("fleet.shard", 2, run, iv.start, iv.end)
		shardMS = append(shardMS, ms(iv.end.Sub(iv.start)))
	}
	failure := tablesDiffer("the fleet's table", viaFleet, local)
	if failure == "" && redispatches > 0 {
		failure = fmt.Sprintf("%d shards were re-dispatched on a healthy fleet", redispatches)
	}
	out.attempt(failure)

	out.set("scenario.points", float64(space.NumPoints()))
	executeMS := 0.0
	for _, d := range tr.durations("scenario.execute") {
		executeMS += d
	}
	out.set("scenario.execute_ms", executeMS)
	out.set("scenario.merge_ms", median(tr.durations("scenario.merge")))
	out.set("scenario.local_wall_s", localMS/1000)
	out.set("fleet.shard_ms_p50", median(shardMS))
	out.set("fleet.shard_ms_max", percentile(sortedCopy(shardMS), 100))
	out.set("fleet.overhead_ratio", fleetMS/localMS)
	out.set("fleet.redispatches", float64(redispatches))
	setProbeBaseline(out, seed)
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	out.notef("%d spans written to %s", len(tr.spans), spansPath)
	return out, nil
}

// tablesDiffer compares two tables cell for cell and describes the
// first difference, or returns "".
func tablesDiffer(what string, got, want *scenario.Table) string {
	if !slices.Equal(got.Columns, want.Columns) {
		return fmt.Sprintf("%s has columns %v, the unsharded run %v", what, got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%s has %d rows, the unsharded run %d", what, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !slices.Equal(got.Rows[i], want.Rows[i]) {
			return fmt.Sprintf("%s differs from the unsharded run in row %d: %v vs %v", what, i, got.Rows[i], want.Rows[i])
		}
	}
	return ""
}

// setProbeBaseline times probe.Smoother on a seeded noisy RTT series:
// Gaussian jitter around a level that shifts now and then, with rare
// spikes. No workload runs the telemetry path yet; the two numbers are
// the baseline a later change to it is read against.
func setProbeBaseline(out *outcome, seed int64) {
	const n = 200000
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, n)
	level := 50.0
	for i := range samples {
		if i%20000 == 19999 {
			level *= 1.15
		}
		samples[i] = level + rng.NormFloat64()
		if rng.Intn(100) == 0 {
			samples[i] *= 3
		}
	}
	sm := probe.NewSmoother(probe.SmootherConfig{})
	emitted := 0
	start := time.Now()
	for _, v := range samples {
		if _, ok := sm.Observe(v); ok {
			emitted++
		}
	}
	out.set("probe.observe_ns", float64(time.Since(start).Nanoseconds())/n)
	out.set("probe.suppression_pct", (1-float64(emitted)/n)*100)
}
