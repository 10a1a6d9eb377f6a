package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// The daemon workloads run quorumd with these settings; the shadow
// deployment the replies are checked against (shadow.go) is built from
// the same constants. Demand, move cost and history are quorumd's flag
// defaults, spelled out so that a changed default shows as a failed
// correctness check, not as a silently different workload.
const (
	daemonSystemFlag = "grid:5"
	daemonGridParam  = 5
	daemonDemand     = 8000.0
	daemonMoveCost   = 5.0
	daemonHistory    = 64
)

// as300Sites is the size of the generated AS-graph topology the re-plan
// workloads run on.
const as300Sites = 300

// daemonSpec is one closed-loop quorumd workload: one poster, which
// sends the next delta batch only after the reply to the previous one
// arrived and every watcher holds the version it announced.
type daemonSpec struct {
	name string
	// topology is "as300" (a topogen file) or "planetlab50" (built in).
	topology string
	// watchers is the number of parked long-poll connections.
	watchers int
	// paced makes the poster wait until every watcher is parked again
	// before it posts, so that each publish wakes the full set.
	paced bool
	mix   string
	// probed is how many batches, from the first, the traced run times
	// stage by stage. It is fixed, not fitted to the window, so that the
	// LP pivot counts it reports repeat exactly under a seed.
	probed int
}

var daemonSpecs = []daemonSpec{
	{name: "replan-rtt", topology: "as300", watchers: 2, mix: mixRTT, probed: 12},
	{name: "replan-capacity", topology: "as300", watchers: 2, mix: mixCapacityDemand, probed: 400},
	{name: "fanout-64", topology: "planetlab50", watchers: 64, paced: true, mix: mixDemand, probed: 400},
}

// Time limits on single requests. A healthy daemon answers a delta
// within a second and wakes its watchers within milliseconds; hitting
// either limit fails the operation instead of hanging the run.
const (
	postTimeout   = 60 * time.Second
	wakeTimeout   = 30 * time.Second
	longPollParam = "25s" // below quorumd's -max-wait, above any re-plan
	readyTimeout  = 30 * time.Second
)

// daemon is one running quorumd with the connections of its poster,
// its stats scraper and its parked watchers, all on one poller and all
// driven by the goroutine that runs the rounds.
type daemon struct {
	proc     *child
	p        *poller
	post     *conn
	vars     *conn
	varsReq  []byte
	watchers []*watcher

	// pending counts the watchers that have not yet read the version of
	// the batch in flight. ref is the first plan body one of them read in
	// this round, which every other body must equal.
	pending int
	ref     []byte
	haveRef bool
}

// watcher is one kept-alive long-poll connection: it asks for the
// version after the last one it saw, forever. The result fields
// describe the latest response.
type watcher struct {
	c     *conn
	after uint64
	req   []byte

	done    time.Time
	status  int
	version uint64
	etag    string
	same    bool // the body equals the round's reference body
	err     error
}

// park sends the watcher's next long-poll request.
func (w *watcher) park() error {
	w.req = append(w.req[:0], "GET /v1/plan?after="...)
	w.req = strconv.AppendUint(w.req, w.after, 10)
	w.req = append(w.req, "&timeout="+longPollParam+" HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	return w.c.send(w.req)
}

// arrived records the response a watcher's connection just completed
// and parks the watcher again.
func (d *daemon) arrived(w *watcher) {
	resp := w.c.resp
	w.done, w.err = w.c.done, w.c.err
	w.status, w.etag = resp.Status, resp.ETag
	w.version = versionOfETag(resp.ETag)
	if d.haveRef {
		w.same = bytes.Equal(resp.Body, d.ref)
	} else {
		d.ref, d.haveRef, w.same = append(d.ref[:0], resp.Body...), true, true
	}
	d.pending--
	if w.err != nil {
		return // the connection is unusable; the round records the failure
	}
	if w.version > w.after {
		w.after = w.version
	}
	w.err = w.park()
}

// pump reads from every connection until cond holds, handing each
// watcher response that completes meanwhile to arrived.
func (d *daemon) pump(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		ready, err := d.p.poll(deadline)
		if err != nil {
			return err
		}
		if len(ready) == 0 {
			return fmt.Errorf("nothing arrived within %s", timeout)
		}
		for _, c := range ready {
			if c.watcher != nil {
				d.arrived(c.watcher)
			}
		}
	}
	return nil
}

// do sends one request on the poster's or the scraper's connection and
// returns its response.
func (d *daemon) do(c *conn, req []byte, timeout time.Duration) (response, error) {
	if err := c.send(req); err != nil {
		return response{}, err
	}
	if err := d.pump(timeout, func() bool { return c.complete }); err != nil {
		return response{}, err
	}
	return c.resp, c.err
}

// versionOfETag parses quorumd's `"v<version>"` validator; 0 if it is
// anything else.
func versionOfETag(etag string) uint64 {
	if len(etag) < 4 || etag[0] != '"' || etag[1] != 'v' || etag[len(etag)-1] != '"' {
		return 0
	}
	v, err := strconv.ParseUint(etag[2:len(etag)-1], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// debugVars is the part of quorumd's /debug/vars the benchmark reads.
type debugVars struct {
	Quorumd map[string]serve.TenantStats `json:"quorumd"`
}

// stats scrapes the default tenant's serving counters.
func (d *daemon) stats() (serve.TenantStats, error) {
	resp, err := d.do(d.vars, d.varsReq, postTimeout)
	if err != nil {
		return serve.TenantStats{}, fmt.Errorf("scraping /debug/vars: %w", err)
	}
	if resp.Status != 200 {
		return serve.TenantStats{}, fmt.Errorf("scraping /debug/vars: HTTP %d: %s", resp.Status, resp.Body)
	}
	var v debugVars
	if err := json.Unmarshal(resp.Body, &v); err != nil {
		return serve.TenantStats{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	st, ok := v.Quorumd[serve.DefaultTenant]
	if !ok {
		return serve.TenantStats{}, fmt.Errorf("/debug/vars has no %q tenant", serve.DefaultTenant)
	}
	return st, nil
}

// waitParked returns once every watcher is parked on the daemon, with
// the counters of the scrape that showed it.
func (d *daemon) waitParked() (serve.TenantStats, error) {
	var st serve.TenantStats
	var lastErr error
	err := waitFor(d.proc, readyTimeout, "all watchers parked", func() bool {
		st, lastErr = d.stats()
		return lastErr == nil && st.Parked == int64(len(d.watchers))
	})
	if err != nil && lastErr != nil {
		return st, lastErr
	}
	return st, err
}

// startDaemon launches quorumd and brings it to the state a workload
// starts from: first plan served, every watcher parked. It returns the
// daemon and the time that took, which is the workload's set-up time.
func startDaemon(env *benchEnv, spec daemonSpec, topoArg string) (*daemon, float64, error) {
	if err := checkFDLimit(spec.watchers); err != nil {
		return nil, 0, err
	}
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, 0, err
	}
	addr, debugAddr := addrs[0], addrs[1]
	argv := []string{
		env.bin("quorumd"), "-addr", addr, "-debug-addr", debugAddr,
		"-topology", topoArg, "-system", daemonSystemFlag, "-strategy", "lp",
		"-move-cost", strconv.FormatFloat(daemonMoveCost, 'g', -1, 64),
		"-max-watchers", "100000",
	}
	start := time.Now()
	proc, err := env.procs.start(env.tmp, "quorumd", argv...)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{proc: proc, varsReq: getRequest("/debug/vars")}
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, err
	}
	if d.p, err = newPoller(); err != nil {
		return fail(err)
	}

	// First 200 from /v1/plan.
	var first response
	err = waitFor(proc, readyTimeout, "first plan served", func() bool {
		if d.post == nil {
			if d.post, err = d.p.dial(addr); err != nil {
				return false
			}
		}
		first, err = d.do(d.post, getRequest("/v1/plan"), postTimeout)
		if err != nil {
			d.post.close()
			d.post = nil
			return false
		}
		return first.Status == 200
	})
	if err != nil {
		return fail(err)
	}
	v0 := versionOfETag(first.ETag)
	if v0 == 0 {
		return fail(fmt.Errorf("first plan has ETag %q, want \"v<version>\"", first.ETag))
	}
	// quorumd opens its debug listener from a goroutine, so it can come up
	// after the first plan was served.
	err = waitFor(proc, readyTimeout, "debug listener up", func() bool {
		d.vars, err = d.p.dial(debugAddr)
		return err == nil
	})
	if err != nil {
		return fail(err)
	}
	for i := 0; i < spec.watchers; i++ {
		c, err := d.p.dial(addr)
		if err != nil {
			return fail(fmt.Errorf("watcher %d: %w", i, err))
		}
		w := &watcher{c: c, after: v0}
		c.watcher = w
		d.watchers = append(d.watchers, w)
		if err := w.park(); err != nil {
			return fail(fmt.Errorf("watcher %d: %w", i, err))
		}
	}
	if _, err := d.waitParked(); err != nil {
		return fail(err)
	}
	return d, time.Since(start).Seconds(), nil
}

// stop closes every connection and kills and reaps the daemon.
func (d *daemon) stop() {
	if d.p != nil {
		d.p.close()
	}
	d.proc.stop()
}

// op is one completed delta batch: what was sent, what the daemon
// replied, and what the watchers ended up holding.
type op struct {
	seq   int
	batch []deploy.Delta
	reply serve.DeltasResponse
	// elementSites and bodyHash describe the plan body every watcher read.
	elementSites []string
	bodyHash     uint64
	// latencyMS runs from the first byte of the POST to the moment the
	// last watcher had read the complete body.
	latencyMS float64
	postMS    float64
	// failure is empty for an operation that met every check.
	failure string
}

// opTrace is what a traced round measures beyond the op itself.
type opTrace struct {
	wakeMS   []float64 // per watcher: body read − POST reply
	reparkMS float64   // last wake → every watcher parked again
	replanMS float64   // the daemon's replan_last_ms: its Apply call for this batch
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// round posts one batch and waits until every watcher holds its
// version. With a tracer it also records the batch's spans and, once
// the latency is measured, scrapes the daemon's counters. A scrape costs
// the daemon CPU and keeps it warm for the next batch: that is why the
// end-to-end metrics come from runs without any.
func (d *daemon) round(spec daemonSpec, seq int, batch []deploy.Delta, tr *tracer) (op, opTrace) {
	o := op{seq: seq, batch: batch}
	var ot opTrace
	payload, err := json.Marshal(serve.DeltasRequest{Deltas: batch})
	if err != nil {
		o.failure = err.Error()
		return o, ot
	}
	req := postRequest("/v1/deltas", payload)

	d.pending, d.haveRef = len(d.watchers), false
	t0 := time.Now()
	resp, err := d.do(d.post, req, postTimeout)
	tReply := d.post.done
	o.postMS = ms(tReply.Sub(t0))
	if err != nil {
		o.failure = fmt.Sprintf("POST /v1/deltas: %v", err)
		return o, ot
	}
	if resp.Status != 200 {
		o.failure = fmt.Sprintf("POST /v1/deltas: HTTP %d: %s", resp.Status, resp.Body)
		return o, ot
	}
	if err := json.Unmarshal(resp.Body, &o.reply); err != nil {
		o.failure = fmt.Sprintf("decoding delta reply: %v", err)
		return o, ot
	}

	if err := d.pump(wakeTimeout, func() bool { return d.pending == 0 }); err != nil {
		o.failure = fmt.Sprintf("%d of %d watchers did not receive version %d: %v",
			d.pending, len(d.watchers), o.reply.Version, err)
		return o, ot
	}

	wantETag := `"v` + strconv.FormatUint(o.reply.Version, 10) + `"`
	last := tReply
	for i, w := range d.watchers {
		switch {
		case w.err != nil:
			o.failure = fmt.Sprintf("watcher %d: %v", i, w.err)
		case w.status != 200:
			o.failure = fmt.Sprintf("watcher %d: HTTP %d", i, w.status)
		case w.etag != wantETag:
			o.failure = fmt.Sprintf("watcher %d: ETag %s, POST announced %s", i, w.etag, wantETag)
		case !w.same:
			o.failure = fmt.Sprintf("watcher %d: body differs from the first one read for version %d", i, o.reply.Version)
		}
		last = maxTime(last, w.done)
	}
	ref := d.ref
	o.latencyMS = ms(last.Sub(t0))
	var body serve.PlanJSON
	if err := json.Unmarshal(ref, &body); err != nil {
		o.failure = fmt.Sprintf("plan body of version %d is not a PlanJSON: %v", o.reply.Version, err)
	} else if body.Version != o.reply.Version {
		o.failure = fmt.Sprintf("plan body carries version %d, POST announced %d", body.Version, o.reply.Version)
	}
	o.elementSites = body.ElementSites
	o.bodyHash = hashBody(ref)

	if tr != nil {
		root := tr.add("bench.delta", seq, -1, t0, last)
		post := tr.add("serve.post", seq, root, t0, tReply)
		ot.wakeMS = make([]float64, len(d.watchers))
		for i, w := range d.watchers {
			// A watcher can hold the body before the poster holds the
			// reply: the daemon publishes first. The metric keeps the sign;
			// the span is clamped to zero length.
			ot.wakeMS[i] = ms(w.done.Sub(tReply))
			tr.add("serve.wake", seq, post, tReply, maxTime(tReply, w.done))
		}
		st, err := d.waitParked()
		if err != nil && o.failure == "" {
			o.failure = err.Error()
		}
		ot.reparkMS = ms(time.Since(last))
		ot.replanMS = st.ReplanLastMS
	} else if spec.paced {
		if _, err := d.waitParked(); err != nil && o.failure == "" {
			o.failure = err.Error()
		}
	}
	return o, ot
}

// phase drives rounds for the given time and returns them with the
// wall time they took. With a tracer, plain and traced blocks of
// traceBlock alternate, so that both kinds of round see the same daemon
// at the same age while each runs among its own kind, as it would in a
// run of its own: a traced round's scrape changes what the next round
// finds. opTrace.wakeMS is nil for a plain round.
func (d *daemon) phase(spec daemonSpec, gen *generator, seq *int, length time.Duration, tr *tracer) ([]op, []opTrace, time.Duration, error) {
	var ops []op
	var traces []opTrace
	start := time.Now()
	for time.Since(start) < length {
		roundTracer := tr
		if time.Since(start)/traceBlock%2 == 0 {
			roundTracer = nil
		}
		o, ot := d.round(spec, *seq, gen.next(), roundTracer)
		*seq++
		ops = append(ops, o)
		traces = append(traces, ot)
		if o.failure != "" && !d.usable() {
			return ops, traces, time.Since(start), fmt.Errorf("round %d: %s", o.seq, o.failure)
		}
	}
	return ops, traces, time.Since(start), nil
}

// usable reports whether another round can run: the daemon lives and
// no watcher lost its connection.
func (d *daemon) usable() bool {
	if !d.proc.alive() || d.pending != 0 {
		return false
	}
	for _, w := range d.watchers {
		if w.err != nil {
			return false
		}
	}
	return true
}

// daemonTopology returns the -topology argument for quorumd and the
// same topology loaded in this process, which seeds the generator and
// the shadow deployment. loadMS is the time topology.Load took (0 for a
// built-in topology, which quorumd does not load either).
func daemonTopology(env *benchEnv, spec daemonSpec) (arg string, topo *topology.Topology, loadMS float64, err error) {
	if spec.topology == "planetlab50" {
		return "planetlab50", topology.PlanetLab50(topology.DefaultSeed), 0, nil
	}
	path := filepath.Join(env.tmp, "as300.topo")
	gen, err := env.procs.start(env.tmp, "topogen", env.bin("topogen"),
		"-as-sites", strconv.Itoa(as300Sites), "-o", path)
	if err != nil {
		return "", nil, 0, err
	}
	<-gen.exited
	f, err := os.Open(path)
	if err != nil {
		return "", nil, 0, fmt.Errorf("topogen wrote no topology: %w (%s)", err, gen.logTail())
	}
	defer f.Close()
	start := time.Now()
	topo, err = topology.Load(f)
	if err != nil {
		return "", nil, 0, err
	}
	return path, topo, ms(time.Since(start)), nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 9

// traceBlock is how long part one of a traced run stays plain, or
// traced, before it switches.
const traceBlock = time.Second

// warmUp is the unmeasured lead-in of every daemon window.
const warmUp = 2 * time.Second

// runDaemon is the untraced run of a daemon workload: it measures the
// end-to-end metrics over a window of the given length.
func runDaemon(env *benchEnv, spec daemonSpec, seed int64, window time.Duration) (*outcome, error) {
	topoArg, topo, _, err := daemonTopology(env, spec)
	if err != nil {
		return nil, err
	}
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		if d, s, err = startDaemon(env, spec, topoArg); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer d.stop()

	gen := newGenerator(spec.mix, seed, topo, daemonDemand)
	seq := 0
	all, _, _, err := d.phase(spec, gen, &seq, warmUp, nil)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.proc.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	ops, _, elapsed, err := d.phase(spec, gen, &seq, window, nil)
	if err != nil {
		return nil, err
	}
	self1 := selfCPUSeconds()
	cpu1, err := cpuSeconds(d.proc.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.proc.pid())
	if err != nil {
		return nil, err
	}
	all = append(all, ops...)

	out := newOutcome()
	lat := make([]float64, 0, len(ops))
	for _, o := range ops {
		out.attempt(o.failure)
		if o.failure == "" {
			lat = append(lat, o.latencyMS)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation of the window succeeded: %s", ops[0].failure)
	}
	lat = sortedCopy(lat)
	out.set("setup_s", median(setups))
	out.set("op_p50_ms", percentile(lat, 50))
	out.set("op_p90_ms", percentile(lat, 90))
	out.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	out.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(len(lat)))
	out.set("peak_rss_mb", rss)
	out.notef("%d operations in %.1fs (one poster, closed loop, %d watchers)", len(lat), elapsed.Seconds(), spec.watchers)
	if p, ok := highestPercentile(len(lat)); ok {
		out.notef("highest supported percentile: p%g = %.3f ms (%d samples)", p, percentile(lat, p), len(lat))
	}
	out.notef("load generator used %.1f%% of one core", (self1-self0)/elapsed.Seconds()*100)

	// Correctness beyond the per-round checks: the daemon's history must
	// agree with the replies it gave, and replies, placements and bodies
	// must equal an in-process replay of the same batches.
	if len(out.failures) == 0 { // a failed batch published nothing; the two would not line up
		out.attempt(checkHistory(d, all))
	}
	sh, err := newShadow(topo)
	if err != nil {
		return nil, err
	}
	checked := 0
	deadline := time.Now().Add(window / 5)
	for i := range all {
		if all[i].failure != "" || time.Now().After(deadline) {
			break
		}
		out.attempt(sh.check(&all[i], nil))
		checked++
	}
	out.notef("replayed %d of %d batches in process: replies, placements and plan bodies compared", checked, len(all))
	return out, nil
}

// checkFDLimit refuses to run a workload whose sockets would come
// close to the descriptor limit, where failures stop being the
// daemon's.
func checkFDLimit(watchers int) error {
	lim, err := fdLimit()
	if err != nil {
		return err
	}
	if lim < uint64(2*watchers) {
		return fmt.Errorf("open-file limit %d is below twice the %d watcher connections; raise it with ulimit -n", lim, watchers)
	}
	return nil
}

// historyJSON is quorumd's GET /v1/history payload.
type historyJSON struct {
	Snapshots []serve.HistoryEntryJSON `json:"snapshots"`
}

// checkHistory compares the daemon's retained history, newest first,
// with the replies the poster collected: same versions in the same
// order, same decisions, same response times.
func checkHistory(d *daemon, ops []op) string {
	resp, err := d.do(d.post, getRequest("/v1/history"), postTimeout)
	if err != nil {
		return fmt.Sprintf("GET /v1/history: %v", err)
	}
	if resp.Status != 200 {
		return fmt.Sprintf("GET /v1/history: HTTP %d", resp.Status)
	}
	var h historyJSON
	if err := json.Unmarshal(resp.Body, &h); err != nil {
		return fmt.Sprintf("decoding history: %v", err)
	}
	if want := min(len(ops)+1, daemonHistory); len(h.Snapshots) != want {
		return fmt.Sprintf("history holds %d entries, want %d", len(h.Snapshots), want)
	}
	for i, e := range h.Snapshots {
		j := len(ops) - 1 - i
		if j < 0 {
			break // the initial plan, which no batch produced
		}
		r := ops[j].reply
		if e.Version != r.Version || e.Provenance.Decision != r.Provenance.Decision || e.ResponseMS != r.ResponseMS {
			return fmt.Sprintf("history entry %d is version %d %q %.6f ms; batch %d was answered version %d %q %.6f ms",
				i, e.Version, e.Provenance.Decision, e.ResponseMS, ops[j].seq, r.Version, r.Provenance.Decision, r.ResponseMS)
		}
	}
	return ""
}
