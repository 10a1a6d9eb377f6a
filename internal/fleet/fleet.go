package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers lists worker addresses ("host:port" or full http:// URLs)
	// to pin into a private roster: one slot each, live for good, named
	// by their address in events and journal records. Leave empty when
	// Registry is set.
	Workers []string
	// Registry supplies a roster of self-registered workers instead:
	// workers may join mid-run, and a worker that misses heartbeats
	// while holding a shard triggers an immediate re-dispatch on another
	// worker (the dead one excluded, so the shard doesn't bounce back)
	// instead of burning a ShardTimeout.
	Registry *Registry
	// MinWorkers delays the first dispatch until this many workers are
	// live (default 1).
	MinWorkers int
	// Shards is the partition count (0 = one shard per worker). More
	// shards than slots is fine — a worker is sent the next shard as it
	// finishes one — and often better for load balance.
	Shards int
	// Attempts bounds how many workers one shard is tried on before the
	// run fails (default 5). Retries move to another worker, excluding
	// the ones that already failed the shard.
	Attempts int
	// RetryBackoff is the pause before a shard retries on a worker that
	// already failed it — the single-live-worker case, where excluding
	// the failed worker would otherwise starve the shard and not
	// excluding it would hot-loop (0 = 250ms).
	RetryBackoff time.Duration
	// ShardTimeout bounds one shard attempt's request (0 = 10m), sent
	// only once a worker has a free slot for it. A worker that accepted
	// a shard but hangs — while still heartbeating — charges one attempt
	// when it expires; a worker that stops heartbeating is handled far
	// sooner by re-dispatch.
	ShardTimeout time.Duration
	// Journal, when set, records every dispatch/complete/merge transition
	// of the run (see internal/fleet/journal): a crashed coordinator's
	// run resumes from the journal alone, and attempt ids carry the
	// journal's epoch so takeover generations are distinguishable. A
	// journal write failure aborts the run — an unjournaled run that
	// claims to be journaled is worse than a loud failure.
	Journal *runjournal.Run
	// Logf, when set, receives dispatch/retry/completion logs.
	Logf func(format string, args ...interface{})
	// OnEvent, when set, observes dispatch lifecycle events (progress
	// UIs, fault-injection tests). Called from the dispatcher goroutine;
	// keep handlers fast.
	OnEvent func(Event)
}

// Event is one dispatch lifecycle observation.
type Event struct {
	// Kind is one of the Event* constants.
	Kind string
	// Shard is the shard index (-1 for fleet-wide events).
	Shard int
	// Attempt is the 1-based attempt number — for backoff events, the
	// attempt the backoff delays (0 when not attempt-scoped).
	Attempt int
	// AttemptID is the shard-attempt id ("e<epoch>-s<shard>-a<attempt>")
	// — the same id recorded in the run journal, so a -progress stream
	// greps against journal records and across takeover epochs.
	AttemptID string
	// Worker is the worker's roster id — for a Config.Workers entry, its
	// address; empty for events not tied to one worker (a backoff
	// excludes them all).
	Worker string
	// Detail carries the reason or error text.
	Detail string
}

// Dispatch lifecycle event kinds.
const (
	// EventDispatch: a shard attempt was sent to a worker.
	EventDispatch = "dispatch"
	// EventWorkerJoin: a worker became live.
	EventWorkerJoin = "worker-join"
	// EventWorkerDead: a worker missed its heartbeats while holding a
	// shard; the shard is re-enqueued immediately.
	EventWorkerDead = "worker-dead"
	// EventRedispatch: a shard attempt failed and the shard was
	// re-enqueued on the remaining workers.
	EventRedispatch = "redispatch"
	// EventBackoff: every live worker already failed the shard; the
	// retry waits RetryBackoff before clearing the exclusions.
	EventBackoff = "backoff"
	// EventShardDone: a shard's first valid result was accepted.
	EventShardDone = "shard-done"
	// EventLateDiscard: a superseded attempt delivered a result after
	// the shard completed; it was discarded by shard-attempt id.
	EventLateDiscard = "late-discard"
	// EventAbandon: a superseded attempt ended without a usable result.
	EventAbandon = "abandon"
)

// leaseInterval is the cadence of journal lease renewals during quiet
// stretches.
const leaseInterval = time.Second

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 10 * time.Minute
	}
	return c.ShardTimeout
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 250 * time.Millisecond
	}
	return c.RetryBackoff
}

func (c Config) attempts() int {
	if c.Attempts > 0 {
		return c.Attempts
	}
	return 5
}

// Coordinator runs scenarios across a fleet of workers: partition,
// dispatch, retry, merge — over a roster of workers: the caller's
// Registry, or a private one holding the configured Workers pinned.
// Safe for sequential reuse across runs.
type Coordinator struct {
	cfg Config
	reg *Registry
}

// New validates the configuration and builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Registry != nil && len(cfg.Workers) > 0 {
		return nil, fmt.Errorf("fleet: Registry and a worker list are exclusive")
	}
	reg := cfg.Registry
	if reg == nil {
		if len(cfg.Workers) == 0 {
			return nil, fmt.Errorf("fleet: no workers")
		}
		reg = NewRegistry(RegistryOptions{})
		for _, a := range cfg.Workers {
			a = normalizeAddr(a)
			if a == "" {
				return nil, fmt.Errorf("fleet: empty worker address")
			}
			reg.pin(a)
		}
	}
	return &Coordinator{cfg: cfg, reg: reg}, nil
}

// normalizeAddr canonicalizes a worker or registry address: trimmed, no
// trailing slash, http:// scheme added when missing ("" stays "").
func normalizeAddr(a string) string {
	a = strings.TrimSuffix(strings.TrimSpace(a), "/")
	if a == "" {
		return ""
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return a
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) event(ev Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// Run partitions the spec, executes every shard on the fleet, and
// merges the partials. The merged table is byte-identical to a local
// unsharded scenario.Run of the same spec and config, whatever order
// the shards complete in and whichever workers end up executing them.
func (c *Coordinator) Run(spec *scenario.Spec, cfg scenario.RunConfig) (*scenario.Table, error) {
	return c.run(spec, cfg, nil)
}

// Resume runs only the shards missing from completed — the partials a
// run journal recorded before the previous coordinator died — and
// merges recorded and fresh partials together. Because every shard is
// deterministic under the journaled settings, the merged table is
// byte-identical to an uninterrupted run, and Merge's exact point-cover
// check turns any duplicated or dropped shard into a hard error rather
// than silent row duplication.
func (c *Coordinator) Resume(spec *scenario.Spec, cfg scenario.RunConfig, completed map[int]*scenario.Partial) (*scenario.Table, error) {
	return c.run(spec, cfg, completed)
}

// epoch is the coordinator generation stamped into attempt ids: the
// journal's epoch when journaling, 1 otherwise.
func (c *Coordinator) epoch() int {
	if c.cfg.Journal != nil {
		return c.cfg.Journal.Epoch()
	}
	return 1
}

func attemptID(epoch, shard, attempt int) string {
	return fmt.Sprintf("e%d-s%d-a%d", epoch, shard, attempt)
}

// startLeaseTicker renews the journal lease during quiet stretches (a
// long shard with no completes must not look like a dead coordinator to
// a standby). Returns a stop function; no-op without a journal.
func (c *Coordinator) startLeaseTicker() func() {
	if c.cfg.Journal == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(leaseInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if err := c.cfg.Journal.RenewLease(leaseInterval); err != nil {
					c.logf("fleet: journal lease renewal failed: %v", err)
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// attemptShard runs one shard on one worker: one POST under the
// attempt's context, answered with the partial.
func (c *Coordinator) attemptShard(ctx context.Context, addr string, spec *scenario.Spec, cfg scenario.RunConfig, shard, shards int) (*scenario.Partial, error) {
	body, err := json.Marshal(&ShardRequest{Spec: spec, Config: cfg, Shard: shard, Shards: shards})
	if err != nil {
		return nil, err
	}
	var partial scenario.Partial
	if err := doJSON(ctx, addr+"/v1/shards", body, &partial); err != nil {
		return nil, err
	}
	if partial.Table == nil {
		return nil, fmt.Errorf("worker returned no partial table")
	}
	return &partial, nil
}

// doJSON posts one JSON body and decodes the JSON reply, surfacing
// {"error": ...} bodies as errors.
func doJSON(ctx context.Context, url string, body []byte, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// No client-wide timeout: the per-request context bounds every call.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
		}
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}
