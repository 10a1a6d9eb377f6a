package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

// shardTask is one shard waiting for a worker.
type shardTask struct {
	shard int
	// attempts already consumed by this shard.
	attempts int
	// excluded lists worker ids that already failed or died holding this
	// shard, so a retry never bounces straight back.
	excluded map[string]bool
	// lastErr and lastID describe the most recent failed attempt (worker
	// and shard-attempt id included), so an attempts-exhausted abort
	// names the exact dispatch that sank the run.
	lastErr string
	lastID  string
	// notBefore gates dispatch while a backoff is pending; backedOff
	// marks that the exclusions should be cleared when it expires (with
	// one live worker, keeping them would starve the shard forever).
	notBefore time.Time
	backedOff bool
}

// shardAttempt is one in-flight dispatch of a shard to a worker.
type shardAttempt struct {
	key     string
	shard   int
	attempt int
	worker  WorkerRef
	// excluded is the exclusion set the attempt was dispatched under
	// (without its own worker; failure handling adds it).
	excluded map[string]bool
	// superseded marks attempts whose worker died: the shard was already
	// re-enqueued, so this attempt's outcome can only be accepted if it
	// beats the replacement, and is otherwise discarded by attempt key.
	superseded bool
	cancel     context.CancelFunc
}

type attemptOutcome struct {
	key     string
	partial *scenario.Partial
	err     error
}

func copyExcluded(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// pickWorker chooses, among the live workers outside the exclusion set
// that have a free slot, the one with the lowest load-to-slots ratio, so
// advertised capacity weights dispatch — a 4-slot worker draws four
// shards for every one a 1-slot worker gets — and a recovery onto a
// heterogeneous surviving fleet doesn't pile shards onto its smallest
// member. Ties break by registration order. The ratios compare by
// cross-multiplication to stay in integers. busy reports that no worker
// was picked only because every live worker outside the exclusion set
// is full: the task waits for an outcome to free a slot.
func pickWorker(live []WorkerRef, excluded map[string]bool, load map[string]int) (WorkerRef, bool, bool) {
	best, busy := -1, false
	for i, w := range live {
		if excluded[w.ID] {
			continue
		}
		if load[w.ID] >= w.Slots {
			busy = true
			continue
		}
		if best < 0 || load[w.ID]*live[best].Slots < load[live[best].ID]*w.Slots {
			best = i
		}
	}
	if best < 0 {
		return WorkerRef{}, false, busy
	}
	return live[best], true, false
}

// run dispatches the spec's shards over the roster's live workers from
// one event loop. A shard is sent only to a worker with a free slot, so
// the pending list is the run's only queue and a worker that finishes
// early takes the next shard. Joins are observed mid-run, a worker that
// misses heartbeats while holding a shard triggers an immediate
// re-dispatch (no ShardTimeout burned), exclusions keep a re-dispatch
// from bouncing straight back, a shard every live worker already failed
// backs off before retrying, a shard that exhausts its attempts fails
// the run at once, and late duplicate results are discarded by
// shard-attempt id. A pinned roster (Config.Workers) is the case where
// no worker ever joins or dies.
func (c *Coordinator) run(spec *scenario.Spec, cfg scenario.RunConfig, recovered map[int]*scenario.Partial) (*scenario.Table, error) {
	stopLease := c.startLeaseTicker()
	defer stopLease()
	reg := c.reg
	space, err := scenario.NewSpace(spec, cfg)
	if err != nil {
		return nil, err
	}

	shards := c.cfg.Shards
	// remaining counts shards that still need a worker (a resume skips
	// recovered ones); -1 while the shard count awaits the roster.
	remaining := -1
	if shards > 0 {
		remaining = shards
		for j := 0; j < shards; j++ {
			if recovered[j] != nil {
				remaining--
			}
		}
	}

	// Wait for the starting quorum of workers; more may join later. A
	// resume with nothing left to dispatch skips the wait — merging
	// recovered partials needs no fleet.
	minWorkers := c.cfg.MinWorkers
	if minWorkers <= 0 {
		minWorkers = 1
	}
	for remaining != 0 {
		ch := reg.Changed()
		live := reg.Live()
		if len(live) >= minWorkers {
			break
		}
		c.logf("fleet: %s: waiting for workers (%d/%d live)", spec.Name, len(live), minWorkers)
		select {
		case <-ch:
		case <-time.After(reg.HeartbeatInterval()):
			reg.ExpireNow()
		}
	}

	if shards <= 0 {
		shards = len(reg.Live())
		if shards == 0 {
			shards = 1
		}
	}
	epoch := c.epoch()
	maxAttempts := c.cfg.attempts()
	start := time.Now()
	c.logf("fleet: %s: %d points across %d shards (epoch %d, %d workers live, %d recovered)",
		spec.Name, space.NumPoints(), shards, epoch, len(reg.Live()), len(recovered))

	var pending []*shardTask
	inflight := map[string]*shardAttempt{}
	perWorker := map[string]int{}
	done := make([]*scenario.Partial, shards)
	completed := 0
	for j := 0; j < shards; j++ {
		if p := recovered[j]; p != nil {
			done[j] = p
			completed++
			continue
		}
		pending = append(pending, &shardTask{shard: j, excluded: map[string]bool{}})
	}
	redispatches := 0
	known := map[string]bool{}
	// Every spawned attempt reports exactly one outcome; the buffer holds
	// the worst case so no goroutine ever blocks on a finished run.
	results := make(chan attemptOutcome, shards*maxAttempts)

	// abort cancels every in-flight attempt and waits for each to report,
	// so no attempt outlives the run.
	abort := func(err error) (*scenario.Table, error) {
		for _, att := range inflight {
			att.cancel()
		}
		for n := len(inflight); n > 0; n-- {
			<-results
		}
		return nil, err
	}

	// takeOutcome retires one attempt and classifies its outcome. Returns
	// the task to re-enqueue, if any, and a journaling failure, which
	// aborts the run.
	takeOutcome := func(out attemptOutcome) (*shardTask, error) {
		att := inflight[out.key]
		delete(inflight, out.key)
		att.cancel()
		perWorker[att.worker.ID]--
		switch {
		case out.err == nil && done[att.shard] == nil:
			// First valid result for the shard wins — even from a
			// superseded attempt whose worker was merely partitioned from
			// the registry.
			if c.cfg.Journal != nil {
				if jerr := c.cfg.Journal.Complete(att.shard, att.key, att.worker.ID, out.partial); jerr != nil {
					return nil, fmt.Errorf("fleet: %s: journaling completion %s: %w", spec.Name, att.key, jerr)
				}
			}
			done[att.shard] = out.partial
			completed++
			c.event(Event{Kind: EventShardDone, Shard: att.shard, Attempt: att.attempt, AttemptID: att.key, Worker: att.worker.ID})
			c.logf("fleet: %s: shard %d/%d done (attempt %s on %s, %d/%d, %d rows, %.1fs)",
				spec.Name, att.shard, shards, att.key, att.worker.ID,
				completed, shards, len(out.partial.Table.Rows), time.Since(start).Seconds())
		case out.err == nil:
			c.event(Event{Kind: EventLateDiscard, Shard: att.shard, Attempt: att.attempt, AttemptID: att.key, Worker: att.worker.ID})
			c.logf("fleet: %s: shard %d/%d: discarding late duplicate result (attempt %s on %s)",
				spec.Name, att.shard, shards, att.key, att.worker.ID)
		case att.superseded || done[att.shard] != nil:
			c.event(Event{Kind: EventAbandon, Shard: att.shard, Attempt: att.attempt, AttemptID: att.key, Worker: att.worker.ID, Detail: out.err.Error()})
		default:
			excluded := copyExcluded(att.excluded)
			excluded[att.worker.ID] = true
			redispatches++
			c.event(Event{Kind: EventRedispatch, Shard: att.shard, Attempt: att.attempt, AttemptID: att.key, Worker: att.worker.ID, Detail: out.err.Error()})
			c.logf("fleet: %s: shard %d/%d attempt %s on %s failed: %v",
				spec.Name, att.shard, shards, att.key, att.worker.ID, out.err)
			return &shardTask{
				shard:    att.shard,
				attempts: att.attempt,
				excluded: excluded,
				lastErr:  out.err.Error(),
				lastID:   fmt.Sprintf("%s on %s", att.key, att.worker.ID),
			}, nil
		}
		return nil, nil
	}

	for completed < shards {
		ch := reg.Changed()
		live := reg.Live()
		liveSet := map[string]bool{}
		for _, w := range live {
			liveSet[w.ID] = true
			if !known[w.ID] {
				known[w.ID] = true
				c.event(Event{Kind: EventWorkerJoin, Shard: -1, Worker: w.ID, Detail: w.Addr})
				c.logf("fleet: %s: worker %s joined at %s (%d live)", spec.Name, w.ID, w.Addr, len(live))
			}
		}

		// Mid-job re-dispatch: an attempt whose worker went dead is
		// superseded and its shard re-enqueued immediately — within the
		// registry's missed-heartbeat window, not a ShardTimeout. The
		// attempt itself keeps waiting on its request (the worker may be
		// alive but partitioned from the registry); whichever attempt
		// delivers first wins, the loser is discarded by attempt key.
		for _, att := range inflight {
			if att.superseded || done[att.shard] != nil || liveSet[att.worker.ID] {
				continue
			}
			att.superseded = true
			redispatches++
			excluded := copyExcluded(att.excluded)
			excluded[att.worker.ID] = true
			pending = append(pending, &shardTask{
				shard:    att.shard,
				attempts: att.attempt,
				excluded: excluded,
				lastErr:  "worker died (missed heartbeats)",
				lastID:   fmt.Sprintf("%s on %s", att.key, att.worker.ID),
			})
			c.event(Event{Kind: EventWorkerDead, Shard: att.shard, Attempt: att.attempt, AttemptID: att.key, Worker: att.worker.ID, Detail: "missed heartbeats"})
			c.logf("fleet: %s: worker %s died holding shard %d/%d (attempt %s); re-dispatching now",
				spec.Name, att.worker.ID, att.shard, shards, att.key)
		}

		// Dispatch every ready task that has an eligible worker with a free
		// slot.
		now := time.Now()
		var nextWake time.Time
		var still []*shardTask
		for _, t := range pending {
			if done[t.shard] != nil {
				continue // completed by a superseded attempt meanwhile
			}
			if t.attempts >= maxAttempts {
				detail := ""
				if t.lastErr != "" {
					detail = fmt.Sprintf(" (last: %s: %s)", t.lastID, t.lastErr)
				}
				return abort(fmt.Errorf("fleet: %s: shard %d/%d failed after %d attempts%s",
					spec.Name, t.shard, shards, t.attempts, detail))
			}
			if now.Before(t.notBefore) {
				if nextWake.IsZero() || t.notBefore.Before(nextWake) {
					nextWake = t.notBefore
				}
				still = append(still, t)
				continue
			}
			if t.backedOff {
				t.excluded = map[string]bool{}
				t.backedOff = false
			}
			w, ok, busy := pickWorker(live, t.excluded, perWorker)
			if !ok {
				if busy {
					// The coordinator's pending list is the only queue:
					// the task waits here for the next outcome to free a
					// slot, charged nothing.
					still = append(still, t)
					continue
				}
				if len(live) == 0 {
					c.logf("fleet: %s: shard %d/%d waiting: no live workers", spec.Name, t.shard, shards)
					still = append(still, t)
					continue
				}
				// Every live worker already failed this shard: back off,
				// then retry with a clean slate instead of hot-looping.
				t.notBefore = now.Add(c.cfg.retryBackoff())
				t.backedOff = true
				if nextWake.IsZero() || t.notBefore.Before(nextWake) {
					nextWake = t.notBefore
				}
				still = append(still, t)
				c.event(Event{Kind: EventBackoff, Shard: t.shard, Attempt: t.attempts + 1, AttemptID: attemptID(epoch, t.shard, t.attempts+1), Detail: c.cfg.retryBackoff().String()})
				c.logf("fleet: %s: shard %d/%d: all %d live workers excluded; backing off %s",
					spec.Name, t.shard, shards, len(live), c.cfg.retryBackoff())
				continue
			}
			attempt := t.attempts + 1
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.shardTimeout())
			att := &shardAttempt{
				key:      attemptID(epoch, t.shard, attempt),
				shard:    t.shard,
				attempt:  attempt,
				worker:   w,
				excluded: copyExcluded(t.excluded),
				cancel:   cancel,
			}
			c.event(Event{Kind: EventDispatch, Shard: t.shard, Attempt: attempt, AttemptID: att.key, Worker: w.ID})
			if c.cfg.Journal != nil {
				if jerr := c.cfg.Journal.Dispatch(t.shard, att.key, w.ID); jerr != nil {
					cancel()
					return abort(fmt.Errorf("fleet: %s: journaling dispatch %s: %w", spec.Name, att.key, jerr))
				}
			}
			c.logf("fleet: %s: shard %d/%d attempt %s -> %s (%s)",
				spec.Name, t.shard, shards, att.key, w.ID, w.Addr)
			inflight[att.key] = att
			perWorker[w.ID]++
			go func(att *shardAttempt, addr string) {
				partial, err := c.attemptShard(ctx, addr, spec, cfg, att.shard, shards)
				results <- attemptOutcome{key: att.key, partial: partial, err: err}
			}(att, w.Addr)
		}
		pending = still

		// Wait for an outcome, a roster change, a backoff expiry, or the
		// liveness tick that drives heartbeat expiry.
		wait := reg.HeartbeatInterval() / 2
		if wait <= 0 {
			wait = 500 * time.Millisecond
		}
		if !nextWake.IsZero() {
			if d := time.Until(nextWake); d < wait {
				wait = d
				if wait < time.Millisecond {
					wait = time.Millisecond
				}
			}
		}
		timer := time.NewTimer(wait)
		select {
		case out := <-results:
			timer.Stop()
			t, err := takeOutcome(out)
			if err != nil {
				return abort(err)
			}
			if t != nil {
				pending = append(pending, t)
			}
		case <-ch:
			timer.Stop()
		case <-timer.C:
			reg.ExpireNow()
		}
	}

	// Drain: superseded attempts may still be running. Cancel them and
	// wait for each to report; a result that beat the cancel is
	// discarded by attempt key with an observable event.
	for _, att := range inflight {
		att.cancel()
	}
	for len(inflight) > 0 {
		if _, err := takeOutcome(<-results); err != nil {
			return abort(err)
		}
	}

	live, dead := reg.Counts()
	c.logf("fleet: %s: run complete: %d shards, %d re-dispatches, workers live=%d dead=%d (%.1fs)",
		spec.Name, shards, redispatches, live, dead, time.Since(start).Seconds())
	table, err := space.Merge(done)
	if err != nil {
		return nil, err
	}
	if c.cfg.Journal != nil {
		if jerr := c.cfg.Journal.Merged(len(table.Rows)); jerr != nil {
			return nil, fmt.Errorf("fleet: %s: recording merge: %w", spec.Name, jerr)
		}
	}
	return table, nil
}
