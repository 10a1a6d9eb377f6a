package fleet

import (
	"context"
	"fmt"
	"time"

	runjournal "github.com/quorumnet/quorumnet/internal/fleet/journal"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// StandbyOptions configures a standby coordinator.
type StandbyOptions struct {
	// Journal is the path of the run journal to tail. Required.
	Journal string
	// LeaseTTL is how stale the primary's newest journal record may be
	// before the standby declares it dead and takes over (default 5s).
	// Must comfortably exceed the primary's lease renewal interval (1s),
	// or a healthy primary gets fenced mid-run.
	LeaseTTL time.Duration
	// Now overrides the clock used for staleness checks; tests drive
	// takeovers with fake clocks instead of sleeping. Journal timestamps
	// compare against this clock, so primary and standby clocks must be
	// roughly synchronized — with one LeaseTTL of skew budget.
	Now func() time.Time
	// Coordinator is the Config template for the takeover coordinator:
	// its Registry (the surviving workers re-adopted) or Workers list,
	// retry policy, Logf, OnEvent. Shards and Journal are overwritten
	// from the journal itself.
	Coordinator Config
}

func (o StandbyOptions) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 5 * time.Second
	}
	return o.LeaseTTL
}

// standbyPollInterval is the journal re-read cadence while the primary
// is healthy.
const standbyPollInterval = time.Second

func (o StandbyOptions) now() time.Time {
	if o.Now == nil {
		return time.Now()
	}
	return o.Now()
}

// Standby tails a run journal and takes over the run when the primary
// coordinator's lease goes stale: it reopens the journal at the next
// epoch (fencing its dispatches from the dead primary's), re-adopts the
// surviving workers through the registry, re-dispatches only the shards
// without a journaled result, and merges — byte-identical to the run
// the primary would have produced. The dead primary's in-flight
// attempts are harmless: its closed sockets cancel them at their next
// point boundary, a response that still comes goes to the dead process,
// never to the new epoch, and the journal keeps the first complete
// record per shard.
type Standby struct {
	opts StandbyOptions
}

// NewStandby validates the options.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Journal == "" {
		return nil, fmt.Errorf("fleet: standby needs a journal path")
	}
	if opts.Coordinator.Registry == nil && len(opts.Coordinator.Workers) == 0 {
		return nil, fmt.Errorf("fleet: standby needs a coordinator Registry or worker list to take over with")
	}
	return &Standby{opts: opts}, nil
}

func (s *Standby) logf(format string, args ...interface{}) {
	if s.opts.Coordinator.Logf != nil {
		s.opts.Coordinator.Logf(format, args...)
	}
}

// Check loads the journal and reports whether the primary's lease is
// stale — no stamped record within LeaseTTL of now and the run not yet
// merged. The returned state is what TakeOver resumes from.
func (s *Standby) Check() (st *runjournal.State, stale bool, err error) {
	st, err = runjournal.Load(s.opts.Journal)
	if err != nil {
		return nil, false, err
	}
	if st.Merged {
		return st, false, nil
	}
	return st, s.opts.now().Sub(st.LastActivity) >= s.opts.leaseTTL(), nil
}

// TakeOver assumes the run: continue the journal at the next epoch and
// resume dispatch of the unfinished shards on the template coordinator,
// under the journal's shard count and RunConfig. Run calls it once the
// lease is stale; quorumbench -resume calls it at once.
func (s *Standby) TakeOver(st *runjournal.State) (*scenario.Table, error) {
	run, err := runjournal.Continue(s.opts.Journal, st, runjournal.Options{Now: s.opts.Now})
	if err != nil {
		return nil, err
	}
	defer run.Close()
	cfg := s.opts.Coordinator
	cfg.Shards = st.Shards
	cfg.Journal = run
	coord, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.logf("fleet standby: taking over %s at epoch %d (%d/%d shards recorded, last activity %s by %s)",
		s.opts.Journal, run.Epoch(), len(st.Completed), st.Shards,
		st.LastActivity.Format(time.RFC3339), st.LeaseOwner)
	return coord.Resume(st.Spec, st.Config, st.Completed)
}

// Run is the production loop: poll the journal until the primary's
// lease goes stale, then take over and return the merged table. If the
// primary finishes the run itself, Run returns (nil, nil) — the standby
// was never needed. ctx cancellation also returns (nil, ctx.Err()).
func (s *Standby) Run(ctx context.Context) (*scenario.Table, error) {
	for {
		st, stale, err := s.Check()
		if err != nil {
			return nil, err
		}
		if st.Merged {
			s.logf("fleet standby: run in %s merged under %s; standing down", s.opts.Journal, st.LeaseOwner)
			return nil, nil
		}
		if stale {
			return s.TakeOver(st)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(standbyPollInterval):
		}
	}
}
