// Package deploy is the online-adaptation layer between the staged
// planner and the serving layer: a Manager owns one plan.Planner,
// serializes delta ingestion (RTT probes, capacity changes, demand
// telemetry, per-site demand weights) through a single apply loop, and
// publishes each re-plan as an immutable plan.Snapshot behind an atomic
// pointer, so readers are never blocked by an in-flight re-plan.
//
// Strategy- and evaluation-only re-plans are always taken — they are
// free in the real world (clients just pick quorums differently). A
// placement move is not: elements must migrate state across the WAN. The
// manager therefore gates placement changes behind a migration cost
// model: when a delta batch dirties the placement stage, it computes
// both the candidate re-placement and the holdover (the previous
// placement pinned on the new conditions, strategy re-optimized) and
// moves only when the predicted response-time gain is at least
// Config.MoveCost milliseconds. A held placement stays pinned on the
// planner, so subsequent re-plans keep honoring the hold until a later
// drift justifies the move.
package deploy

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/journal"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Delta kinds accepted by the manager.
const (
	// KindRTT updates the raw round-trip time of one site pair (an RTT
	// probe result): fields A, B, Value (ms).
	KindRTT = "rtt"
	// KindCapacity updates one site's capacity: fields Site, Value.
	KindCapacity = "capacity"
	// KindUniformCapacity sets every site's capacity: field Value.
	KindUniformCapacity = "uniform-capacity"
	// KindDemand re-targets the per-client demand: field Value.
	KindDemand = "demand"
	// KindWeights re-targets per-site demand weights (demand telemetry):
	// field Weights, site name → relative weight, unlisted sites weigh 1;
	// an empty map restores uniform demand.
	KindWeights = "weights"
	// KindAddSite splices a new site into the deployment: fields Site
	// (name), Region, Lat, Lon, AccessMS, and Value (capacity; 0 means
	// the default capacity 1). RTTs to every existing site are
	// synthesized with topology.EstimateRTT until probes measure them.
	KindAddSite = "add-site"
	// KindRemoveSite removes a site (outage, decommission): field Site.
	KindRemoveSite = "remove-site"
)

// DefaultPeerAccessMS is the access-link delay assumed for the far end
// when an add-site delta synthesizes RTTs to existing sites: existing
// sites' access delays were folded into the pairwise metric at
// generation time and are no longer individually known, so churn
// tooling and the scenario engine share this nominal value.
const DefaultPeerAccessMS = 2.0

// Delta is one typed world change posted to the deployment. Exactly the
// fields its Kind documents are meaningful; Validate rejects anything
// malformed before the apply loop touches the planner.
type Delta struct {
	Kind string `json:"kind"`
	// A, B name the site pair of an "rtt" delta.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Site names the site of a "capacity" delta.
	Site string `json:"site,omitempty"`
	// Value carries the milliseconds ("rtt"), capacity ("capacity",
	// "uniform-capacity", "add-site"), or per-client demand ("demand").
	Value float64 `json:"value,omitempty"`
	// Weights carries the per-site weights of a "weights" delta.
	Weights map[string]float64 `json:"weights,omitempty"`
	// Region, Lat, Lon, and AccessMS describe the new site of an
	// "add-site" delta (see topology.Site and topology.EstimateRTT).
	Region   string  `json:"region,omitempty"`
	Lat      float64 `json:"lat,omitempty"`
	Lon      float64 `json:"lon,omitempty"`
	AccessMS float64 `json:"access_ms,omitempty"`
}

// Validate checks the delta's shape (kind and values); site names are
// resolved against the deployment at apply time.
func (d Delta) Validate() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("deploy: %s delta: %s", d.Kind, fmt.Sprintf(format, args...))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch d.Kind {
	case KindRTT:
		if d.A == "" || d.B == "" {
			return bad("needs both site names a and b")
		}
		if d.A == d.B {
			return bad("self-RTT for site %q", d.A)
		}
		if d.Value <= 0 || !finite(d.Value) {
			return bad("invalid RTT %v ms", d.Value)
		}
	case KindCapacity:
		if d.Site == "" {
			return bad("needs a site name")
		}
		if d.Value <= 0 || !finite(d.Value) {
			return bad("invalid capacity %v", d.Value)
		}
	case KindUniformCapacity:
		if d.Value <= 0 || !finite(d.Value) {
			return bad("invalid capacity %v", d.Value)
		}
	case KindDemand:
		if d.Value < 0 || !finite(d.Value) {
			return bad("invalid demand %v", d.Value)
		}
	case KindWeights:
		for site, w := range d.Weights {
			if w <= 0 || !finite(w) {
				return bad("invalid weight %v for site %q", w, site)
			}
		}
	case KindAddSite:
		if d.Site == "" {
			return bad("needs a site name")
		}
		if !finite(d.Lat) || d.Lat < -90 || d.Lat > 90 {
			return bad("invalid latitude %v", d.Lat)
		}
		if !finite(d.Lon) || d.Lon < -180 || d.Lon > 180 {
			return bad("invalid longitude %v", d.Lon)
		}
		if d.AccessMS < 0 || !finite(d.AccessMS) {
			return bad("invalid access delay %v ms", d.AccessMS)
		}
		if d.Value < 0 || !finite(d.Value) {
			return bad("invalid capacity %v", d.Value)
		}
	case KindRemoveSite:
		if d.Site == "" {
			return bad("needs a site name")
		}
	case "":
		return fmt.Errorf("deploy: delta kind missing")
	default:
		return fmt.Errorf("deploy: unknown delta kind %q", d.Kind)
	}
	return nil
}

// key identifies the state a delta overwrites, for coalescing.
func (d Delta) key() string {
	switch d.Kind {
	case KindRTT:
		a, b := d.A, d.B
		if a > b {
			a, b = b, a
		}
		return "rtt:" + a + "|" + b
	case KindCapacity:
		return "cap:" + d.Site
	default:
		return d.Kind
	}
}

// supersedes reports whether applying d after e makes e's effect
// unobservable, so e can be dropped from a batch. Membership deltas
// (add-site/remove-site) never coalesce in either direction: their
// validity depends on batch position ([add x, add x] must fail exactly
// as it would applied sequentially), and they reset planner state
// (weights, pins) that value deltas do not.
func (d Delta) supersedes(e Delta) bool {
	if d.membership() || e.membership() {
		return false
	}
	if d.Kind == KindUniformCapacity && (e.Kind == KindCapacity || e.Kind == KindUniformCapacity) {
		return true
	}
	return d.key() == e.key()
}

func (d Delta) membership() bool {
	return d.Kind == KindAddSite || d.Kind == KindRemoveSite
}

// Coalesce collapses a batch: each delta drops any earlier delta it
// supersedes (same site pair's RTT, same site's capacity, the
// deployment-wide demand/weights/uniform-capacity), preserving the order
// — and therefore the final state — of the survivors.
func Coalesce(ds []Delta) []Delta {
	out := make([]Delta, 0, len(ds))
	for _, d := range ds {
		kept := out[:0]
		for _, e := range out {
			if !d.supersedes(e) {
				kept = append(kept, e)
			}
		}
		out = append(kept, d)
	}
	return out
}

// Config tunes a Manager.
type Config struct {
	// MoveCost is the hysteresis threshold in milliseconds of predicted
	// average response time: a placement move is taken only when it is
	// predicted to win at least this much over keeping the old placement.
	// Zero (or negative) disables hysteresis — every re-place is taken.
	MoveCost float64
	// HistoryLimit bounds the snapshot history ring (default 32).
	HistoryLimit int
}

func (c Config) historyLimit() int {
	if c.HistoryLimit <= 0 {
		return 32
	}
	return c.HistoryLimit
}

// Entry is one published re-plan: the snapshot plus the manager-level
// adaptation decision that produced it.
type Entry struct {
	// Snapshot is the immutable plan.
	Snapshot *plan.Snapshot
	// Decision records the adaptation outcome: "initial", "adopt (…)" for
	// strategy/eval-only re-plans, "move (…)" or "hold (…)" for placement
	// decisions.
	Decision string
	// Applied is the cumulative number of deltas applied when this entry
	// was published: the prefix length, over the concatenated batches of
	// the deployment's journal (see Recover), of the deltas it reflects.
	Applied int
}

// Manager owns one deployment: a planner, its published snapshot, and a
// bounded history. All mutation is serialized through Apply; Current and
// History never block on an in-flight re-plan.
type Manager struct {
	cfg Config

	mu      sync.Mutex // serializes the apply loop (planner access)
	p       *plan.Planner
	applied int
	journal *journal.Writer // optional durable batch log (see Recover)

	cur atomic.Pointer[Entry]
	// lastPlan holds the planner's counters for the plan that absorbed
	// the latest batch (see LastPlan).
	lastPlan atomic.Pointer[plan.Stats]

	hmu     sync.Mutex // guards history and the notify channel
	history []*Entry
	notify  chan struct{}
}

// New wraps a planner (which must not be used elsewhere afterwards),
// runs the initial plan, and publishes it as version 1.
func New(p *plan.Planner, cfg Config) (*Manager, error) {
	if p == nil {
		return nil, fmt.Errorf("deploy: nil planner")
	}
	m := &Manager{cfg: cfg, p: p, notify: make(chan struct{})}
	snap, err := m.planBatch()
	if err != nil {
		return nil, fmt.Errorf("deploy: initial plan: %w", err)
	}
	m.publish(&Entry{Snapshot: snap, Decision: "initial"})
	return m, nil
}

// Current returns the latest published entry without blocking: an
// in-flight Apply keeps serving the previous snapshot until its re-plan
// commits.
func (m *Manager) Current() *Entry { return m.cur.Load() }

// LastPlan returns the planner's counters for the plan that absorbed the
// most recent published batch — the candidate plan when the hysteresis
// gate ran a holdover plan after it. Like Current it never blocks. The
// counters are an operator's sidecar: nothing in them reaches a snapshot,
// a plan body or the journal.
func (m *Manager) LastPlan() plan.Stats { return *m.lastPlan.Load() }

// planBatch plans the deltas applied since the last plan and keeps that
// plan's counters. Called with mu held (or before the manager is shared).
func (m *Manager) planBatch() (*plan.Snapshot, error) {
	snap, err := m.p.Plan()
	if err == nil {
		stats := m.p.LastPlan()
		m.lastPlan.Store(&stats)
	}
	return snap, err
}

// History returns the retained entries, oldest first (bounded by
// Config.HistoryLimit). The slice is a copy; entries are immutable.
func (m *Manager) History() []*Entry {
	m.hmu.Lock()
	defer m.hmu.Unlock()
	return append([]*Entry(nil), m.history...)
}

// Notify returns the epoch channel closed at the next publish: every
// parked receiver is woken by that single close, so fan-out cost is
// independent of the watcher count. The protocol for a lost-wakeup-free
// park is fetch-then-recheck: fetch the channel, re-check Current, and
// only then park — a publish that lands after the fetch closes exactly
// the fetched channel. A receiver that wakes must re-fetch before
// parking again (the closed channel stays closed).
func (m *Manager) Notify() <-chan struct{} {
	m.hmu.Lock()
	ch := m.notify
	m.hmu.Unlock()
	return ch
}

// publish stores the entry, pushes it onto the history ring, and wakes
// every waiter.
func (m *Manager) publish(e *Entry) {
	m.cur.Store(e)
	m.hmu.Lock()
	m.history = append(m.history, e)
	if limit := m.cfg.historyLimit(); len(m.history) > limit {
		m.history = append(m.history[:0:0], m.history[len(m.history)-limit:]...)
	}
	close(m.notify)
	m.notify = make(chan struct{})
	m.hmu.Unlock()
}

// ErrReplan marks an Apply error raised after the batch was applied:
// the deltas are in force (the world changed), but no feasible plan
// exists for them yet — e.g. the strategy LP went infeasible under the
// new capacities. The previous snapshot keeps being served until a
// later batch re-plans successfully.
var ErrReplan = fmt.Errorf("deploy: re-plan failed")

// Apply coalesces and applies one batch of deltas, re-plans, and
// publishes the resulting snapshot. The batch is validated up front
// (shape and site names), so a malformed batch is rejected without
// touching the deployment; an error wrapping ErrReplan means the batch
// WAS applied but planning it failed. A batch that dirties nothing new
// returns the current entry without publishing a new version.
func (m *Manager) Apply(deltas []Delta) (*Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	batch := Coalesce(deltas)
	if err := m.validateBatch(batch); err != nil {
		return nil, err
	}
	before := m.p.PendingDeltas()
	for _, d := range batch {
		if err := d.ApplyTo(m.p); err != nil {
			return nil, fmt.Errorf("deploy: applying %s delta: %w", d.Kind, err)
		}
	}
	m.applied += len(batch)

	// Publish only when the batch changed something. Leftover dirt from
	// a previous move decision (the planner lazily reconstructs the
	// already-published candidate placement) does not warrant a version,
	// so the planner's effective-mutation count — not its dirty flags —
	// is the signal.
	if m.p.PendingDeltas() == before {
		cur := m.Current()
		if jerr := m.journalBatch(journalRecord{
			Deltas:  batch,
			Version: cur.Snapshot.Version,
			Applied: m.applied,
		}); jerr != nil {
			return cur, jerr
		}
		return cur, nil
	}
	entry, err := m.replan()
	if err != nil {
		err = fmt.Errorf("%w: %s", ErrReplan, err)
		// A failed re-plan still mutated the deployment; the journal must
		// carry the batch or replay would skip it and diverge.
		if jerr := m.journalBatch(journalRecord{
			Deltas:  batch,
			Version: m.Current().Snapshot.Version,
			Error:   err.Error(),
			Applied: m.applied,
		}); jerr != nil {
			return nil, jerr
		}
		return nil, err
	}
	entry.Applied = m.applied
	m.publish(entry)
	if jerr := m.journalBatch(journalRecord{
		Deltas:    batch,
		Version:   entry.Snapshot.Version,
		Published: true,
		Decision:  entry.Decision,
		Applied:   m.applied,
	}); jerr != nil {
		return entry, jerr
	}
	return entry, nil
}

// validateBatch checks every delta's shape and resolves site names
// against the deployment, tracking the membership changes the batch
// itself makes so an add-site'd site is referenceable later in the same
// batch (and a removed one is not). A batch that fails here is rejected
// without touching the planner. Called with mu held.
func (m *Manager) validateBatch(batch []Delta) error {
	members := make(map[string]bool, m.p.Size())
	for i := 0; i < m.p.Size(); i++ {
		members[m.p.Site(i).Name] = true
	}
	for _, d := range batch {
		if err := d.Validate(); err != nil {
			return err
		}
		switch d.Kind {
		case KindAddSite:
			if members[d.Site] {
				return fmt.Errorf("deploy: add-site delta: site %q already exists", d.Site)
			}
			members[d.Site] = true
		case KindRemoveSite:
			if !members[d.Site] {
				return fmt.Errorf("deploy: remove-site delta: no site named %q", d.Site)
			}
			if len(members) <= 2 {
				// Mirror the planner's membership floor up front so the
				// whole batch is rejected untouched.
				return fmt.Errorf("deploy: remove-site delta: cannot remove %q: only %d sites left", d.Site, len(members))
			}
			delete(members, d.Site)
		default:
			for _, site := range d.sites() {
				if !members[site] {
					return fmt.Errorf("deploy: %s delta: no site named %q", d.Kind, site)
				}
			}
		}
	}
	return nil
}

// replan runs the adaptation policy: free re-plans pass straight
// through; placement-dirtying batches run the move-vs-hold comparison.
// Called with mu held.
func (m *Manager) replan() (*Entry, error) {
	prev := m.Current().Snapshot

	if !m.p.Dirty(plan.StagePlacement) {
		// Strategy/eval-only: always taken. A pinned hold stays pinned.
		snap, err := m.planBatch()
		if err != nil {
			return nil, err
		}
		return &Entry{Snapshot: snap, Decision: "adopt (" + snap.Provenance.Summary() + ")"}, nil
	}

	// The batch dirtied the placement. Compute the candidate
	// re-placement first (clearing any standing hold so the construction
	// actually runs).
	m.p.ClearPlacementPin()
	cand, err := m.planBatch()
	if err != nil {
		return nil, err
	}
	if m.cfg.MoveCost <= 0 {
		return &Entry{Snapshot: cand, Decision: "move (no hysteresis)"}, nil
	}
	prevF, ok := mapPlacement(prev, m.p, cand.Topology)
	if !ok {
		return &Entry{Snapshot: cand, Decision: "move (forced: previous placement lost a site)"}, nil
	}
	if cand.Placement.Equal(prevF) {
		return &Entry{Snapshot: cand, Decision: "adopt (placement unchanged)"}, nil
	}

	// Holdover: previous placement pinned on the new conditions, with
	// the strategy re-optimized for it.
	if err := m.p.PinPlacement(prevF.Targets()); err != nil {
		return &Entry{Snapshot: cand, Decision: "move (forced: " + err.Error() + ")"}, nil
	}
	hold, err := m.p.Plan()
	if err != nil {
		// The old placement is no longer feasible (e.g. the strategy LP
		// went infeasible under it): the move is forced.
		m.p.ClearPlacementPin()
		if _, rerr := m.p.Plan(); rerr != nil {
			return nil, rerr
		}
		return &Entry{Snapshot: cand, Decision: "move (forced: holdover infeasible)"}, nil
	}
	gain := hold.Response - cand.Response
	if gain >= m.cfg.MoveCost {
		// Unpin; the next Plan lazily reconstructs the candidate
		// placement (the construction is deterministic).
		m.p.ClearPlacementPin()
		return &Entry{
			Snapshot: cand,
			Decision: fmt.Sprintf("move (gain %.2fms >= cost %.2fms)", gain, m.cfg.MoveCost),
		}, nil
	}
	// The candidate plan consumed the batch's provenance deltas; the
	// published hold must carry them (its own plan only saw the
	// internal pin), so publish a copy with the candidate's delta log.
	hs := *hold
	hs.Provenance.Deltas = cand.Provenance.Deltas
	return &Entry{
		Snapshot: &hs,
		Decision: fmt.Sprintf("hold (gain %.2fms < cost %.2fms)", gain, m.cfg.MoveCost),
	}, nil
}

// mapPlacement translates a snapshot's placement onto topo, the
// planner's current sites, by site name; ok is false when a hosting site
// no longer exists.
func mapPlacement(snap *plan.Snapshot, p *plan.Planner, topo *topology.Topology) (core.Placement, bool) {
	out := make([]int, snap.Placement.UniverseSize())
	for u := range out {
		idx := p.SiteIndex(snap.Topology.Site(snap.Placement.Node(u)).Name)
		if idx < 0 {
			return core.Placement{}, false
		}
		out[u] = idx
	}
	f, err := core.NewPlacement(out, topo)
	return f, err == nil
}

// sites lists the site names a non-membership delta references (for
// validation; membership kinds are handled positionally by
// validateBatch).
func (d Delta) sites() []string {
	switch d.Kind {
	case KindRTT:
		return []string{d.A, d.B}
	case KindCapacity:
		return []string{d.Site}
	case KindWeights:
		names := make([]string, 0, len(d.Weights))
		for site := range d.Weights {
			names = append(names, site)
		}
		sort.Strings(names)
		return names
	}
	return nil
}

// ApplyTo mutates the planner with the (already validated) delta. It is
// the single translation from wire deltas to planner mutations, used by
// the manager's apply loop and by telemetry tooling (scenario streaming,
// quorumgen) that mirrors a deployment on a local planner.
func (d Delta) ApplyTo(p *plan.Planner) error {
	switch d.Kind {
	case KindRTT:
		return p.SetRTT(p.SiteIndex(d.A), p.SiteIndex(d.B), d.Value)
	case KindCapacity:
		return p.SetSiteCapacity(p.SiteIndex(d.Site), d.Value)
	case KindUniformCapacity:
		return p.SetUniformCapacity(d.Value)
	case KindDemand:
		return p.SetDemand(d.Value)
	case KindWeights:
		if len(d.Weights) == 0 {
			return p.SetClientWeights(nil)
		}
		w := make([]float64, p.Size())
		for i := range w {
			w[i] = 1
		}
		for site, weight := range d.Weights {
			w[p.SiteIndex(site)] = weight
		}
		return p.SetClientWeights(w)
	case KindAddSite:
		site := topology.Site{Name: d.Site, Region: d.Region, Lat: d.Lat, Lon: d.Lon}
		rtts := make([]float64, p.Size())
		for i := range rtts {
			rtts[i] = topology.EstimateRTT(site, p.Site(i), 0, d.AccessMS, DefaultPeerAccessMS)
		}
		capacity := d.Value
		if capacity == 0 {
			capacity = 1
		}
		return p.AddSite(site, rtts, capacity)
	case KindRemoveSite:
		return p.RemoveSite(d.Site)
	default:
		return fmt.Errorf("unknown kind %q", d.Kind)
	}
}
