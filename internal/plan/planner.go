package plan

import (
	"fmt"
	"math"
	"slices"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Planner owns the staged pipeline. It is not safe for concurrent use;
// a Planner is one logical deployment being re-tuned over time.
type Planner struct {
	cfg Config

	// Mutable inputs. raw is the pre-closure RTT matrix — the source of
	// truth the topology stage closes into a metric, so edits compose the
	// same way whether applied incrementally or all at once. rawMetric
	// records that raw is already a metric (true at New, since a
	// Topology's matrix is one; SetRTT and AddSite clear it, RemoveSite
	// preserves it — a principal submatrix of a metric is a metric), in
	// which case the topology stage skips the O(n³) closure entirely.
	name      string
	sites     []topology.Site
	raw       *graph.Matrix
	rawMetric bool
	caps      []float64
	alpha     float64
	weights   []float64 // nil = uniform client demand

	// edits are the raw entries SetRTT changed since the topology stage
	// last ran, one per site pair (first old value, latest new one): what
	// the stage folds into the closed matrix instead of re-closing raw.
	// resited records that site membership changed since then, so the
	// closed matrix on hand says nothing about the current sites.
	edits   []graph.Edit
	resited bool

	// pin forces the placement stage to these element→site targets
	// instead of running the construction algorithm (nil = construct).
	pin []int

	// dirty[s] records that an input of stage s changed since the last
	// successful Plan: set by the delta that changed it, or during Plan by
	// an earlier stage whose output moved. Dirty reports the cascade.
	dirty [numStages]bool

	// version counts Plan calls; pending logs the deltas applied since
	// the last Plan for the next snapshot's provenance (pendingDropped
	// counts overflow past the note cap).
	version        uint64
	pending        []string
	pendingDropped int

	// Stage artifacts.
	topo *topology.Topology
	sys  quorum.System
	f    core.Placement
	eval *core.Eval
	// search retains the one-to-one anchor scores between plans; moved
	// lists the sites whose closed distances changed since it last placed.
	search *placement.Search
	moved  []int
	// opt is the LP skeleton for the current system, placement targets
	// and weights (nil when one of them changed); optOK adds that it is
	// bound to eval — a new evaluation of the same targets re-binds it.
	opt   *strategy.Optimizer
	optOK bool
	lpRes *strategy.Result
	strat core.Strategy

	last Stats
}

// Stats are the counters of one Plan call: what the deltas it absorbed
// cost, stage by stage (a stage that did not run, or was not reached by a
// failed Plan, leaves its fields zero). They are an operator's sidecar and
// never enter a Snapshot.
type Stats struct {
	// Closure is how the topology stage produced the metric: "incremental"
	// (edits folded into the previous closed matrix), "full" (closed from
	// raw), or "" when the stage did not run. ChangedSites counts the
	// sites with a changed distance; it is the site count after a full
	// closure with nothing to compare against.
	Closure      string `json:"closure"`
	ChangedSites int    `json:"changed_sites"`
	// AnchorsScored of Anchors candidates were built and scored by the
	// placement stage's one-to-one search (both 0 when it did not run).
	AnchorsScored int `json:"anchors_scored"`
	Anchors       int `json:"anchors"`
	// LPMethod and LPPivots describe the strategy stage's LP solve ("" and
	// 0 when it did not run or the strategy is not "lp").
	LPMethod string `json:"lp_method"`
	LPPivots int    `json:"lp_pivots"`
}

// LastPlan returns the counters of the most recent Plan call.
func (p *Planner) LastPlan() Stats { return p.last }

// New builds a planner over a starting topology. The topology is deep-
// copied (distances, sites, capacities), so later mutations of either side
// are independent.
func New(topo *topology.Topology, cfg Config) (*Planner, error) {
	if topo == nil {
		return nil, fmt.Errorf("plan: nil topology")
	}
	switch cfg.algorithm() {
	case AlgoOneToOne, AlgoSingleton, AlgoManyToOne:
	default:
		return nil, fmt.Errorf("plan: unknown placement algorithm %q", cfg.Algorithm)
	}
	switch cfg.strategy() {
	case StratClosest, StratBalanced, StratLP:
	default:
		return nil, fmt.Errorf("plan: unknown strategy kind %q", cfg.Strategy)
	}
	if cfg.Demand < 0 || math.IsNaN(cfg.Demand) || math.IsInf(cfg.Demand, 0) {
		return nil, fmt.Errorf("plan: invalid demand %v", cfg.Demand)
	}
	sys, err := cfg.System.Build()
	if err != nil {
		return nil, err
	}
	if cfg.strategy() == StratLP && !sys.Enumerable() {
		return nil, fmt.Errorf("plan: strategy %q needs an enumerable system, got %s", StratLP, sys.Name())
	}
	sites := make([]topology.Site, topo.Size())
	for i := range sites {
		sites[i] = topo.Site(i)
	}
	p := &Planner{
		cfg:       cfg,
		name:      topo.Name(),
		sites:     sites,
		raw:       topo.Distances().Clone(),
		rawMetric: true, // a Topology's matrix is a metric by construction
		caps:      topo.Capacities(),
		alpha:     core.AlphaForDemand(cfg.Demand),
	}
	for s := Stage(0); s < numStages; s++ {
		p.dirty[s] = true
	}
	return p, nil
}

// Size returns the current number of sites.
func (p *Planner) Size() int { return len(p.sites) }

// Site returns site i's metadata.
func (p *Planner) Site(i int) topology.Site { return p.sites[i] }

// SiteIndex returns the index of the named site, or -1.
func (p *Planner) SiteIndex(name string) int {
	for i, s := range p.sites {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// RTT returns the current raw (pre-closure) round-trip time between two
// sites. The planned topology's metric may be lower where the closure
// found a shorter path.
func (p *Planner) RTT(u, v int) float64 { return p.raw.At(u, v) }

// SetRTT updates the raw round-trip time between two sites (both
// directions). The topology stage brings the closed metric up to date on
// the next Plan, so other pairs may ride through the edited link if that
// is shorter; the stages below it re-run only if some closed distance
// actually moved (always, for a reproducible planner).
func (p *Planner) SetRTT(u, v int, ms float64) error {
	if err := p.checkSite(u); err != nil {
		return err
	}
	if err := p.checkSite(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("plan: cannot set self-RTT of site %d", u)
	}
	if ms <= 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return fmt.Errorf("plan: invalid RTT %v for sites (%d,%d)", ms, u, v)
	}
	old := p.raw.At(u, v)
	if old == ms {
		return nil
	}
	p.raw.Set(u, v, ms)
	p.rawMetric = false // the edit may break the triangle inequality
	p.note("rtt %s~%s=%.3gms", p.sites[u].Name, p.sites[v].Name, ms)
	p.dirty[StageTopology] = true
	if i := slices.IndexFunc(p.edits, func(e graph.Edit) bool {
		return (e.U == u && e.V == v) || (e.U == v && e.V == u)
	}); i >= 0 {
		p.edits[i].New = ms
	} else {
		p.edits = append(p.edits, graph.Edit{U: u, V: v, Old: old, New: ms})
	}
	return nil
}

// SetSiteCapacity updates one site's capacity. When the change cannot
// affect the placement (one-to-one constructions only consult the
// eligibility predicate cap ≥ per-element load; singleton ignores
// capacities), only the strategy and evaluation stages are invalidated,
// and the strategy LP re-solves with just the capacity right-hand sides
// changed — warm-started unless the planner is reproducible.
func (p *Planner) SetSiteCapacity(v int, c float64) error {
	if err := p.checkSite(v); err != nil {
		return err
	}
	old := p.caps[v]
	if err := p.setSiteCapacity(v, c); err != nil {
		return err
	}
	if old != c {
		p.note("capacity %s=%.3g", p.sites[v].Name, c)
	}
	return nil
}

// SetUniformCapacity sets every site's capacity to c.
func (p *Planner) SetUniformCapacity(c float64) error {
	changed := false
	for v := range p.caps {
		old := p.caps[v]
		if err := p.setSiteCapacity(v, c); err != nil {
			return err
		}
		if old != c {
			changed = true
		}
	}
	if changed {
		p.note("uniform-capacity=%.3g", c)
	}
	return nil
}

// setSiteCapacity is SetSiteCapacity without the provenance note.
func (p *Planner) setSiteCapacity(v int, c float64) error {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("plan: invalid capacity %v for site %d", c, v)
	}
	old := p.caps[v]
	if old == c {
		return nil
	}
	p.caps[v] = c
	if p.capacityAffectsPlacement(old, c) {
		p.dirty[StagePlacement] = true
	} else {
		// The LP skeleton stays: only right-hand sides moved.
		p.dirty[StageStrategy] = true
	}
	return nil
}

// capacityAffectsPlacement reports whether a capacity change old→new at
// one site can alter the placement stage's output.
func (p *Planner) capacityAffectsPlacement(old, new float64) bool {
	if p.pin != nil {
		// A pinned placement is forced regardless of capacities.
		return false
	}
	switch p.cfg.algorithm() {
	case AlgoSingleton:
		// The median ignores capacities.
		return false
	case AlgoOneToOne:
		// One-to-one constructions use capacities only through the
		// eligibility predicate cap(w) ≥ per-element load (with the ball
		// search's tolerance); if the site stays on the same side, the
		// candidate balls — and hence the placement — are unchanged.
		if p.dirty[StageSystem] || p.sys == nil {
			return true // no trusted system to derive the threshold from
		}
		minCap := p.sys.UniformElementLoad() - 1e-12
		return (old >= minCap) != (new >= minCap)
	default:
		// Many-to-one feeds capacities into the GAP LP directly.
		return true
	}
}

// SetDemand updates the per-client demand; the evaluation's alpha becomes
// OpServiceTimeMS × demand. Only the evaluation stage is invalidated: the
// access-strategy LP minimizes network delay under capacity constraints
// and does not depend on alpha.
func (p *Planner) SetDemand(demand float64) error {
	if demand < 0 || math.IsNaN(demand) || math.IsInf(demand, 0) {
		return fmt.Errorf("plan: invalid demand %v", demand)
	}
	alpha := core.AlphaForDemand(demand)
	if alpha == p.alpha {
		return nil
	}
	p.alpha = alpha
	p.note("demand=%.6g", demand)
	p.dirty[StageEval] = true
	return nil
}

// SetClientWeights assigns relative demand weights to the sites (every
// site is a client, in index order). Weights scale both the response-time
// averages and the strategy LP's objective and load coefficients, so the
// LP skeleton is rebuilt. Pass nil to restore uniform demand.
func (p *Planner) SetClientWeights(weights []float64) error {
	if weights != nil {
		if len(weights) != len(p.sites) {
			return fmt.Errorf("plan: %d weights for %d sites", len(weights), len(p.sites))
		}
		for i, w := range weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("plan: invalid weight %v for site %d", w, i)
			}
		}
		weights = append([]float64(nil), weights...)
	}
	p.weights = weights
	if weights == nil {
		p.note("weights=uniform")
	} else {
		p.note("weights=per-site")
	}
	// Weights enter the LP coefficients, not just the RHS: drop the
	// skeleton.
	p.opt = nil
	p.dirty[StageStrategy] = true
	return nil
}

// AddSite appends a site with raw RTTs to every existing site (in index
// order) and the given capacity. Client weights reset to uniform.
func (p *Planner) AddSite(site topology.Site, rtts []float64, capacity float64) error {
	if site.Name == "" {
		return fmt.Errorf("plan: site needs a name")
	}
	if p.SiteIndex(site.Name) >= 0 {
		return fmt.Errorf("plan: duplicate site name %q", site.Name)
	}
	n := len(p.sites)
	if len(rtts) != n {
		return fmt.Errorf("plan: %d RTTs for %d existing sites", len(rtts), n)
	}
	for i, d := range rtts {
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("plan: invalid RTT %v to site %d", d, i)
		}
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("plan: invalid capacity %v", capacity)
	}
	raw := graph.NewMatrix(n + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			raw.Set(i, j, p.raw.At(i, j))
		}
		raw.Set(i, n, rtts[i])
	}
	p.raw = raw
	p.rawMetric = false // the new row's RTTs are arbitrary
	p.sites = append(p.sites, site)
	p.caps = append(p.caps, capacity)
	p.weights = nil
	p.pin = nil // pin targets index the old site set
	p.note("add-site %s", site.Name)
	p.resite()
	return nil
}

// RemoveSite drops the named site — modeling decommissioning or a site
// lost to an outage the planner must re-plan around. At least two sites
// must remain.
func (p *Planner) RemoveSite(name string) error {
	v := p.SiteIndex(name)
	if v < 0 {
		return fmt.Errorf("plan: no site named %q", name)
	}
	n := len(p.sites)
	if n <= 2 {
		return fmt.Errorf("plan: cannot remove %q: only %d sites left", name, n)
	}
	raw := graph.NewMatrix(n - 1)
	for i, oi := 0, 0; oi < n; oi++ {
		if oi == v {
			continue
		}
		for j, oj := 0, 0; oj < n; oj++ {
			if oj == v {
				continue
			}
			if j > i {
				raw.Set(i, j, p.raw.At(oi, oj))
			}
			j++
		}
		i++
	}
	p.raw = raw
	p.sites = append(p.sites[:v:v], p.sites[v+1:]...)
	p.caps = append(p.caps[:v:v], p.caps[v+1:]...)
	p.weights = nil
	p.pin = nil // pin targets index the old site set
	p.note("remove-site %s", name)
	p.resite()
	return nil
}

// PinPlacement forces the placement stage to the given element→site
// targets: the next Plan (and every one after, until the pin is cleared
// or site membership changes) skips the construction algorithm and
// evaluates this exact placement. The deployment layer uses pins to hold
// a placement in place when a re-place's predicted gain does not justify
// the migration cost. Targets are validated against the current site set
// here and against the system's universe at Plan time; capacity
// eligibility is deliberately not enforced — a pin is an override.
func (p *Planner) PinPlacement(targets []int) error {
	if len(targets) == 0 {
		return fmt.Errorf("plan: empty placement pin")
	}
	for _, w := range targets {
		if w < 0 || w >= len(p.sites) {
			return fmt.Errorf("plan: pin target %d out of range [0,%d)", w, len(p.sites))
		}
	}
	targets = append([]int(nil), targets...)
	if p.pin != nil && slices.Equal(p.pin, targets) {
		return nil
	}
	p.pin = targets
	p.note("pin-placement")
	p.dirty[StagePlacement] = true
	return nil
}

// ClearPlacementPin restores the construction algorithm; the next Plan
// re-places from scratch.
func (p *Planner) ClearPlacementPin() {
	if p.pin == nil {
		return
	}
	p.pin = nil
	p.note("unpin-placement")
	p.dirty[StagePlacement] = true
}

// Dirty reports whether the next Plan may recompute the stage: one of its
// inputs, or of an earlier stage's, changed. After SetRTT that is a "may"
// — whether the stages below the topology re-run depends on whether the
// closed metric moved, which only Plan finds out — and the deployment
// layer chooses its adaptation path from this conservative answer.
func (p *Planner) Dirty(s Stage) bool { return slices.Contains(p.dirty[:s+1], true) }

// PendingDeltas counts the effective mutations applied since the last
// Plan (value no-ops do not count) — the deployment layer's signal for
// whether a batch changed anything.
func (p *Planner) PendingDeltas() int { return len(p.pending) + p.pendingDropped }

// note logs one applied delta for the next snapshot's provenance,
// capping the log so an unbounded delta stream cannot grow a snapshot;
// overflow is summarized as a trailing "… (+N more)" at Plan time.
func (p *Planner) note(format string, args ...interface{}) {
	const maxNotes = 64
	if len(p.pending) >= maxNotes {
		p.pendingDropped++
		return
	}
	p.pending = append(p.pending, fmt.Sprintf(format, args...))
}

func (p *Planner) checkSite(v int) error {
	if v < 0 || v >= len(p.sites) {
		return fmt.Errorf("plan: site %d out of range [0,%d)", v, len(p.sites))
	}
	return nil
}

// resite records a membership change: the matrix on hand and everything
// indexed by site (pending edits, anchor scores, the LP skeleton) no
// longer describe the site set.
func (p *Planner) resite() {
	p.dirty[StageTopology] = true
	p.resited = true
	p.edits = nil
	p.search = nil
	p.opt = nil
}

// Plan brings every stage up to date, recomputing only what the deltas
// since the previous Plan changed, and publishes the result as an
// immutable, versioned Snapshot. A stage runs when one of its own inputs
// changed or the stage above it produced something different: an RTT edit
// that leaves the closed metric as it was re-runs nothing below the
// topology stage. The snapshot owns copies of everything the planner
// later mutates (the closed matrix is never mutated, so it is shared), so
// it can be handed to concurrent readers while the planner keeps
// absorbing deltas.
func (p *Planner) Plan() (*Snapshot, error) {
	var recomputed []Stage
	p.last = Stats{}

	if p.dirty[StageTopology] {
		if err := p.closeTopology(); err != nil {
			return nil, fmt.Errorf("plan: topology stage: %w", err)
		}
		recomputed = append(recomputed, StageTopology)
	}
	// Capacities live on the topology artifact; sync them cheaply every
	// Plan so the placement and strategy stages read current values.
	for v, c := range p.caps {
		if err := p.topo.SetCapacity(v, c); err != nil {
			return nil, fmt.Errorf("plan: site %q: %w", p.sites[v].Name, err)
		}
	}

	if p.dirty[StageSystem] {
		sys, err := p.cfg.System.Build()
		if err != nil {
			return nil, fmt.Errorf("plan: system stage: %w", err)
		}
		p.sys = sys
		p.search, p.opt = nil, nil
		p.dirty[StagePlacement] = true
		recomputed = append(recomputed, StageSystem)
	}

	if p.dirty[StagePlacement] {
		f, err := p.computePlacement()
		if err != nil {
			return nil, fmt.Errorf("plan: placement stage: %w", err)
		}
		eval, err := core.NewEval(p.topo, p.sys, f, p.alpha)
		if err != nil {
			return nil, fmt.Errorf("plan: placement stage: %w", err)
		}
		// The LP skeleton depends on where the elements sit, not on the
		// RTTs to them: it outlives an evaluation that kept the targets.
		if p.eval == nil || !f.Equal(p.f) {
			p.opt = nil
		}
		p.f, p.eval, p.optOK = f, eval, false
		p.dirty[StageStrategy] = true
		recomputed = append(recomputed, StagePlacement)
	}
	// Client weights live on the evaluator; sync them every Plan (they
	// may have changed without the placement stage re-running). Nil is
	// uniform demand.
	if err := p.eval.SetClientWeights(p.weights); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}

	if p.dirty[StageStrategy] {
		if err := p.computeStrategy(); err != nil {
			return nil, fmt.Errorf("plan: strategy stage: %w", err)
		}
		p.dirty[StageEval] = true
		recomputed = append(recomputed, StageStrategy)
	}

	if p.dirty[StageEval] {
		recomputed = append(recomputed, StageEval)
	}
	// The measures are cheap relative to the stages above; recompute them
	// whenever anything was dirty so the snapshot is always
	// self-consistent.
	p.eval.Alpha = p.alpha
	p.version++
	deltas := p.pending
	if p.pendingDropped > 0 {
		deltas = append(deltas, fmt.Sprintf("… (+%d more)", p.pendingDropped))
	}
	snap := &Snapshot{
		Version:   p.version,
		Topology:  p.topo.Clone(),
		System:    p.sys,
		Placement: p.f,
		Strategy:  p.strat,
		LP:        p.lpRes,
		Alpha:     p.alpha,
		Demand:    p.alpha / core.OpServiceTimeMS,
		Weights:   slices.Clone(p.weights),
		Response:  p.eval.AvgResponseTime(p.strat),
		NetDelay:  p.eval.AvgNetworkDelay(p.strat),
		MaxLoad:   p.eval.MaxNodeLoad(p.strat),
		Provenance: Provenance{
			Recomputed: recomputed,
			Deltas:     deltas,
			Pinned:     p.pin != nil,
		},
	}
	p.pending, p.pendingDropped = nil, 0
	p.dirty = [numStages]bool{}
	return snap, nil
}

// closeTopology is the topology stage: it brings the closed metric up to
// date with raw and, when some distance moved, replaces the topology
// artifact and marks the placement stage. With a closed matrix for the
// current site set on hand the pending edits are folded into a copy of it
// (graph.Matrix.Reclose, which falls back to the full closure when that is
// cheaper); the first plan and a membership change close raw in full. A
// reproducible planner always closes raw in full and always re-places —
// its contract is bit-equality with a cold pipeline — and compares
// matrices only to tell the anchor search which sites moved.
func (p *Planner) closeTopology() error {
	var prev *graph.Matrix
	if p.topo != nil && !p.resited {
		prev = p.topo.Distances()
	}
	closed := prev
	var changed []int
	p.last.Closure = "full"
	if prev != nil && !p.cfg.Reproducible {
		var incremental bool
		if closed, changed, incremental = prev.Reclose(p.raw, p.edits); incremental {
			p.last.Closure = "incremental"
		}
	} else {
		closed = p.raw.Clone()
		if !p.rawMetric {
			closed.MetricClosure()
		}
		if prev != nil {
			if changed = prev.ChangedRows(closed); changed == nil {
				closed = prev
			}
		}
	}
	p.last.ChangedSites = len(changed)
	p.edits, p.resited = nil, false
	if closed != prev {
		// closed is a metric by construction (raw was one, or a closure
		// made it one), so topology.New's O(n³) IsMetric check is skipped.
		topo, err := topology.NewMetric(p.name, p.sites, closed)
		if err != nil {
			return err
		}
		p.topo = topo
		if prev == nil {
			p.last.ChangedSites = len(p.sites)
		}
		if p.search != nil {
			// A pinned placement can keep the search waiting across
			// several plans, so the list is kept a set.
			p.moved = append(p.moved, changed...)
			slices.Sort(p.moved)
			p.moved = slices.Compact(p.moved)
		}
	}
	if closed != prev || p.cfg.Reproducible {
		p.dirty[StagePlacement] = true
	}
	return nil
}

func (p *Planner) computePlacement() (core.Placement, error) {
	if p.pin != nil {
		if len(p.pin) != p.sys.UniverseSize() {
			return core.Placement{}, fmt.Errorf("pinned placement covers %d elements but %s has %d",
				len(p.pin), p.sys.Name(), p.sys.UniverseSize())
		}
		return core.NewPlacement(p.pin, p.topo)
	}
	switch p.cfg.algorithm() {
	case AlgoSingleton:
		return placement.Singleton(p.topo, p.sys.UniverseSize())
	case AlgoOneToOne:
		// The search outlives the plan: the next one re-scores only the
		// anchors that the sites moved since can affect.
		if p.search == nil {
			search, err := placement.NewSearch(p.sys, placement.Options{})
			if err != nil {
				return core.Placement{}, err
			}
			p.search = search
		}
		f, err := p.search.Place(p.topo, p.moved)
		p.moved = nil
		p.last.AnchorsScored, p.last.Anchors = p.search.Scored()
		return f, err
	case AlgoManyToOne:
		return placement.ManyToOne(p.topo, p.sys, placement.ManyToOneConfig{
			LP: lp.OptionsFor(p.cfg.Reproducible),
		})
	default:
		return core.Placement{}, fmt.Errorf("unknown algorithm %q", p.cfg.Algorithm)
	}
}

func (p *Planner) computeStrategy() error {
	switch p.cfg.strategy() {
	case StratClosest:
		p.strat, p.lpRes = core.ClosestStrategy{}, nil
		return nil
	case StratBalanced:
		p.strat, p.lpRes = core.BalancedStrategy{}, nil
		return nil
	}
	// LP: capacity-only deltas reuse the skeleton as it is and re-solve
	// with new right-hand sides; a new evaluation of the same placement
	// targets (an RTT delta) re-binds it, which rewrites the objective
	// only; either way the solve starts from the previous optimal basis.
	// A reproducible planner solves cold on a fresh skeleton whenever the
	// evaluation was replaced, and column-generation optimizers are not
	// re-bound: both rebuild.
	if !p.optOK && p.opt != nil && (p.cfg.Reproducible || p.opt.Rebind(p.eval) != nil) {
		p.opt = nil
	}
	if p.opt == nil {
		opt, err := strategy.NewOptimizer(p.eval, strategy.ConfigFor(p.cfg.Reproducible))
		if err != nil {
			return err
		}
		p.opt = opt
	}
	p.optOK = true
	res, err := p.opt.Optimize(p.caps)
	if err != nil {
		return err
	}
	p.lpRes = res
	p.strat = res.Strategy
	p.last.LPMethod, p.last.LPPivots = res.LPMethod, res.Iterations
	return nil
}
