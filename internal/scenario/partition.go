package scenario

import (
	"fmt"

	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Point is one self-describing unit of a spec's point-space: the
// smallest schedulable piece of a scenario run. Points are enumerated in
// a deterministic order; the merge layer places every row it produced by
// (Ordinal, Seq), so shards can execute and complete in any order.
type Point struct {
	// Ordinal is the point's position in the unsharded enumeration.
	Ordinal int `json:"ordinal"`
	// Label describes the unit for progress logs and error messages.
	Label string `json:"label"`
	// SeedIdx selects the seed sub-space the point belongs to (an index
	// into Spec.Seeds; always 0 without a seeds axis).
	SeedIdx int `json:"seed,omitempty"`
	// Index addresses the unit within its kind's axes: the expanded
	// system (eval), the system of a sweep chunk (sweep), the capacity
	// value (iterate), the flattened (t, per-site) cell (protocol). A
	// timeline has one point per seed sub-space, with Index 0.
	Index int `json:"index"`
	// Sub is the warm-start chunk index within the system (sweep only).
	Sub int `json:"sub,omitempty"`
}

// seedSpace is one seed's slice of a Space: the topology generated for
// that seed and the system axes expanded against it. A spec without a
// seeds axis has exactly one.
type seedSpace struct {
	// seed is the axis value (the run seed when there is no axis).
	seed    int64
	topo    *topology.Topology
	systems []systemPoint
}

// Space is the enumerated point-space of a spec: the deterministic,
// ordered list of work units an unsharded run executes, plus the derived
// output schema. Partitions, execution, and merging all hang off one
// Space so every shard agrees on ordinals and columns. A seeds axis
// concatenates one sub-space per seed, each independently partition-able
// (points deal round-robin across the whole enumeration).
type Space struct {
	spec   *Spec
	cfg    RunConfig
	subs   []*seedSpace
	points []Point
	// derived is the column set the spec's kind produces before any
	// explicit Columns override.
	derived []string
}

// NewSpace validates the spec, builds its topologies (one per seed),
// and enumerates its point-space. The enumeration depends only on the
// spec and the RunConfig seed — never on pool width or scheduling —
// so every shard of a fleet recomputes the identical ordering. Scale
// multipliers are folded in here, once, for the same reason.
func NewSpace(spec *Spec, cfg RunConfig) (*Space, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.effective()
	s := &Space{spec: spec, cfg: cfg}
	seeds := []int64{0}
	if spec.seeded() {
		seeds = spec.Seeds
	}
	for si, seed := range seeds {
		ts := spec.Topology
		if spec.seeded() {
			ts.Seed = seed
		}
		topo, err := buildTopology(ts, cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: seed %d: %w", spec.Name, seed, err)
		}
		sub := &seedSpace{seed: seed, topo: topo, systems: expandSystems(spec.Systems, topo.Size())}
		s.subs = append(s.subs, sub)
		if err := s.enumerate(si, sub); err != nil {
			return nil, err
		}
	}
	s.derived = deriveColumns(spec)
	if len(spec.Columns) > 0 && len(spec.Columns) != len(s.derived) {
		return nil, fmt.Errorf("scenario %q: %d explicit columns for %d derived (%v)",
			spec.Name, len(spec.Columns), len(s.derived), s.derived)
	}
	return s, nil
}

// enumerate appends the points of one seed sub-space, labeled and
// seed-tagged, continuing the global ordinal sequence.
func (s *Space) enumerate(si int, sub *seedSpace) error {
	spec := s.spec
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %q: %s", spec.Name, fmt.Sprintf(format, args...))
	}
	add := func(index, chunk int, label string) {
		if spec.seeded() {
			label = fmt.Sprintf("seed %d: %s", sub.seed, label)
		}
		s.points = append(s.points, Point{
			Ordinal: len(s.points),
			Label:   label,
			SeedIdx: si,
			Index:   index,
			Sub:     chunk,
		})
	}
	switch spec.Kind {
	case KindEval:
		if len(sub.systems) == 0 {
			return fail("system axes expand to no systems")
		}
		for i, pt := range sub.systems {
			add(i, 0, fmt.Sprintf("eval %s/%d", pt.spec.Family, pt.spec.Param))
		}
	case KindSweep:
		if len(sub.systems) == 0 {
			return fail("system axes expand to no systems")
		}
		// One point per (system, warm-start chunk), at the exact chunk
		// boundaries the strategy sweeps use: a sharded chunk re-runs the
		// same cold-then-warm solve chain as its slice of an unsharded
		// sweep, so even fast-mode output is identical.
		nVals := spec.Sweep.Points
		nChunks := (nVals + strategy.SweepChunkSize - 1) / strategy.SweepChunkSize
		for sysIdx, pt := range sub.systems {
			for ci := 0; ci < nChunks; ci++ {
				lo, hi := strategy.ChunkBounds(ci, nVals)
				add(sysIdx, ci, fmt.Sprintf("sweep %s/%d values %d..%d", pt.spec.Family, pt.spec.Param, lo, hi-1))
			}
		}
	case KindIterate:
		if len(sub.systems) != 1 {
			return fail("iterate scenario needs exactly one system, axes expand to %d", len(sub.systems))
		}
		for i := 0; i < spec.Iterate.Points; i++ {
			add(i, 0, fmt.Sprintf("iterate value %d/%d", i+1, spec.Iterate.Points))
		}
	case KindProtocol:
		ps := spec.Protocol
		for i := 0; i < len(ps.Ts)*len(ps.PerSite); i++ {
			t := ps.Ts[i/len(ps.PerSite)]
			per := ps.PerSite[i%len(ps.PerSite)]
			add(i, 0, fmt.Sprintf("protocol t=%d clients=%d", t, per*ps.clientSites()))
		}
	case KindTimeline:
		if len(sub.systems) != 1 {
			return fail("timeline scenario drives one planner; system axes expand to %d systems", len(sub.systems))
		}
		// A timeline is inherently sequential (each step re-plans the
		// previous step's state), so it is one indivisible point per seed.
		add(0, 0, fmt.Sprintf("timeline (%d steps)", len(spec.Timeline)))
	default:
		return fail("unknown kind %q", spec.Kind)
	}
	return nil
}

// NumPoints is the size of the point-space.
func (s *Space) NumPoints() int { return len(s.points) }

// finalColumns returns the output column names (after any explicit
// override).
func (s *Space) finalColumns() []string {
	if len(s.spec.Columns) > 0 {
		return s.spec.Columns
	}
	return s.derived
}

// Shard returns the shard-th of shards partitions. Points are dealt
// round-robin by ordinal — shard i takes ordinals i, i+shards, … — so
// every point lands in exactly one shard and workloads stay balanced
// when later points are heavier (auto-expanded system axes grow).
// Shards beyond the point count come back empty; executing and merging
// them is valid and contributes no rows.
func (s *Space) Shard(shard, shards int) (*Partition, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("scenario %q: non-positive shard count %d", s.spec.Name, shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("scenario %q: shard %d outside [0, %d)", s.spec.Name, shard, shards)
	}
	p := &Partition{space: s, Shard: shard, Shards: shards}
	for i := shard; i < len(s.points); i += shards {
		p.Points = append(p.Points, s.points[i])
	}
	return p, nil
}

// Partition is one shard's slice of a point-space: the unit of work a
// fleet worker executes. Execute produces a Partial whose rows Merge
// places by ordinal.
type Partition struct {
	space *Space
	// Shard and Shards identify the slice (0 ≤ Shard < Shards).
	Shard  int
	Shards int
	// Points lists the work units, in ordinal order.
	Points []Point
}

// deriveColumns computes the column set a spec's run produces, before
// any explicit Columns override. It depends only on the spec, so
// partitioning, execution, and merging agree on the schema without
// executing anything. A seeds axis prepends a "seed" column.
func deriveColumns(spec *Spec) []string {
	cols := deriveKindColumns(spec)
	if spec.seeded() {
		cols = append([]string{"seed"}, cols...)
	}
	return cols
}

func deriveKindColumns(spec *Spec) []string {
	switch spec.Kind {
	case KindEval:
		cols := append([]string(nil), spec.rowColumns()...)
		for _, d := range spec.Demands {
			for _, st := range spec.Strategies {
				for _, m := range spec.Measures {
					name := measureName(m)
					if len(spec.Strategies) > 1 {
						name += "_" + st
					}
					if len(spec.Demands) > 1 {
						name += "_d" + trimFloat(d)
					}
					cols = append(cols, name)
				}
			}
		}
		return cols
	case KindSweep:
		cols := append([]string(nil), spec.rowColumns()...)
		variants := spec.Sweep.variants()
		for _, v := range variants {
			if len(variants) > 1 {
				cols = append(cols, "net_"+v, "resp_"+v)
			} else {
				cols = append(cols, "net_delay_ms", "response_ms")
			}
		}
		return cols
	case KindIterate:
		return []string{"capacity", "iter1_net_delay", "iter2_net_delay", "one_to_one"}
	case KindProtocol:
		return append(append([]string(nil), spec.rowColumns()...), "net_delay_ms", "response_ms")
	case KindTimeline:
		cols := []string{"step", "sites", "response_ms", "net_delay_ms", "max_load", "replanned"}
		if spec.CompareUnreplanned {
			cols = append(cols, "unreplanned_ms")
		}
		return cols
	}
	return nil
}
