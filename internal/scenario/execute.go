package scenario

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/par"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/protocol"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
)

// Progress is one execution progress event: a point of a partition
// finished. Sinks receive events concurrently from pool workers.
type Progress struct {
	Scenario string
	// Shard and Shards identify the partition being executed.
	Shard  int
	Shards int
	// Done of Total points of this partition have completed.
	Done  int
	Total int
	// Point is the work unit that just finished.
	Point Point
	// Elapsed is the time since the partition's execution started.
	Elapsed time.Duration
}

// RowTag places one partial row into the merged table: the ordinal of
// the point that produced it and the row's sequence within that point.
type RowTag struct {
	Point int `json:"point"`
	Seq   int `json:"seq"`
}

// Partial is the result of executing one partition: a table fragment
// whose rows are tagged for ordinal merge. It is the payload fleet
// workers return, serialized through Table's stable JSON encoding.
type Partial struct {
	// Scenario names the spec; Merge rejects partials of another spec.
	Scenario string `json:"scenario"`
	// Config records the run the partition executed under; Merge
	// rejects partials from a different configuration.
	Config RunConfig `json:"config"`
	Shard  int       `json:"shard"`
	Shards int       `json:"shards"`
	// Points lists the executed ordinals; Merge asserts every ordinal of
	// the space appears exactly once across the merged partials.
	Points []int `json:"points"`
	// Tags holds one entry per Table row.
	Tags  []RowTag `json:"tags"`
	Table *Table   `json:"table"`
}

// Execute is ExecuteContext with no cancellation and no progress sink.
func (p *Partition) Execute() (*Partial, error) {
	return p.ExecuteContext(context.Background(), nil)
}

// ExecuteContext runs the partition's points in parallel and returns
// the tagged partial table. Output depends only on the spec, the
// RunConfig, and the partition's point set — never on pool width or
// scheduling — so merged shards reproduce an unsharded run exactly.
//
// A point is the unit of cancellation: ctx is checked before each
// point and before each shared per-setup build, never inside one, so
// every point that runs is computed exactly as it would be uncancelled.
// A cancelled partition returns ctx.Err() and no partial. progress,
// when non-nil, receives an event after each point completes; it is
// called concurrently from pool workers.
func (p *Partition) ExecuteContext(ctx context.Context, progress func(Progress)) (*Partial, error) {
	s := p.space
	spec, cfg := s.spec, s.cfg
	start := time.Now()
	var done atomic.Int64
	report := func(i int) {
		n := int(done.Add(1))
		if progress != nil {
			progress(Progress{
				Scenario: spec.Name,
				Shard:    p.Shard,
				Shards:   p.Shards,
				Done:     n,
				Total:    len(p.Points),
				Point:    p.Points[i],
				Elapsed:  time.Since(start),
			})
		}
	}

	rows := make([][][]string, len(p.Points))
	var err error
	switch spec.Kind {
	case KindEval:
		err = p.executeEval(ctx, rows, report)
	case KindSweep:
		err = p.executeSweep(ctx, rows, report)
	case KindIterate:
		err = p.executeIterate(ctx, rows, report)
	case KindProtocol:
		err = p.executeProtocol(ctx, rows, report)
	case KindTimeline:
		err = p.executeTimeline(ctx, rows, report)
	default:
		err = fmt.Errorf("unknown kind %q", spec.Kind)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err() // points were skipped: there is no partial
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}

	// A seeds axis owns the leading "seed" column; prepending here, once,
	// keeps every kind executor seed-agnostic.
	if spec.seeded() {
		for li, pt := range p.Points {
			cell := strconv.FormatInt(s.subs[pt.SeedIdx].seed, 10)
			for ri := range rows[li] {
				rows[li][ri] = append([]string{cell}, rows[li][ri]...)
			}
		}
	}

	out := &Partial{
		Scenario: spec.Name,
		Config:   cfg,
		Shard:    p.Shard,
		Shards:   p.Shards,
		Points:   []int{},
		Tags:     []RowTag{},
		Table: &Table{
			ID:      spec.Name,
			Title:   spec.Title,
			Columns: append([]string(nil), s.finalColumns()...),
		},
	}
	for li, pt := range p.Points {
		out.Points = append(out.Points, pt.Ordinal)
		for j, row := range rows[li] {
			out.Tags = append(out.Tags, RowTag{Point: pt.Ordinal, Seq: j})
			out.Table.Rows = append(out.Table.Rows, row)
		}
	}
	return out, nil
}

// forPoints computes each point's rows over the pool and reports each
// point that completes. ctx is checked before each point: once it is
// cancelled, no further point starts. Returns the first error in point
// order.
func forPoints(ctx context.Context, rows [][][]string, report func(int), point func(i int) ([][]string, error)) error {
	errs := make([]error, len(rows))
	par.For(len(rows), func(i int) {
		if ctx.Err() != nil {
			return
		}
		if rows[i], errs[i] = point(i); errs[i] == nil {
			report(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------------- eval

func (p *Partition) executeEval(ctx context.Context, rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	return forPoints(ctx, rows, report, func(i int) ([][]string, error) {
		sub := s.subs[p.Points[i].SeedIdx]
		pt := sub.systems[p.Points[i].Index]
		row, err := evalRow(spec, cfg, sub.topo, pt)
		if err != nil {
			return nil, fmt.Errorf("system %s/%d: %w", pt.spec.Family, pt.spec.Param, err)
		}
		return [][]string{row}, nil
	})
}

// ---------------------------------------------------------------- sweep

// sweepSetup is the per-system state sweep chunks share: the placed,
// prewarmed evaluation and the capacity grid.
type sweepSetup struct {
	sys    quorum.System
	e      *core.Eval
	lopt   float64
	values []float64
}

// setupKey addresses per-(seed sub-space, group) shared state: the
// system index for sweeps, the threshold index for protocol grids, 0
// for the per-seed iterate setup.
type setupKey struct{ seed, group int }

// buildSetups builds the shared setup of every key the partition's
// points touch, serially in (seed, group) order — deterministic, and
// done before the points fan out, which then share each setup
// read-only. ctx is checked before each build.
func buildSetups[S any](ctx context.Context, points []Point, key func(Point) setupKey, build func(setupKey) (S, error)) (map[setupKey]S, error) {
	seen := map[setupKey]bool{}
	var order []setupKey
	for _, pt := range points {
		if k := key(pt); !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	slices.SortFunc(order, func(a, b setupKey) int {
		return cmp.Or(cmp.Compare(a.seed, b.seed), cmp.Compare(a.group, b.group))
	})
	setups := make(map[setupKey]S, len(order))
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		su, err := build(k)
		if err != nil {
			return nil, err
		}
		setups[k] = su
	}
	return setups, nil
}

// buildSweepSetup places and prewarms one (seed, system) evaluation.
func (p *Partition) buildSweepSetup(k setupKey) (*sweepSetup, error) {
	s := p.space
	spec, cfg := s.spec, s.cfg
	sub := s.subs[k.seed]
	sys, err := sub.systems[k.group].spec.Build()
	if err != nil {
		return nil, err
	}
	f, err := buildPlacement(spec, cfg, sub.topo, sys)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEval(sub.topo, sys, f, core.AlphaForDemand(spec.Sweep.Demand))
	if err != nil {
		return nil, err
	}
	// Populate the evaluator's lazy caches before chunks share it.
	e.Prewarm()
	lopt := sys.OptimalLoad()
	return &sweepSetup{sys: sys, e: e, lopt: lopt, values: strategy.SweepValues(lopt, spec.Sweep.Points)}, nil
}

func (p *Partition) executeSweep(ctx context.Context, rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	variants := spec.Sweep.variants()
	rowCols := spec.rowColumns()
	key := func(pt Point) setupKey { return setupKey{pt.SeedIdx, pt.Index} }
	setups, err := buildSetups(ctx, p.Points, key, p.buildSweepSetup)
	if err != nil {
		return err
	}
	// Each point is one warm-start chunk of one system's sweep; running
	// it alone reproduces the exact solve chain of the unsharded sweep,
	// whose chunk boundaries depend only on the point count.
	swCfg := strategy.ConfigFor(cfg.Reproducible)
	return forPoints(ctx, rows, report, func(i int) ([][]string, error) {
		pt := p.Points[i]
		su := setups[key(pt)]
		lo, hi := strategy.ChunkBounds(pt.Sub, len(su.values))
		chunk := su.values[lo:hi]
		results := make([][]strategy.SweepPoint, len(variants))
		for vi, v := range variants {
			var err error
			switch v {
			case "uniform":
				results[vi], err = strategy.UniformSweep(su.e, chunk, swCfg)
			case "nonuniform":
				results[vi], err = strategy.NonUniformSweep(su.e, su.lopt, chunk, swCfg)
			default:
				err = fmt.Errorf("unknown sweep variant %q", v)
			}
			if err != nil {
				return nil, err
			}
		}
		out := make([][]string, 0, len(chunk))
		for j := range chunk {
			var row []string
			for _, rc := range rowCols {
				switch rc {
				case "universe":
					row = append(row, itoa(su.sys.UniverseSize()))
				case "capacity":
					row = append(row, f3(chunk[j]))
				}
			}
			for vi := range variants {
				row = append(row, sweepCells(results[vi][j])...)
			}
			out = append(out, row)
		}
		return out, nil
	})
}

// -------------------------------------------------------------- iterate

// iterSetup is the per-seed state iterate points share: the system, the
// one-to-one baseline delay, and the capacity grid.
type iterSetup struct {
	sys      quorum.System
	otoDelay float64
	values   []float64
}

// buildIterSetup builds one seed sub-space's system, one-to-one
// baseline delay and capacity grid.
func (p *Partition) buildIterSetup(k setupKey) (*iterSetup, error) {
	s := p.space
	sub := s.subs[k.seed]
	sys, err := sub.systems[0].spec.Build()
	if err != nil {
		return nil, err
	}
	oto, err := buildPlacement(s.spec, s.cfg, sub.topo, sys)
	if err != nil {
		return nil, err
	}
	eOto, err := core.NewEval(sub.topo, sys, oto, 0)
	if err != nil {
		return nil, err
	}
	return &iterSetup{
		sys:      sys,
		otoDelay: eOto.AvgNetworkDelay(core.BalancedStrategy{}),
		values:   strategy.SweepValues(sys.OptimalLoad(), s.spec.Iterate.Points),
	}, nil
}

func (p *Partition) executeIterate(ctx context.Context, rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg

	// One setup per seed sub-space the partition touches. The one-to-one
	// baseline runs under the balanced strategy (the iterative
	// algorithm's uniform starting strategy); every shard recomputes it —
	// it is deterministic and cheap next to one iterate point.
	maxIter := spec.Iterate.MaxIterations
	if maxIter <= 0 {
		maxIter = 2
	}
	alpha := core.AlphaForDemand(spec.Iterate.Demand)
	key := func(pt Point) setupKey { return setupKey{seed: pt.SeedIdx} }
	setups, err := buildSetups(ctx, p.Points, key, p.buildIterSetup)
	if err != nil {
		return err
	}

	// Each capacity value runs the full iterative algorithm independently
	// on its own topology clone.
	return forPoints(ctx, rows, report, func(i int) ([][]string, error) {
		su := setups[key(p.Points[i])]
		sys, values, otoDelay := su.sys, su.values, su.otoDelay
		vi := p.Points[i].Index
		tp := s.subs[p.Points[i].SeedIdx].topo.Clone()
		if err := tp.SetUniformCapacity(values[vi]); err != nil {
			return nil, err
		}
		res, err := placement.Iterate(tp, sys, placement.IterateConfig{
			Alpha:         alpha,
			MaxIterations: maxIter,
			Candidates:    spec.Iterate.Candidates,
			LP:            lp.OptionsFor(cfg.Reproducible),
		})
		if err != nil {
			return nil, err
		}
		iter1 := res.History[0].Phase2NetDelay
		iter2 := iter1
		if len(res.History) > 1 {
			iter2 = res.History[1].Phase2NetDelay
		}
		return [][]string{{f3(values[vi]), f2(iter1), f2(iter2), f2(otoDelay)}}, nil
	})
}

// ------------------------------------------------------------- protocol

// protocolSetup is the per-threshold state protocol cells share.
type protocolSetup struct {
	sys         quorum.Threshold
	serverSites []int
	clientSites []int
}

// buildProtocolSetup places one (seed, threshold) system one-to-one
// and picks its representative client sites.
func (p *Partition) buildProtocolSetup(k setupKey) (*protocolSetup, error) {
	ps := p.space.spec.Protocol
	sub := p.space.subs[k.seed]
	sys, err := quorum.QUMajority(ps.Ts[k.group])
	if err != nil {
		return nil, err
	}
	f, err := placement.OneToOne(sub.topo, sys, placement.Options{})
	if err != nil {
		return nil, err
	}
	e, err := core.NewEval(sub.topo, sys, f, 0)
	if err != nil {
		return nil, err
	}
	clients, err := RepresentativeClients(e, ps.clientSites())
	if err != nil {
		return nil, err
	}
	return &protocolSetup{sys: sys, serverSites: f.Targets(), clientSites: clients}, nil
}

func (p *Partition) executeProtocol(ctx context.Context, rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	ps := spec.Protocol
	rowCols := spec.rowColumns()

	// The (placement, representative clients) setup of every (seed,
	// threshold) the partition touches.
	key := func(pt Point) setupKey { return setupKey{pt.SeedIdx, pt.Index / len(ps.PerSite)} }
	setups, err := buildSetups(ctx, p.Points, key, p.buildProtocolSetup)
	if err != nil {
		return err
	}

	// The partition's cells fan out over the pool: each is an
	// independent, seeded simulation.
	return forPoints(ctx, rows, report, func(i int) ([][]string, error) {
		cell := p.Points[i].Index
		su := setups[key(p.Points[i])]
		perSite := ps.PerSite[cell%len(ps.PerSite)]
		var clients []int
		for _, site := range su.clientSites {
			for c := 0; c < perSite; c++ {
				clients = append(clients, site)
			}
		}
		m, err := protocol.RunSimAveraged(protocol.Config{
			Topo:          s.subs[p.Points[i].SeedIdx].topo,
			ServerSites:   su.serverSites,
			QuorumSize:    su.sys.QuorumSize(),
			ClientSites:   clients,
			ServiceTimeMS: ps.serviceTime(),
			LinkTxMS:      ps.linkTx(),
			DurationMS:    cfg.quDuration(),
			Seed:          cfg.Seed,
		}, cfg.quRuns())
		if err != nil {
			return nil, err
		}
		var row []string
		for _, rc := range rowCols {
			switch rc {
			case "t":
				row = append(row, itoa(ps.Ts[cell/len(ps.PerSite)]))
			case "universe":
				row = append(row, itoa(su.sys.UniverseSize()))
			case "clients":
				row = append(row, itoa(perSite*ps.clientSites()))
			}
		}
		row = append(row, f2(m.AvgNetDelayMS), f2(m.AvgResponseMS))
		return [][]string{row}, nil
	})
}

// ------------------------------------------------------------- timeline

func (p *Partition) executeTimeline(ctx context.Context, rows [][][]string, report func(int)) error {
	s := p.space
	// One indivisible timeline per seed sub-space; each drives its own
	// planner over its own topology, serially (the engine pool belongs to
	// the planner stages inside each run).
	for li, pt := range p.Points {
		if err := ctx.Err(); err != nil {
			return err
		}
		sub := s.subs[pt.SeedIdx]
		trows, err := runTimelineRows(s.spec, s.cfg, sub.topo, sub.systems)
		if err != nil {
			return err
		}
		rows[li] = trows
		report(li)
	}
	return nil
}
