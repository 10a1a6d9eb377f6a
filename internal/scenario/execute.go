package scenario

import (
	"fmt"
	"sort"
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
// finished. Handlers receive events concurrently from pool workers.
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
	// Config records the settings the partition executed under; Merge
	// rejects partials from a different configuration.
	Config Settings `json:"config"`
	Shard  int      `json:"shard"`
	Shards int      `json:"shards"`
	// Points lists the executed ordinals; Merge asserts every ordinal of
	// the space appears exactly once across the merged partials.
	Points []int `json:"points"`
	// Tags holds one entry per Table row.
	Tags  []RowTag `json:"tags"`
	Table *Table   `json:"table"`
}

// Execute runs the partition's points in parallel and returns the
// tagged partial table. Output depends only on the spec, the
// RunConfig, and the partition's point set — never on pool width
// or scheduling — so merged shards reproduce an unsharded run exactly.
func (p *Partition) Execute() (*Partial, error) {
	s := p.space
	spec, cfg := s.spec, s.cfg
	start := time.Now()
	var done atomic.Int64
	report := func(i int) {
		n := int(done.Add(1))
		if cfg.Progress != nil {
			cfg.Progress(Progress{
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
		err = p.executeEval(rows, report)
	case KindSweep:
		err = p.executeSweep(rows, report)
	case KindIterate:
		err = p.executeIterate(rows, report)
	case KindProtocol:
		err = p.executeProtocol(rows, report)
	case KindTimeline:
		err = p.executeTimeline(rows, report)
	default:
		err = fmt.Errorf("unknown kind %q", spec.Kind)
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
		Config:   cfg.Settings(),
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

// firstErr returns the first non-nil error in point order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------------- eval

func (p *Partition) executeEval(rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	n := len(p.Points)
	errs := make([]error, n)
	par.For(n, func(i int) {
		sub := s.subs[p.Points[i].SeedIdx]
		pt := sub.systems[p.Points[i].Index]
		row, err := evalRow(spec, cfg, sub.topo, pt)
		if err != nil {
			errs[i] = fmt.Errorf("system %s/%d: %w", pt.spec.Family, pt.spec.Param, err)
			return
		}
		rows[i] = [][]string{row}
		report(i)
	})
	return firstErr(errs)
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
// system index for sweeps, the threshold index for protocol grids.
type setupKey struct{ seed, group int }

// sweepSetups builds setups for every (seed, system) the partition
// touches, in (seed, system) order (deterministic and serial: chunks of
// one system share the evaluation read-only afterwards).
func (p *Partition) sweepSetups() (map[setupKey]*sweepSetup, error) {
	s := p.space
	spec, cfg := s.spec, s.cfg
	setups := map[setupKey]*sweepSetup{}
	var order []setupKey
	for _, pt := range p.Points {
		k := setupKey{pt.SeedIdx, pt.Index}
		if _, ok := setups[k]; !ok {
			setups[k] = nil
			order = append(order, k)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].seed != order[b].seed {
			return order[a].seed < order[b].seed
		}
		return order[a].group < order[b].group
	})
	for _, k := range order {
		sub := s.subs[k.seed]
		pt := sub.systems[k.group]
		sys, err := pt.spec.Build()
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
		setups[k] = &sweepSetup{sys: sys, e: e, lopt: lopt, values: strategy.SweepValues(lopt, spec.Sweep.Points)}
	}
	return setups, nil
}

func (p *Partition) executeSweep(rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	variants := spec.Sweep.variants()
	rowCols := spec.rowColumns()
	setups, err := p.sweepSetups()
	if err != nil {
		return err
	}
	// Each point is one warm-start chunk of one system's sweep; running
	// it alone reproduces the exact solve chain of the unsharded sweep,
	// whose chunk boundaries depend only on the point count.
	swCfg := strategy.ConfigFor(cfg.Reproducible)
	n := len(p.Points)
	errs := make([]error, n)
	par.For(n, func(i int) {
		pt := p.Points[i]
		su := setups[setupKey{pt.SeedIdx, pt.Index}]
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
				errs[i] = err
				return
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
		rows[i] = out
		report(i)
	})
	return firstErr(errs)
}

// -------------------------------------------------------------- iterate

// iterSetup is the per-seed state iterate points share: the system, the
// one-to-one baseline delay, and the capacity grid.
type iterSetup struct {
	sys      quorum.System
	otoDelay float64
	values   []float64
}

func (p *Partition) executeIterate(rows [][][]string, report func(int)) error {
	if len(p.Points) == 0 {
		return nil
	}
	s := p.space
	spec, cfg := s.spec, s.cfg

	// One setup per seed sub-space the partition touches, built serially
	// in seed order. The one-to-one baseline runs under the balanced
	// strategy (the iterative algorithm's uniform starting strategy);
	// every shard recomputes it — it is deterministic and cheap next to
	// one iterate point.
	setups := map[int]*iterSetup{}
	var order []int
	for _, pt := range p.Points {
		if _, ok := setups[pt.SeedIdx]; !ok {
			setups[pt.SeedIdx] = nil
			order = append(order, pt.SeedIdx)
		}
	}
	sort.Ints(order)
	maxIter := spec.Iterate.MaxIterations
	if maxIter <= 0 {
		maxIter = 2
	}
	alpha := core.AlphaForDemand(spec.Iterate.Demand)
	for _, si := range order {
		sub := s.subs[si]
		sys, err := sub.systems[0].spec.Build()
		if err != nil {
			return err
		}
		oto, err := buildPlacement(spec, cfg, sub.topo, sys)
		if err != nil {
			return err
		}
		eOto, err := core.NewEval(sub.topo, sys, oto, 0)
		if err != nil {
			return err
		}
		setups[si] = &iterSetup{
			sys:      sys,
			otoDelay: eOto.AvgNetworkDelay(core.BalancedStrategy{}),
			values:   strategy.SweepValues(sys.OptimalLoad(), spec.Iterate.Points),
		}
	}

	// Each capacity value runs the full iterative algorithm independently
	// on its own topology clone.
	n := len(p.Points)
	errs := make([]error, n)
	par.For(n, func(i int) {
		su := setups[p.Points[i].SeedIdx]
		sys, values, otoDelay := su.sys, su.values, su.otoDelay
		vi := p.Points[i].Index
		tp := s.subs[p.Points[i].SeedIdx].topo.Clone()
		if err := tp.SetUniformCapacity(values[vi]); err != nil {
			errs[i] = err
			return
		}
		res, err := placement.Iterate(tp, sys, placement.IterateConfig{
			Alpha:         alpha,
			MaxIterations: maxIter,
			Candidates:    spec.Iterate.Candidates,
			LP:            lp.OptionsFor(cfg.Reproducible),
		})
		if err != nil {
			errs[i] = err
			return
		}
		iter1 := res.History[0].Phase2NetDelay
		iter2 := iter1
		if len(res.History) > 1 {
			iter2 = res.History[1].Phase2NetDelay
		}
		rows[i] = [][]string{{f3(values[vi]), f2(iter1), f2(iter2), f2(otoDelay)}}
		report(i)
	})
	return firstErr(errs)
}

// ------------------------------------------------------------- protocol

// protocolSetup is the per-threshold state protocol cells share.
type protocolSetup struct {
	sys         quorum.Threshold
	serverSites []int
	clientSites []int
}

func (p *Partition) executeProtocol(rows [][][]string, report func(int)) error {
	s := p.space
	spec, cfg := s.spec, s.cfg
	ps := spec.Protocol
	rowCols := spec.rowColumns()

	// Build the (placement, representative clients) setup for every
	// (seed, threshold) the partition touches, serially in (seed, t)
	// order.
	setups := map[setupKey]*protocolSetup{}
	var order []setupKey
	for _, pt := range p.Points {
		k := setupKey{pt.SeedIdx, pt.Index / len(ps.PerSite)}
		if _, ok := setups[k]; !ok {
			setups[k] = nil
			order = append(order, k)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].seed != order[b].seed {
			return order[a].seed < order[b].seed
		}
		return order[a].group < order[b].group
	})
	for _, k := range order {
		sub := s.subs[k.seed]
		sys, err := quorum.QUMajority(ps.Ts[k.group])
		if err != nil {
			return err
		}
		f, err := placement.OneToOne(sub.topo, sys, placement.Options{})
		if err != nil {
			return err
		}
		e, err := core.NewEval(sub.topo, sys, f, 0)
		if err != nil {
			return err
		}
		clients, err := RepresentativeClients(e, ps.clientSites())
		if err != nil {
			return err
		}
		setups[k] = &protocolSetup{sys: sys, serverSites: f.Targets(), clientSites: clients}
	}

	// The partition's cells fan out over the pool: each is an
	// independent, seeded simulation.
	n := len(p.Points)
	errs := make([]error, n)
	par.For(n, func(i int) {
		cell := p.Points[i].Index
		su := setups[setupKey{p.Points[i].SeedIdx, cell / len(ps.PerSite)}]
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
			errs[i] = err
			return
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
		rows[i] = [][]string{row}
		report(i)
	})
	return firstErr(errs)
}

// ------------------------------------------------------------- timeline

func (p *Partition) executeTimeline(rows [][][]string, report func(int)) error {
	s := p.space
	// One indivisible timeline per seed sub-space; each drives its own
	// planner over its own topology, serially (the engine pool belongs to
	// the planner stages inside each run).
	for li, pt := range p.Points {
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
