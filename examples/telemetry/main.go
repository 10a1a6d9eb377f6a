// Telemetry: the closed loop from measurement to plan, in one process.
// Part 1 runs a 9-site RTT probe mesh (fake transport, deterministic
// noise) against a live deployment: the smoothing/hysteresis stack
// absorbs jitter and spikes so a stationary network converges to
// silence, while a genuine 3× drift on one link flows through and
// re-plans. Part 2 replays the flash-crowd library workload as the
// exact delta stream the scenario engine would apply, watching the
// deployment's version history track the timeline step by step.
package main

import (
	"context"
	"fmt"
	"log"

	quorumnet "github.com/quorumnet/quorumnet"
)

func main() {
	ctx := context.Background()
	probeMesh(ctx)
	fmt.Println()
	replayWorkload(ctx)
}

// probeMesh wires agents -> batcher -> deployment and shows the two
// hysteresis layers doing their jobs.
func probeMesh(ctx context.Context) {
	topo, err := quorumnet.GenerateTopology(quorumnet.TopologyConfig{
		Name:      "mesh-9",
		Inflation: 1.4,
		Regions: []quorumnet.RegionSpec{
			{Name: "west", Count: 3, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 3, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
			{Name: "eu", Count: 3, LatMin: 44, LatMax: 55, LonMin: -2, LonMax: 15, AccessMin: 1, AccessMax: 4},
		},
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	p, err := quorumnet.NewPlanner(topo, quorumnet.PlannerConfig{
		System:   quorumnet.SystemSpec{Family: "grid", Param: 2},
		Strategy: quorumnet.StratLP,
		Demand:   8000,
	})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := quorumnet.NewDeployment(p, quorumnet.DeployConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// A fake mesh whose ground truth is the deployed topology, plus
	// deterministic noise: ±0.4ms jitter and a 25ms spike every 7th
	// measurement — the retransmit blips of a real WAN.
	snap := dep.Current().Snapshot
	mesh := quorumnet.NewFakeMesh()
	names := make([]string, snap.Topology.Size())
	for i := range names {
		names[i] = snap.Topology.Site(i).Name
	}
	for i := 0; i < snap.Topology.Size(); i++ {
		for j := i + 1; j < snap.Topology.Size(); j++ {
			mesh.SetRTT(names[i], names[j], snap.Topology.RTT(i, j))
		}
	}
	mesh.SetNoiseFunc(func(a, b string, n int) float64 {
		if n%7 == 0 {
			return 25 // spike: the MAD gate should eat this
		}
		return 0.4 * float64(n%5-2) / 2 // jitter inside the emission band
	})

	batcher := quorumnet.NewDeltaBatcher(quorumnet.ManagerDeltaPoster{M: dep})
	agents := make([]*quorumnet.ProbeAgent, 0, len(names))
	for _, site := range names {
		var peers []string
		for _, other := range names {
			if other != site {
				peers = append(peers, other)
			}
		}
		a, err := quorumnet.NewProbeAgent(quorumnet.ProbeAgentConfig{
			Site:      site,
			Peers:     peers,
			Transport: mesh.Transport(site),
			Smoother:  quorumnet.ProbeSmoother{Window: 5},
		})
		if err != nil {
			log.Fatal(err)
		}
		agents = append(agents, a)
	}

	// Rounds are driven synchronously here for determinism; quorumprobe
	// runs the same agents on a timer against real UDP echo sockets.
	round := func() {
		for _, a := range agents {
			ds, err := a.Round(ctx)
			if err != nil {
				log.Fatal(err)
			}
			batcher.Add(ds...)
		}
		if _, err := batcher.Flush(ctx); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("== probe mesh: 9 sites, noisy but stationary ==")
	for r := 0; r < 30; r++ {
		round()
	}
	cur := dep.Current().Snapshot
	fmt.Printf("after 30 noisy rounds: version %d, %d placement moves, response %.2f ms\n",
		cur.Version, placementMoves(dep), cur.Response)
	fmt.Println("(jitter stayed inside the emission band; spikes died at the MAD gate)")

	// Now a real event: the transatlantic backbone browns out — every
	// eu link triples. The shift detector flushes the stale windows, the
	// new medians clear the emission band, and the deployment re-plans.
	for i := 0; i < 6; i++ {
		for j := 6; j < 9; j++ {
			mesh.SetRTT(names[i], names[j], 3*snap.Topology.RTT(i, j))
		}
	}
	for r := 0; r < 10; r++ {
		round()
	}
	cur = dep.Current().Snapshot
	fmt.Printf("after the eu links tripled: version %d, %d placement moves, response %.2f ms\n",
		cur.Version, placementMoves(dep), cur.Response)
}

// replayWorkload compiles the flash-crowd timeline into delta batches
// and applies them to a deployment seeded the way quorumgen -describe
// prescribes — the in-process twin of quorumgen posting to quorumd.
func replayWorkload(ctx context.Context) {
	var spec *quorumnet.Scenario
	for _, s := range quorumnet.ScenarioLibrary() {
		if s.Name == "flash-crowd" {
			spec = &s
			break
		}
	}
	if spec == nil {
		log.Fatal("flash-crowd not in the scenario library")
	}
	cfg := quorumnet.ScenarioConfig{Seed: 1}

	p, err := quorumnet.TimelinePlanner(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := quorumnet.NewDeployment(p, quorumnet.DeployConfig{})
	if err != nil {
		log.Fatal(err)
	}
	steps, err := quorumnet.TimelineStream(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== flash-crowd replay: the engine's deltas over the deploy wire ==")
	poster := quorumnet.ManagerDeltaPoster{M: dep}
	start := dep.Current().Snapshot
	fmt.Printf("%-18s version %2d  response %7.2f ms\n", "initial", start.Version, start.Response)
	for _, step := range steps {
		if err := poster.Post(ctx, step.Deltas); err != nil {
			log.Fatalf("step %q: %v", step.Label, err)
		}
		snap := dep.Current().Snapshot
		fmt.Printf("%-18s version %2d  response %7.2f ms  (%d deltas)\n",
			step.Label, snap.Version, snap.Response, len(step.Deltas))
	}
	fmt.Println("(same stream, same seed => the journaled history matches the")
	fmt.Println(" scenario engine's table — the quorumgen test suite asserts it)")
}

// placementMoves counts history entries whose placement differs from
// the previous version's.
func placementMoves(dep *quorumnet.Deployment) int {
	hist := dep.History()
	moves := 0
	for i := 1; i < len(hist); i++ {
		if fmt.Sprint(hist[i-1].Snapshot.Placement.Targets()) != fmt.Sprint(hist[i].Snapshot.Placement.Targets()) {
			moves++
		}
	}
	return moves
}
