// Command qusim runs the §3 Q/U protocol simulation directly: it places
// n = 5t+1 servers on the synthetic PlanetLab-50 topology, selects 10
// representative client sites, and reports average response time and
// network delay for a chosen client population.
//
// Usage:
//
//	qusim -t 4 -clients 100
//	qusim -t 2 -clients 40 -duration 30000 -runs 5 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/placement"
	"github.com/quorumnet/quorumnet/internal/protocol"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/scenario"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func main() {
	var (
		t        = flag.Int("t", 4, "faults tolerated (servers n = 5t+1, quorums 4t+1)")
		clients  = flag.Int("clients", 100, "total clients, spread over 10 sites")
		duration = flag.Float64("duration", 20000, "simulated run length (ms)")
		runs     = flag.Int("runs", 5, "runs to average")
		seed     = flag.Int64("seed", topology.DefaultSeed, "seed")
		service  = flag.Float64("service", 1, "per-request service time (ms)")
	)
	flag.Parse()

	topo := topology.PlanetLab50(*seed)
	sys, err := quorum.QUMajority(*t)
	if err != nil {
		fatal(err)
	}
	f, err := placement.MajorityOneToOne(topo, sys, placement.Options{})
	if err != nil {
		fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		fatal(err)
	}

	// Ten representative client sites, matching the experiment setup.
	sites, err := scenario.RepresentativeClients(e, 10)
	if err != nil {
		fatal(err)
	}
	clientSites := make([]int, 0, *clients)
	for i := 0; i < *clients; i++ {
		clientSites = append(clientSites, sites[i%len(sites)])
	}

	cfg := protocol.Config{
		Topo:          topo,
		ServerSites:   f.Targets(),
		QuorumSize:    sys.QuorumSize(),
		ClientSites:   clientSites,
		ServiceTimeMS: *service,
		DurationMS:    *duration,
		Seed:          *seed,
	}
	m, err := protocol.RunSimAveraged(cfg, *runs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Q/U t=%d: n=%d servers, quorum size %d, %d clients on %d sites\n",
		*t, sys.UniverseSize(), sys.QuorumSize(), *clients, len(sites))
	fmt.Printf("completed requests:   %d (per run, averaged over %d runs)\n", m.Requests, *runs)
	fmt.Printf("avg response time:    %.2f ms\n", m.AvgResponseMS)
	fmt.Printf("avg network delay:    %.2f ms\n", m.AvgNetDelayMS)
	fmt.Printf("max queueing delay:   %.2f ms\n", m.MaxServerQueueMS)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qusim:", err)
	os.Exit(1)
}
