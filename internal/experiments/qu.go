package experiments

import "github.com/quorumnet/quorumnet/internal/scenario"

// quProtocol fixes the §3 simulation constants: 10 representative client
// locations, 1 ms of application processing per request, and 0.8
// ms/message of access-link serialization (≈ 1 KB Q/U messages on the
// emulated 10 Mbit/s links, which puts per-site uplinks near saturation
// around 100 clients — the knee Figure 3.2b shows past ~50 clients).
func quProtocol(ts, perSite []int) *scenario.ProtocolSpec {
	return &scenario.ProtocolSpec{
		Ts:            ts,
		PerSite:       perSite,
		ClientSites:   10,
		ServiceTimeMS: 1,
		LinkTxMS:      0.8,
	}
}

// SpecFig31 declares Figure 3.1 — the response-time and network-delay
// surface over (number of clients, universe size) — at the given scale.
func SpecFig31(p Params) *scenario.Spec {
	ts := []int{1, 2, 3, 4, 5}
	perSites := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p.Quick {
		ts = []int{1, 3}
		perSites = []int{1, 5}
	}
	return &scenario.Spec{
		Name:  "fig3.1",
		Title: "Q/U avg response time & network delay (ms) vs clients and universe size",
		Kind:  scenario.KindProtocol,
		Notes: []string{
			"paper: response time grows with client count (processing delay) and with universe size (network delay)",
			"paper: network delay is flat in client count for fixed universe",
		},
		Topology:   scenario.TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"t", "universe", "clients"},
		Protocol:   quProtocol(ts, perSites),
		Columns:    []string{"t", "universe", "clients", "net_delay_ms", "response_ms"},
	}
}

// SpecFig32a declares Figure 3.2a: components at 100 clients while t
// (and hence the universe size n = 5t+1) grows.
func SpecFig32a(p Params) *scenario.Spec {
	ts := []int{1, 2, 3, 4, 5}
	perSite := 10
	if p.Quick {
		ts = []int{1, 3}
		perSite = 4
	}
	return &scenario.Spec{
		Name:  "fig3.2a",
		Title: "Q/U delay components at 100 clients vs faults tolerated",
		Kind:  scenario.KindProtocol,
		Notes: []string{
			"paper: network delay increases with universe size (quorums spread apart)",
			"paper: processing share shrinks slightly as more servers share the load",
		},
		Topology:   scenario.TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"t", "universe"},
		Protocol:   quProtocol(ts, []int{perSite}),
		Columns:    []string{"t", "universe", "net_delay_ms", "response_ms"},
	}
}

// SpecFig32b declares Figure 3.2b: components at t = 4 (n = 21) while
// the client count grows.
func SpecFig32b(p Params) *scenario.Spec {
	perSites := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if p.Quick {
		perSites = []int{1, 6}
	}
	return &scenario.Spec{
		Name:  "fig3.2b",
		Title: "Q/U delay components at t=4 (n=21) vs number of clients",
		Kind:  scenario.KindProtocol,
		Notes: []string{
			"paper: below ~50 clients network delay dominates; beyond that processing delay grows",
		},
		Topology:   scenario.TopologySpec{Source: "planetlab50"},
		RowColumns: []string{"clients"},
		Protocol:   quProtocol([]int{4}, perSites),
		Columns:    []string{"clients", "net_delay_ms", "response_ms"},
	}
}
