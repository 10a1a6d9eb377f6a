package faults

import (
	"errors"
	"math"
	"testing"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// unreplannedEval builds a 3×3 grid one-to-one placed on the first nine
// sites of a small synthetic WAN.
func unreplannedEval(t *testing.T, alpha float64) *core.Eval {
	t.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name:      "unreplanned-test",
		Inflation: 1.4,
		Regions: []topology.RegionSpec{
			{Name: "west", Count: 6, LatMin: 34, LatMax: 46, LonMin: -122, LonMax: -115, AccessMin: 1, AccessMax: 4},
			{Name: "east", Count: 6, LatMin: 35, LatMax: 44, LonMin: -80, LonMax: -71, AccessMin: 1, AccessMax: 4},
		},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := quorum.NewGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, sys.UniverseSize())
	for u := range targets {
		targets[u] = u
	}
	f, err := core.NewPlacement(targets, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestUnreplannedPassThrough: structural strategies (closest, balanced)
// adapt to the survivor system by definition, so Unreplanned must agree
// with a plain Apply.
func TestUnreplannedPassThrough(t *testing.T) {
	e := unreplannedEval(t, 0)
	fe, s, err := Unreplanned(e, core.BalancedStrategy{}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(core.BalancedStrategy); !ok {
		t.Fatalf("balanced strategy was rewritten to %T", s)
	}
	ref, err := Apply(e, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got := fe.AvgResponseTime(s)
	want := ref.AvgResponseTime(core.BalancedStrategy{})
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("unreplanned balanced response %v != apply %v", got, want)
	}
}

// TestUnreplannedExplicitRenormalizes: an LP strategy projected onto the
// survivors must still be a distribution for every surviving client, and
// its response time must be at least the re-optimized survivor LP's (the
// un-replanned deployment can never beat a re-plan).
func TestUnreplannedExplicitRenormalizes(t *testing.T) {
	e := unreplannedEval(t, core.AlphaForDemand(8000))
	caps := make([]float64, e.Topo.Size())
	for i := range caps {
		caps[i] = 1
	}
	res, err := strategy.Optimize(e, caps)
	if err != nil {
		t.Fatal(err)
	}

	failed := []int{0, 4}
	fe, s, err := Unreplanned(e, res.Strategy, failed)
	if err != nil {
		t.Fatal(err)
	}
	es, ok := s.(*core.ExplicitStrategy)
	if !ok {
		t.Fatalf("explicit strategy came back as %T", s)
	}
	if err := es.Validate(fe); err != nil {
		t.Fatalf("projected strategy invalid: %v", err)
	}
	unreplanned := fe.AvgResponseTime(es)

	// Re-optimized survivor strategy (the "re-planned" counterpart at a
	// fixed surviving placement).
	replanRes, err := strategy.Optimize(fe, caps)
	if err != nil {
		t.Fatal(err)
	}
	replanned := fe.AvgNetworkDelay(replanRes.Strategy)
	if fe.AvgNetworkDelay(es) < replanned-1e-9 {
		t.Fatalf("un-replanned net delay %v beats the re-optimized LP %v", fe.AvgNetworkDelay(es), replanned)
	}
	if unreplanned <= 0 {
		t.Fatalf("implausible un-replanned response %v", unreplanned)
	}
}

// TestUnreplannedNoQuorum: a failure that kills every quorum surfaces
// ErrNoQuorumSurvives.
func TestUnreplannedNoQuorum(t *testing.T) {
	e := unreplannedEval(t, 0)
	all := make([]int, 9)
	for i := range all {
		all[i] = i
	}
	if _, _, err := Unreplanned(e, core.ClosestStrategy{}, all); !errors.Is(err, quorum.ErrNoQuorumSurvives) {
		t.Fatalf("err = %v, want ErrNoQuorumSurvives", err)
	}
}

// TestUnreplannedPreservesWeights: surviving clients keep their relative
// demand weights.
func TestUnreplannedPreservesWeights(t *testing.T) {
	e := unreplannedEval(t, 0)
	w := make([]float64, e.Topo.Size())
	for i := range w {
		w[i] = 1
	}
	w[1] = 10 // client 1 dominates
	if err := e.SetClientWeights(w); err != nil {
		t.Fatal(err)
	}
	fe, _, err := Unreplanned(e, core.ClosestStrategy{}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Client 1 survived as the survivors' client 0 (node 0 failed); its
	// share must stay 10× any unit client's, such as node 2's.
	ratio := fe.ClientWeight(0) / fe.ClientWeight(1)
	if math.Abs(ratio-10) > 1e-9 {
		t.Fatalf("weight ratio %v, want 10", ratio)
	}
}
