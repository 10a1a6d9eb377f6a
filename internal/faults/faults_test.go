package faults

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

func testTopo(t *testing.T, n int, seed int64) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1+rng.Float64()*99)
		}
	}
	m.MetricClosure()
	tp, err := topology.New("test", make([]topology.Site, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func gridEval(t *testing.T, n int, k int, seed int64) *core.Eval {
	t.Helper()
	topo := testTopo(t, n, seed)
	sys, err := quorum.NewGrid(k)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, sys.UniverseSize())
	for u := range target {
		target[u] = u % n
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func thresholdEval(t *testing.T, n, q, nu int, seed int64) *core.Eval {
	t.Helper()
	topo := testTopo(t, n, seed)
	sys, err := quorum.NewThreshold(q, nu)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, nu)
	for u := range target {
		target[u] = u % n
	}
	f, err := core.NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestApplyNoFailures(t *testing.T) {
	e := gridEval(t, 12, 3, 1)
	fe, err := Apply(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AvgNetworkDelay(core.ClosestStrategy{})
	b := fe.AvgNetworkDelay(core.ClosestStrategy{})
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("no-failure apply changed delay: %v vs %v", a, b)
	}
}

func TestApplyDegradesResponseTime(t *testing.T) {
	// Losing nodes can only shrink the set of available quorums, so the
	// closest-strategy delay is non-decreasing in the failure set.
	e := thresholdEval(t, 15, 5, 9, 2)
	base := e.AvgNetworkDelay(core.ClosestStrategy{})
	fe, err := Apply(e, []int{e.F.Node(0), e.F.Node(1)})
	if err != nil {
		t.Fatal(err)
	}
	after := fe.AvgNetworkDelay(core.ClosestStrategy{})
	if after < base-1e-9 {
		t.Errorf("delay improved after failures: %v vs %v", after, base)
	}
}

func TestApplyUnavailable(t *testing.T) {
	e := thresholdEval(t, 15, 5, 9, 3)
	// Fail the nodes hosting 5 of the 9 elements: only 4 survive < q=5.
	nodes := map[int]bool{}
	for u := 0; u < 5; u++ {
		nodes[e.F.Node(u)] = true
	}
	var failed []int
	for w := range nodes {
		failed = append(failed, w)
	}
	if _, err := Apply(e, failed); !errors.Is(err, quorum.ErrNoQuorumSurvives) {
		t.Errorf("err = %v, want ErrNoQuorumSurvives", err)
	}
}

func TestApplyRemovesFailedClients(t *testing.T) {
	e := gridEval(t, 12, 3, 4)
	fe, err := Apply(e, []int{11}) // node 11 hosts no elements (9 elements on 0..8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fe.Clients {
		if v == 11 {
			t.Error("failed node still a client")
		}
	}
	if len(fe.Clients) != 11 {
		t.Errorf("clients = %d, want 11", len(fe.Clients))
	}
}

func TestApplyValidation(t *testing.T) {
	e := gridEval(t, 12, 3, 5)
	if _, err := Apply(e, []int{99}); err == nil {
		t.Error("out-of-range failed node accepted")
	}
}

func TestSurvivesElementFailureMatchesSurvive(t *testing.T) {
	// The cheap check must agree with the full Survive construction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sys quorum.System
		if rng.Intn(2) == 0 {
			g, err := quorum.NewGrid(2 + rng.Intn(3))
			if err != nil {
				return false
			}
			sys = g
		} else {
			n := 3 + rng.Intn(8)
			q := n/2 + 1
			th, err := quorum.NewThreshold(q, n)
			if err != nil {
				return false
			}
			sys = th
		}
		n := sys.UniverseSize()
		dead := make([]bool, n)
		var deadList []int
		for u := 0; u < n; u++ {
			if rng.Float64() < 0.3 {
				dead[u] = true
				deadList = append(deadList, u)
			}
		}
		fast := SurvivesElementFailure(sys, dead)
		_, err := quorum.Survive(sys, deadList)
		slow := err == nil
		return fast == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestThresholdAvailabilityExact(t *testing.T) {
	// q=1, n=1: availability = 1 − p.
	if got, err := ThresholdAvailabilityExact(1, 1, 0.1); err != nil || math.Abs(got-0.9) > 1e-12 {
		t.Errorf("singleton availability = %v, %v; want 0.9", got, err)
	}
	// q=n: availability = (1−p)^n.
	got, err := ThresholdAvailabilityExact(4, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(0.8, 4); math.Abs(got-want) > 1e-12 {
		t.Errorf("all-of-4 availability = %v, want %v", got, want)
	}
	// p=0 → 1; p=1 → 0.
	if got, _ := ThresholdAvailabilityExact(3, 5, 0); got != 1 {
		t.Errorf("availability at p=0 is %v", got)
	}
	if got, _ := ThresholdAvailabilityExact(3, 5, 1); got != 0 {
		t.Errorf("availability at p=1 is %v", got)
	}
	if _, err := ThresholdAvailabilityExact(0, 5, 0.5); err == nil {
		t.Error("invalid threshold accepted")
	}
	if _, err := ThresholdAvailabilityExact(3, 5, 1.5); err == nil {
		t.Error("invalid probability accepted")
	}
}

func TestAvailabilityMonteCarloMatchesExact(t *testing.T) {
	// One-to-one threshold placement: MC must converge to the binomial
	// tail.
	e := thresholdEval(t, 15, 5, 9, 6) // one-to-one: 9 elements on 9 nodes
	for u := 0; u < 9; u++ {
		if e.F.Node(u) != u%15 {
			t.Fatal("placement not one-to-one as expected")
		}
	}
	const p = 0.2
	mc, err := Availability(e, p, 200000, 7)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ThresholdAvailabilityExact(5, 9, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-exact) > 0.01 {
		t.Errorf("MC availability %v, exact %v", mc, exact)
	}
}

func TestAvailabilityQuorumBeatsSingleton(t *testing.T) {
	// The §6 argument: at equal failure probability, a majority system is
	// more available than the singleton.
	topo := testTopo(t, 15, 8)
	single, err := core.SingletonPlacement(1, 3, topo)
	if err != nil {
		t.Fatal(err)
	}
	eS, err := core.NewEval(topo, quorum.Singleton{}, single, 0)
	if err != nil {
		t.Fatal(err)
	}
	eM := thresholdEval(t, 15, 3, 5, 8)

	const p = 0.2
	aS, err := Availability(eS, p, 100000, 9)
	if err != nil {
		t.Fatal(err)
	}
	aM, err := Availability(eM, p, 100000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if aM <= aS {
		t.Errorf("majority availability %v not above singleton %v", aM, aS)
	}
}

func TestAvailabilityValidation(t *testing.T) {
	e := gridEval(t, 12, 3, 10)
	if _, err := Availability(e, -0.1, 100, 1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := Availability(e, 0.5, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestWorstCaseFailure(t *testing.T) {
	e := gridEval(t, 6, 3, 11) // 9 elements on 6 nodes: nodes 0..2 host 2 each
	got := WorstCaseFailure(e, 2)
	if len(got) != 2 {
		t.Fatalf("got %d nodes, want 2", len(got))
	}
	// The two chosen nodes must host the maximum element counts (2 each).
	for _, w := range got {
		if len(e.F.ElementsOn(w)) != 2 {
			t.Errorf("node %d hosts %d elements, expected a 2-element node",
				w, len(e.F.ElementsOn(w)))
		}
	}
	// Asking for more nodes than the support has returns the support.
	all := WorstCaseFailure(e, 100)
	if len(all) != len(e.F.Support()) {
		t.Errorf("got %d nodes, want full support %d", len(all), len(e.F.Support()))
	}
}

func TestSlowdownInflatesDelay(t *testing.T) {
	e := gridEval(t, 12, 3, 30)
	base := e.AvgNetworkDelay(core.ClosestStrategy{})

	// Slowing every support node must increase the closest delay.
	se, err := Slowdown(e, e.F.Support(), 3)
	if err != nil {
		t.Fatal(err)
	}
	slowed := se.AvgNetworkDelay(core.ClosestStrategy{})
	if slowed <= base {
		t.Errorf("slowdown did not raise delay: %v vs %v", slowed, base)
	}
	if slowed > 3*base+1e-9 {
		t.Errorf("slowdown exceeded factor bound: %v vs 3x%v", slowed, base)
	}
}

func TestSlowdownRoutesAround(t *testing.T) {
	// Slowing a node that hosts nothing and carries no shortest paths
	// must not change quorum delays at all... but with a complete metric
	// graph, paths only improve by avoiding it; delay stays equal.
	e := gridEval(t, 12, 3, 31)
	nonSupport := -1
	inSupport := map[int]bool{}
	for _, w := range e.F.Support() {
		inSupport[w] = true
	}
	for w := 0; w < 12; w++ {
		if !inSupport[w] {
			nonSupport = w
			break
		}
	}
	if nonSupport == -1 {
		t.Skip("all nodes in support")
	}
	se, err := Slowdown(e, []int{nonSupport}, 10)
	if err != nil {
		t.Fatal(err)
	}
	base := e.AvgNetworkDelay(core.ClosestStrategy{})
	slowed := se.AvgNetworkDelay(core.ClosestStrategy{})
	// Paths between healthy nodes never got worse (closure can only
	// reroute), and clients at the slowed node got slower — so the
	// average may rise slightly but per healthy client delays must not.
	for k, v := range se.Clients {
		if v == nonSupport {
			continue
		}
		hb := e.ClientResponseTime(core.ClosestStrategy{}, k)
		hs := se.ClientResponseTime(core.ClosestStrategy{}, k)
		if hs > hb+1e-9 {
			t.Fatalf("healthy client %d got slower: %v vs %v", v, hs, hb)
		}
	}
	_ = base
	_ = slowed
}

func TestSlowdownValidation(t *testing.T) {
	e := gridEval(t, 12, 3, 32)
	if _, err := Slowdown(e, []int{0}, 0.5); err == nil {
		t.Error("factor < 1 accepted")
	}
	if _, err := Slowdown(e, []int{99}, 2); err == nil {
		t.Error("out-of-range node accepted")
	}
}
