package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// testTopo builds a deterministic random metric topology of size n.
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
	sites := make([]topology.Site, n)
	tp, err := topology.New("test", sites, m)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func mustGrid(t *testing.T, k int) quorum.Grid {
	t.Helper()
	s, err := quorum.NewGrid(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustThreshold(t *testing.T, q, n int) quorum.Threshold {
	t.Helper()
	s, err := quorum.NewThreshold(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func identityPlacement(t *testing.T, n int, topo *topology.Topology) Placement {
	t.Helper()
	target := make([]int, n)
	for i := range target {
		target[i] = i
	}
	f, err := NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPlacementValidation(t *testing.T) {
	topo := testTopo(t, 5, 1)
	if _, err := NewPlacement(nil, topo); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := NewPlacement([]int{0, 7}, topo); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := NewPlacement([]int{0, -1}, topo); err == nil {
		t.Error("negative node accepted")
	}
}

func TestPlacementAccessors(t *testing.T) {
	topo := testTopo(t, 5, 2)
	f, err := NewPlacement([]int{2, 2, 4, 0}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if f.UniverseSize() != 4 {
		t.Errorf("UniverseSize = %d, want 4", f.UniverseSize())
	}
	if f.Node(2) != 4 {
		t.Errorf("Node(2) = %d, want 4", f.Node(2))
	}
	if got, want := f.Support(), []int{0, 2, 4}; !equalInts(got, want) {
		t.Errorf("Support = %v, want %v", got, want)
	}
	if got, want := f.ElementsOn(2), []int{0, 1}; !equalInts(got, want) {
		t.Errorf("ElementsOn(2) = %v, want %v", got, want)
	}
	if len(f.Support()) == f.UniverseSize() {
		t.Error("many-to-one placement has one node per element")
	}
	one := identityPlacement(t, 5, topo)
	if len(one.Support()) != one.UniverseSize() {
		t.Error("identity placement shares a node")
	}
}

func TestPlacementTargetsIsCopy(t *testing.T) {
	topo := testTopo(t, 3, 3)
	orig := []int{0, 1, 2}
	f, err := NewPlacement(orig, topo)
	if err != nil {
		t.Fatal(err)
	}
	orig[0] = 2 // caller mutates its slice
	if f.Node(0) != 0 {
		t.Error("placement aliased caller's slice")
	}
	tg := f.Targets()
	tg[1] = 0
	if f.Node(1) != 1 {
		t.Error("Targets() aliased internal slice")
	}
}

func TestSingletonPlacement(t *testing.T) {
	topo := testTopo(t, 6, 4)
	f, err := SingletonPlacement(9, 3, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Support(); !equalInts(got, []int{3}) {
		t.Errorf("Support = %v, want [3]", got)
	}
}

func TestNewEvalValidation(t *testing.T) {
	topo := testTopo(t, 9, 5)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	if _, err := NewEval(topo, sys, f, -1); err == nil {
		t.Error("negative alpha accepted")
	}
	short := identityPlacement(t, 4, topo)
	if _, err := NewEval(topo, sys, short, 0); err == nil {
		t.Error("placement/universe size mismatch accepted")
	}
	if _, err := NewEval(nil, sys, f, 0); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestSetClients(t *testing.T) {
	topo := testTopo(t, 9, 6)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients([]int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients(nil); err == nil {
		t.Error("empty client set accepted")
	}
	if err := e.SetClients([]int{99}); err == nil {
		t.Error("out-of-range client accepted")
	}
}

// TestClosestMatchesBruteForce checks Δ under the closest strategy equals
// min over quorums of the max network delay, per client.
func TestClosestMatchesBruteForce(t *testing.T) {
	topo := testTopo(t, 12, 7)
	for _, sys := range []quorum.System{mustGrid(t, 3), mustThreshold(t, 4, 7)} {
		f := identityPlacement(t, sys.UniverseSize(), topo)
		e, err := NewEval(topo, sys, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range e.Clients {
			got := ClosestStrategy{}.ExpectedMax(e, k, e.elementCosts(make([]float64, f.UniverseSize()), v, nil, 0))
			want := math.Inf(1)
			for i := 0; i < sys.NumQuorums(); i++ {
				maxC := 0.0
				for _, u := range sys.Quorum(i) {
					if d := topo.RTT(v, f.Node(u)); d > maxC {
						maxC = d
					}
				}
				if maxC < want {
					want = maxC
				}
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s client %d: closest delay %v, brute force %v", sys.Name(), v, got, want)
			}
		}
	}
}

// TestExplicitUniformMatchesBalanced: an explicit strategy with uniform
// probabilities must agree with BalancedStrategy on every measure.
func TestExplicitUniformMatchesBalanced(t *testing.T) {
	topo := testTopo(t, 10, 8)
	sys := mustGrid(t, 3)
	// Many-to-one placement to exercise node aggregation.
	target := []int{0, 1, 2, 3, 4, 4, 5, 6, 0}
	f, err := NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEval(topo, sys, f, 50)
	if err != nil {
		t.Fatal(err)
	}
	exp := &ExplicitStrategy{Rows: uniformRows(len(e.Clients), sys.NumQuorums())}
	if err := exp.Validate(e); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []LoadMode{LoadMultiplicity, LoadDedup} {
		e.Mode = mode
		gotR := e.AvgResponseTime(exp)
		wantR := e.AvgResponseTime(BalancedStrategy{})
		if math.Abs(gotR-wantR) > 1e-9 {
			t.Errorf("mode %v: explicit uniform response %v, balanced %v", mode, gotR, wantR)
		}
		gotL := e.NodeLoads(exp)
		wantL := e.NodeLoads(BalancedStrategy{})
		for w := range gotL {
			if math.Abs(gotL[w]-wantL[w]) > 1e-9 {
				t.Errorf("mode %v node %d: explicit load %v, balanced %v", mode, w, gotL[w], wantL[w])
			}
		}
	}
}

func TestBalancedLoadsSumToQuorumSize(t *testing.T) {
	// Multiplicity: Σ_w load_f(w) = Σ_u load(u) = q for any placement.
	topo := testTopo(t, 10, 9)
	sys := mustThreshold(t, 13, 25)
	target := make([]int, 25)
	for u := range target {
		target[u] = u % 10
	}
	f, err := NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range e.NodeLoads(BalancedStrategy{}) {
		sum += l
	}
	if math.Abs(sum-float64(sys.QuorumSize())) > 1e-9 {
		t.Errorf("total balanced load = %v, want %d", sum, sys.QuorumSize())
	}
}

func TestDedupNeverExceedsMultiplicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		m := graph.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 1+rng.Float64()*50)
			}
		}
		m.MetricClosure()
		topo, err := topology.New("t", make([]topology.Site, n), m)
		if err != nil {
			return false
		}
		sys, err := quorum.NewGrid(2 + rng.Intn(2))
		if err != nil {
			return false
		}
		target := make([]int, sys.UniverseSize())
		for u := range target {
			target[u] = rng.Intn(n)
		}
		f2, err := NewPlacement(target, topo)
		if err != nil {
			return false
		}
		e, err := NewEval(topo, sys, f2, 0)
		if err != nil {
			return false
		}
		for _, s := range []Strategy{ClosestStrategy{}, BalancedStrategy{}} {
			e.Mode = LoadMultiplicity
			mult := e.NodeLoads(s)
			e.Mode = LoadDedup
			dedup := e.NodeLoads(s)
			for w := range mult {
				if dedup[w] > mult[w]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestClosestBeatsBalancedOnNetworkDelay(t *testing.T) {
	// The closest strategy minimizes each client's network delay, so its
	// average cannot exceed the balanced strategy's.
	topo := testTopo(t, 15, 10)
	for _, sys := range []quorum.System{mustGrid(t, 3), mustThreshold(t, 8, 15)} {
		f := identityPlacement(t, sys.UniverseSize(), topo)
		e, err := NewEval(topo, sys, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := e.AvgNetworkDelay(ClosestStrategy{})
		b := e.AvgNetworkDelay(BalancedStrategy{})
		if c > b+1e-9 {
			t.Errorf("%s: closest %v > balanced %v", sys.Name(), c, b)
		}
	}
}

func TestResponseTimeMonotoneInAlpha(t *testing.T) {
	topo := testTopo(t, 9, 11)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	prev := -1.0
	for _, alpha := range []float64{0, 10, 50, 200} {
		e, err := NewEval(topo, sys, f, alpha)
		if err != nil {
			t.Fatal(err)
		}
		r := e.AvgResponseTime(BalancedStrategy{})
		if r < prev {
			t.Errorf("response time decreased from %v to %v as alpha grew", prev, r)
		}
		prev = r
	}
}

func TestResponseAtLeastNetworkDelay(t *testing.T) {
	topo := testTopo(t, 9, 12)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 75)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{ClosestStrategy{}, BalancedStrategy{}} {
		if resp, net := e.AvgResponseTime(s), e.AvgNetworkDelay(s); resp < net-1e-9 {
			t.Errorf("%s: response %v < network delay %v", s.Name(), resp, net)
		}
	}
}

func TestSingletonEvaluation(t *testing.T) {
	topo := testTopo(t, 8, 13)
	f, err := SingletonPlacement(1, 2, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEval(topo, quorum.Singleton{}, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for v := 0; v < 8; v++ {
		want += topo.RTT(v, 2)
	}
	want /= 8
	for _, s := range []Strategy{ClosestStrategy{}, BalancedStrategy{}} {
		if got := e.AvgNetworkDelay(s); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: singleton delay %v, want %v", s.Name(), got, want)
		}
	}
}

func TestExplicitValidate(t *testing.T) {
	topo := testTopo(t, 9, 14)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.NumQuorums()

	good := uniformRows(len(e.Clients), m)
	if err := (&ExplicitStrategy{Rows: good}).Validate(e); err != nil {
		t.Errorf("valid strategy rejected: %v", err)
	}
	sparse := uniformRows(len(e.Clients), m)
	sparse[0] = []Access{{Q: 2, P: 0.25}, {Q: 5, P: 0.75}}
	if err := (&ExplicitStrategy{Rows: sparse}).Validate(e); err != nil {
		t.Errorf("valid sparse row rejected: %v", err)
	}

	for _, c := range []struct {
		name string
		edit func(rows [][]Access) [][]Access
	}{
		{"short row count", func(rows [][]Access) [][]Access { return rows[:3] }},
		{"long row count", func(rows [][]Access) [][]Access { return append(rows, rows[0]) }},
		{"non-normalized", func(rows [][]Access) [][]Access { rows[0][0].P += 0.5; return rows }},
		{"empty row", func(rows [][]Access) [][]Access { rows[1] = nil; return rows }},
		{"unsorted", func(rows [][]Access) [][]Access {
			rows[0] = []Access{{Q: 5, P: 0.5}, {Q: 2, P: 0.5}}
			return rows
		}},
		{"duplicate", func(rows [][]Access) [][]Access {
			rows[0] = []Access{{Q: 2, P: 0.5}, {Q: 2, P: 0.5}}
			return rows
		}},
		{"negative index", func(rows [][]Access) [][]Access { rows[0] = []Access{{Q: -1, P: 1}}; return rows }},
		{"index past m", func(rows [][]Access) [][]Access { rows[0] = []Access{{Q: m, P: 1}}; return rows }},
		{"zero probability", func(rows [][]Access) [][]Access {
			rows[0] = []Access{{Q: 0, P: 0}, {Q: 1, P: 1}}
			return rows
		}},
		{"negative probability", func(rows [][]Access) [][]Access {
			rows[0] = []Access{{Q: 0, P: -0.2}, {Q: 1, P: 1.2}}
			return rows
		}},
		{"NaN probability", func(rows [][]Access) [][]Access {
			rows[0] = []Access{{Q: 0, P: math.NaN()}, {Q: 1, P: 1}}
			return rows
		}},
	} {
		rows := c.edit(uniformRows(len(e.Clients), m))
		if err := (&ExplicitStrategy{Rows: rows}).Validate(e); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	big := mustThreshold(t, 25, 49)
	fBig := identityPlacement(t, 49, testTopo(t, 49, 15))
	eBig, err := NewEval(testTopo(t, 49, 15), big, fBig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&ExplicitStrategy{Rows: nil}).Validate(eBig); err == nil {
		t.Error("explicit strategy on non-enumerable system accepted")
	}
}

func TestMeasures(t *testing.T) {
	topo := testTopo(t, 9, 16)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := BalancedStrategy{}
	if s.Name() != "balanced" {
		t.Errorf("Name = %q", s.Name())
	}
	if e.AvgResponseTime(s) < e.AvgNetworkDelay(s) {
		t.Error("response below network delay")
	}
	if e.MaxNodeLoad(s) <= 0 {
		t.Error("MaxNodeLoad not positive")
	}
}

func TestAlphaForDemand(t *testing.T) {
	if got := AlphaForDemand(16000); math.Abs(got-112) > 1e-9 {
		t.Errorf("AlphaForDemand(16000) = %v, want 112", got)
	}
}

// uniformRows gives each of n clients its own row of 1/m over all m
// quorums.
func uniformRows(n, m int) [][]Access {
	out := make([][]Access, n)
	for k := range out {
		out[k] = make([]Access, m)
		for i := range out[k] {
			out[k][i] = Access{Q: i, P: 1 / float64(m)}
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClientResponseTimeMatchesAverage(t *testing.T) {
	topo := testTopo(t, 9, 17)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 25)
	if err != nil {
		t.Fatal(err)
	}
	s := BalancedStrategy{}
	sum := 0.0
	for k := range e.Clients {
		sum += e.ClientResponseTime(s, k)
	}
	if got, want := sum/float64(len(e.Clients)), e.AvgResponseTime(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("per-client mean %v != AvgResponseTime %v", got, want)
	}
}

func TestDedupModeMeasures(t *testing.T) {
	topo := testTopo(t, 6, 18)
	sys := mustGrid(t, 3)
	target := []int{0, 0, 1, 1, 2, 2, 3, 3, 4}
	f, err := NewPlacement(target, topo)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEval(topo, sys, f, 40)
	if err != nil {
		t.Fatal(err)
	}
	s := BalancedStrategy{}
	e.Mode = LoadMultiplicity
	multLoad, multResp, multNet := e.MaxNodeLoad(s), e.AvgResponseTime(s), e.AvgNetworkDelay(s)
	e.Mode = LoadDedup
	dedupLoad, dedupResp, dedupNet := e.MaxNodeLoad(s), e.AvgResponseTime(s), e.AvgNetworkDelay(s)
	if dedupLoad > multLoad+1e-9 {
		t.Errorf("dedup max load %v above multiplicity %v", dedupLoad, multLoad)
	}
	if dedupResp > multResp+1e-9 {
		t.Errorf("dedup response %v above multiplicity %v", dedupResp, multResp)
	}
	if dedupNet != multNet {
		t.Errorf("load mode changed network delay: %v vs %v", dedupNet, multNet)
	}
}

func TestLoadModeString(t *testing.T) {
	if LoadMultiplicity.String() != "multiplicity" || LoadDedup.String() != "dedup" {
		t.Error("LoadMode strings wrong")
	}
	if LoadMode(9).String() == "" {
		t.Error("unknown LoadMode has empty string")
	}
}

func TestClientResponseTimePanicsForNonClient(t *testing.T) {
	topo := testTopo(t, 9, 19)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	m := sys.NumQuorums()
	exp := &ExplicitStrategy{Rows: uniformRows(2, m)}
	defer func() {
		if recover() == nil {
			t.Error("ExpectedMax for non-client did not panic")
		}
	}()
	exp.ExpectedMax(e, 7, make([]float64, 9))
}

func TestClientWeightsValidation(t *testing.T) {
	topo := testTopo(t, 9, 20)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetClientWeights([]float64{1, 2}); err == nil {
		t.Error("wrong-length weights accepted")
	}
	bad := make([]float64, 9)
	for i := range bad {
		bad[i] = 1
	}
	bad[3] = -1
	if err := e.SetClientWeights(bad); err == nil {
		t.Error("negative weight accepted")
	}
	bad[3] = math.NaN()
	if err := e.SetClientWeights(bad); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestUniformWeightsMatchUnweighted(t *testing.T) {
	topo := testTopo(t, 9, 21)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	base := e.AvgResponseTime(BalancedStrategy{})
	ws := make([]float64, 9)
	for i := range ws {
		ws[i] = 7 // identical → same normalized shares
	}
	if err := e.SetClientWeights(ws); err != nil {
		t.Fatal(err)
	}
	if got := e.AvgResponseTime(BalancedStrategy{}); math.Abs(got-base) > 1e-9 {
		t.Errorf("uniform weights changed response: %v vs %v", got, base)
	}
}

// TestWeightEqualsDuplication: doubling a client's weight must be
// equivalent to listing that client twice, for loads and response alike.
func TestWeightEqualsDuplication(t *testing.T) {
	topo := testTopo(t, 9, 22)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)

	weighted, err := NewEval(topo, sys, f, 45)
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.SetClients([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := weighted.SetClientWeights([]float64{2, 1, 1}); err != nil {
		t.Fatal(err)
	}

	duplicated, err := NewEval(topo, sys, f, 45)
	if err != nil {
		t.Fatal(err)
	}
	if err := duplicated.SetClients([]int{0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	for _, s := range []Strategy{ClosestStrategy{}, BalancedStrategy{}} {
		rw := weighted.AvgResponseTime(s)
		rd := duplicated.AvgResponseTime(s)
		if math.Abs(rw-rd) > 1e-9 {
			t.Errorf("%s: weighted %v != duplicated %v", s.Name(), rw, rd)
		}
		lw := weighted.NodeLoads(s)
		ld := duplicated.NodeLoads(s)
		for w := range lw {
			if math.Abs(lw[w]-ld[w]) > 1e-9 {
				t.Errorf("%s node %d: weighted load %v != duplicated %v", s.Name(), w, lw[w], ld[w])
			}
		}
	}
}

func TestSetClientsResetsWeights(t *testing.T) {
	topo := testTopo(t, 9, 23)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	e, err := NewEval(topo, sys, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, 9)
	for i := range ws {
		ws[i] = float64(i + 1)
	}
	if err := e.SetClientWeights(ws); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClients([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Weights were positional; after changing clients they reset.
	if got := e.ClientWeight(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("weight after SetClients = %v, want uniform 0.5", got)
	}
}

// TestAvgNetworkDelayAllocationsFlatInClients: scoring an anchor costs
// one element-cost buffer per call, however many clients it averages
// over; with an explicit strategy, the load measures cost the loads and
// one per-client buffer that every client refills. Under dedup loads the
// explicit rows read the evaluation's memoized quorum hosts, and the
// balanced strategy builds its client-independent loads once per
// NodeLoads, so neither count grows with the clients. A prewarmed
// evaluation holds every client's closest quorum, so the closest
// strategy's measures cost what the explicit ones do.
func TestAvgNetworkDelayAllocationsFlatInClients(t *testing.T) {
	for _, sys := range []quorum.System{mustThreshold(t, 8, 15), mustGrid(t, 5)} {
		balanced := -1.0 // dedup balanced NodeLoads allocations at the first size
		for _, n := range []int{25, 100, 200} {
			topo := testTopo(t, n, 24)
			e, err := NewEval(topo, sys, identityPlacement(t, sys.UniverseSize(), topo), 0)
			if err != nil {
				t.Fatal(err)
			}
			e.Prewarm()
			a := testing.AllocsPerRun(20, func() { e.AvgNetworkDelay(BalancedStrategy{}) })
			if a > 1 {
				t.Errorf("%s over %d clients: %v allocations per AvgNetworkDelay, want at most 1", sys.Name(), n, a)
			}
			if a := testing.AllocsPerRun(2, func() { e.AvgNetworkDelay(ClosestStrategy{}) }); a > 1 {
				t.Errorf("%s over %d clients: %v allocations per closest AvgNetworkDelay, want at most 1", sys.Name(), n, a)
			}

			e.Alpha = 30
			exp := &ExplicitStrategy{Rows: uniformRows(n, sys.NumQuorums())}
			for _, m := range []struct {
				name string
				max  float64
				f    func()
			}{
				{"explicit NodeLoads", 2, func() { e.NodeLoads(exp) }},
				{"explicit AvgResponseTime", 3, func() { e.AvgResponseTime(exp) }},
				{"explicit MaxNodeLoad", 2, func() { e.MaxNodeLoad(exp) }},
				{"closest NodeLoads", 2, func() { e.NodeLoads(ClosestStrategy{}) }},
				{"closest AvgResponseTime", 3, func() { e.AvgResponseTime(ClosestStrategy{}) }},
				{"closest ClientResponseTime", 3, func() { e.ClientResponseTime(ClosestStrategy{}, n-1) }},
			} {
				if a := testing.AllocsPerRun(2, m.f); a > m.max {
					t.Errorf("%s over %d clients: %v allocations per %s, want at most %v", sys.Name(), n, a, m.name, m.max)
				}
			}

			e.Mode = LoadDedup
			if a := testing.AllocsPerRun(2, func() { e.NodeLoads(exp) }); a > 2 {
				t.Errorf("%s over %d clients: %v allocations per explicit dedup NodeLoads, want at most 2", sys.Name(), n, a)
			}
			if a := testing.AllocsPerRun(2, func() { e.NodeLoads(ClosestStrategy{}) }); a > 2 {
				t.Errorf("%s over %d clients: %v allocations per closest dedup NodeLoads, want at most 2", sys.Name(), n, a)
			}
			a = testing.AllocsPerRun(2, func() { e.NodeLoads(BalancedStrategy{}) })
			if balanced < 0 {
				balanced = a
			} else if a != balanced {
				t.Errorf("%s over %d clients: %v allocations per balanced dedup NodeLoads, %v over 25", sys.Name(), n, a, balanced)
			}
		}
	}
}

// TestDuplicateClientWeights: a client is its position, so a node listed
// twice with weights 1 and 3 is two clients whose shares sum to the one
// client the node is alone.
func TestDuplicateClientWeights(t *testing.T) {
	topo := testTopo(t, 9, 25)
	sys := mustGrid(t, 3)
	f := identityPlacement(t, 9, topo)
	alone, err := NewEval(topo, sys, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := alone.SetClients([]int{3}); err != nil {
		t.Fatal(err)
	}
	twice, err := NewEval(topo, sys, f, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := twice.SetClients([]int{3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := twice.SetClientWeights([]float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got := twice.ClientWeight(0) + twice.ClientWeight(1); got != 1 {
		t.Errorf("duplicated client's weights sum to %v, want 1", got)
	}
	m := sys.NumQuorums()
	for _, s := range []struct{ alone, twice Strategy }{
		{BalancedStrategy{}, BalancedStrategy{}},
		{ClosestStrategy{}, ClosestStrategy{}},
		{&ExplicitStrategy{Rows: uniformRows(1, m)}, &ExplicitStrategy{Rows: uniformRows(2, m)}},
	} {
		if got, want := twice.AvgResponseTime(s.twice), alone.AvgResponseTime(s.alone); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: node 3 listed twice averages %v, alone %v", s.alone.Name(), got, want)
		}
		lt, la := twice.NodeLoads(s.twice), alone.NodeLoads(s.alone)
		for w := range la {
			if math.Abs(lt[w]-la[w]) > 1e-9 {
				t.Errorf("%s node %d: load %v listed twice, %v alone", s.alone.Name(), w, lt[w], la[w])
			}
		}
	}
}

// TestSetClientWeightsNilIsUniform: nil restores the uniform shares that
// NewEval and SetClients set, bit for bit.
func TestSetClientWeightsNilIsUniform(t *testing.T) {
	topo := testTopo(t, 9, 26)
	sys := mustGrid(t, 3)
	e, err := NewEval(topo, sys, identityPlacement(t, 9, topo), 30)
	if err != nil {
		t.Fatal(err)
	}
	base := e.AvgResponseTime(BalancedStrategy{})
	ws := make([]float64, 9)
	for i := range ws {
		ws[i] = float64(i + 1)
	}
	if err := e.SetClientWeights(ws); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClientWeights(nil); err != nil {
		t.Fatal(err)
	}
	for k := range e.Clients {
		if got := e.ClientWeight(k); got != 1.0/9 {
			t.Errorf("client %d weight %v after SetClientWeights(nil), want 1/9", k, got)
		}
	}
	if got := e.AvgResponseTime(BalancedStrategy{}); got != base {
		t.Errorf("response %v after SetClientWeights(nil), want %v", got, base)
	}
}
