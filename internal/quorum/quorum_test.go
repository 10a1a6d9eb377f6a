package quorum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewThresholdValidation(t *testing.T) {
	tests := []struct {
		name    string
		q, n    int
		wantErr bool
	}{
		{name: "simple majority 3 of 5", q: 3, n: 5, wantErr: false},
		{name: "all of n", q: 4, n: 4, wantErr: false},
		{name: "singleton threshold", q: 1, n: 1, wantErr: false},
		{name: "non-intersecting half", q: 2, n: 4, wantErr: true},
		{name: "zero quorum", q: 0, n: 3, wantErr: true},
		{name: "quorum exceeds universe", q: 5, n: 4, wantErr: true},
		{name: "empty universe", q: 1, n: 0, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewThreshold(tc.q, tc.n)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewThreshold(%d,%d) error = %v, wantErr %v", tc.q, tc.n, err, tc.wantErr)
			}
		})
	}
}

func TestMajorityFamilies(t *testing.T) {
	tests := []struct {
		name       string
		mk         func(int) (Threshold, error)
		t          int
		wantQ      int
		wantN      int
		wantFamily string
	}{
		{name: "simple", mk: SimpleMajority, t: 2, wantQ: 3, wantN: 5},
		{name: "byzantine", mk: ByzantineMajority, t: 2, wantQ: 5, wantN: 7},
		{name: "qu", mk: QUMajority, t: 2, wantQ: 9, wantN: 11},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.mk(tc.t)
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			if s.QuorumSize() != tc.wantQ || s.UniverseSize() != tc.wantN {
				t.Errorf("got (%d,%d), want (%d,%d)", s.QuorumSize(), s.UniverseSize(), tc.wantQ, tc.wantN)
			}
		})
	}
}

func TestThresholdEnumeration(t *testing.T) {
	s, err := NewThreshold(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enumerable() {
		t.Fatal("majority(3,5) should be enumerable")
	}
	if got := s.NumQuorums(); got != 10 {
		t.Fatalf("NumQuorums = %d, want C(5,3)=10", got)
	}
	seen := map[[3]int]bool{}
	for i := 0; i < 10; i++ {
		q := s.Quorum(i)
		if len(q) != 3 {
			t.Fatalf("Quorum(%d) size = %d, want 3", i, len(q))
		}
		for j := 1; j < len(q); j++ {
			if q[j] <= q[j-1] {
				t.Errorf("Quorum(%d) = %v not strictly sorted", i, q)
			}
		}
		var key [3]int
		copy(key[:], q)
		if seen[key] {
			t.Errorf("Quorum(%d) = %v duplicated", i, q)
		}
		seen[key] = true
	}
}

func TestThresholdNotEnumerable(t *testing.T) {
	s, err := NewThreshold(25, 49) // C(49,25) is astronomically large
	if err != nil {
		t.Fatal(err)
	}
	if s.Enumerable() {
		t.Error("majority(25,49) reported enumerable")
	}
	if got := s.NumQuorums(); got != 0 {
		t.Errorf("NumQuorums = %d, want 0 for non-enumerable", got)
	}
}

func TestVerifyIntersectionSmallSystems(t *testing.T) {
	systems := []System{
		mustThreshold(t, 3, 5),
		mustThreshold(t, 5, 7),
		mustThreshold(t, 5, 6),
		mustThreshold(t, 2, 3),
		mustGrid(t, 2),
		mustGrid(t, 3),
		mustGrid(t, 4),
		Singleton{},
	}
	for _, s := range systems {
		if i, j := verify(s); i != -1 {
			t.Errorf("%s: quorums %d and %d do not intersect", s.Name(), i, j)
		}
	}
}

func TestThresholdClosestQuorum(t *testing.T) {
	s := mustThreshold(t, 3, 5)
	cost := []float64{50, 10, 30, 20, 40}
	q := s.ClosestQuorum(cost)
	want := []int{1, 2, 3}
	if !equalInts(q, want) {
		t.Errorf("ClosestQuorum = %v, want %v", q, want)
	}
	if maxC := maxOver(cost, q); maxC != 30 {
		t.Errorf("max cost = %v, want 30", maxC)
	}
}

func TestThresholdClosestQuorumTies(t *testing.T) {
	s := mustThreshold(t, 2, 3)
	cost := []float64{5, 5, 5}
	q := s.ClosestQuorum(cost)
	if maxC := maxOver(cost, q); !equalInts(q, []int{0, 1}) || maxC != 5 {
		t.Errorf("ClosestQuorum with ties = %v max %v, want [0 1] max 5", q, maxC)
	}
}

func TestGridQuorumShape(t *testing.T) {
	s := mustGrid(t, 3)
	if s.UniverseSize() != 9 || s.QuorumSize() != 5 || s.NumQuorums() != 9 {
		t.Fatalf("grid(3) dims: n=%d q=%d m=%d", s.UniverseSize(), s.QuorumSize(), s.NumQuorums())
	}
	// Quorum for (row 1, col 2) = index 1*3+2 = 5.
	q := s.Quorum(5)
	want := []int{2, 3, 4, 5, 8} // row 1 = {3,4,5}; col 2 = {2,5,8}
	if !equalInts(q, want) {
		t.Errorf("Quorum(5) = %v, want %v", q, want)
	}
}

func TestGridClosestQuorumExhaustive(t *testing.T) {
	s := mustGrid(t, 4)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		cost := randomCosts(rng, s.UniverseSize())
		got := maxOver(cost, s.ClosestQuorum(cost))
		want := math.Inf(1)
		for i := 0; i < s.NumQuorums(); i++ {
			if c := maxOver(cost, s.Quorum(i)); c < want {
				want = c
			}
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: ClosestQuorum cost = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestThresholdClosestQuorumIsOptimal(t *testing.T) {
	// Against brute force on an enumerable instance.
	s := mustThreshold(t, 4, 7)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		cost := randomCosts(rng, 7)
		got := maxOver(cost, s.ClosestQuorum(cost))
		want := math.Inf(1)
		for i := 0; i < s.NumQuorums(); i++ {
			if c := maxOver(cost, s.Quorum(i)); c < want {
				want = c
			}
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestUniformElementLoadMatchesEnumeration(t *testing.T) {
	systems := []System{
		mustThreshold(t, 3, 5),
		mustThreshold(t, 5, 7),
		mustGrid(t, 3),
		mustGrid(t, 5),
		Singleton{},
	}
	for _, s := range systems {
		m := s.NumQuorums()
		n := s.UniverseSize()
		counts := make([]int, n)
		for i := 0; i < m; i++ {
			for _, u := range s.Quorum(i) {
				counts[u]++
			}
		}
		want := s.UniformElementLoad()
		for u := 0; u < n; u++ {
			got := float64(counts[u]) / float64(m)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: element %d load %v, want %v", s.Name(), u, got, want)
			}
		}
	}
}

func TestExpectedMaxUniformMatchesEnumeration(t *testing.T) {
	systems := []System{
		mustThreshold(t, 3, 5),
		mustThreshold(t, 4, 7),
		mustThreshold(t, 7, 9),
		mustGrid(t, 3),
		mustGrid(t, 4),
	}
	rng := rand.New(rand.NewSource(13))
	for _, s := range systems {
		for trial := 0; trial < 20; trial++ {
			cost := randomCosts(rng, s.UniverseSize())
			got := s.ExpectedMaxUniform(cost)
			sum := 0.0
			for i := 0; i < s.NumQuorums(); i++ {
				sum += maxOver(cost, s.Quorum(i))
			}
			want := sum / float64(s.NumQuorums())
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s trial %d: ExpectedMaxUniform = %v, enumeration = %v", s.Name(), trial, got, want)
			}
		}
	}
}

func TestExpectedMaxUniformNonEnumerable(t *testing.T) {
	// For a non-enumerable threshold, validate the order-statistics
	// formula against Monte Carlo sampling.
	s := mustThreshold(t, 17, 33)
	rng := rand.New(rand.NewSource(14))
	cost := randomCosts(rng, 33)
	got := s.ExpectedMaxUniform(cost)

	const samples = 200000
	sum := 0.0
	for i := 0; i < samples; i++ {
		perm := rng.Perm(33)
		maxC := math.Inf(-1)
		for _, u := range perm[:17] {
			if cost[u] > maxC {
				maxC = cost[u]
			}
		}
		sum += maxC
	}
	mc := sum / samples
	if math.Abs(got-mc) > 0.5 { // costs are in [0,100]; MC noise is small at 200k samples
		t.Errorf("ExpectedMaxUniform = %v, Monte Carlo = %v", got, mc)
	}
}

func TestExpectedMaxUniformEdgeCases(t *testing.T) {
	// q = n: expectation is exactly the max.
	all := mustThreshold(t, 5, 5)
	cost := []float64{3, 9, 1, 7, 5}
	if got := all.ExpectedMaxUniform(cost); got != 9 {
		t.Errorf("q=n: got %v, want 9", got)
	}
	// q = 1 with n = 1.
	single := mustThreshold(t, 1, 1)
	if got := single.ExpectedMaxUniform([]float64{4}); got != 4 {
		t.Errorf("q=n=1: got %v, want 4", got)
	}
	// Constant costs: expectation equals the constant for any system.
	s := mustThreshold(t, 9, 17)
	flat := make([]float64, 17)
	for i := range flat {
		flat[i] = 42
	}
	if got := s.ExpectedMaxUniform(flat); math.Abs(got-42) > 1e-9 {
		t.Errorf("constant costs: got %v, want 42", got)
	}
}

func TestExpectedMaxProbabilitiesSumToOne(t *testing.T) {
	// Property: with cost ≡ 1 the expectation must be exactly 1, which
	// verifies the order-statistic probabilities sum to 1 for random (q,n).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		q := n/2 + 1 + rng.Intn(n-n/2)
		if q > n {
			q = n
		}
		s, err := NewThreshold(q, n)
		if err != nil {
			return true // skip invalid draws
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		return math.Abs(s.ExpectedMaxUniform(ones)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridQuorumsPairwiseIntersectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		s, err := NewGrid(k)
		if err != nil {
			return false
		}
		i, j := verify(s)
		return i == -1 && j == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOptimalLoad(t *testing.T) {
	tests := []struct {
		s    System
		want float64
	}{
		{s: mustThreshold(t, 3, 5), want: 0.6},
		{s: mustGrid(t, 5), want: 9.0 / 25.0},
		{s: Singleton{}, want: 1},
	}
	for _, tc := range tests {
		if got := tc.s.OptimalLoad(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s OptimalLoad = %v, want %v", tc.s.Name(), got, tc.want)
		}
	}
}

func TestSingleton(t *testing.T) {
	s := Singleton{}
	if s.UniverseSize() != 1 || s.NumQuorums() != 1 || s.QuorumSize() != 1 {
		t.Error("singleton dimensions wrong")
	}
	if q := s.ClosestQuorum([]float64{17}); !equalInts(q, []int{0}) {
		t.Errorf("ClosestQuorum = %v", q)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(0); err == nil {
		t.Error("NewGrid(0) succeeded")
	}
	if _, err := NewGrid(-2); err == nil {
		t.Error("NewGrid(-2) succeeded")
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k, want int
	}{
		{5, 3, 10}, {5, 0, 1}, {5, 5, 1}, {0, 0, 1},
		{5, 6, 0}, {5, -1, 0}, {10, 4, 210}, {20, 10, 184756},
	}
	for _, tc := range tests {
		if got := binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	if got := binomial(161, 80); got <= maxEnumerable {
		t.Errorf("binomial(161,80) = %d, want saturation above %d", got, maxEnumerable)
	}
}

func mustThreshold(t *testing.T, q, n int) Threshold {
	t.Helper()
	s, err := NewThreshold(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustGrid(t *testing.T, k int) Grid {
	t.Helper()
	s, err := NewGrid(k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomCosts(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 100
	}
	return out
}

func maxOver(cost []float64, elems []int) float64 {
	m := math.Inf(-1)
	for _, u := range elems {
		if cost[u] > m {
			m = cost[u]
		}
	}
	return m
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

func TestUniformTouchProbabilityMatchesEnumeration(t *testing.T) {
	systems := []System{
		mustThreshold(t, 3, 5),
		mustThreshold(t, 4, 7),
		mustGrid(t, 3),
		mustGrid(t, 4),
		Singleton{},
	}
	rng := rand.New(rand.NewSource(77))
	for _, s := range systems {
		n := s.UniverseSize()
		for trial := 0; trial < 20; trial++ {
			k := rng.Intn(n + 1)
			elems := rng.Perm(n)[:k]
			got := s.UniformTouchProbability(elems)
			inSet := make(map[int]bool, k)
			for _, u := range elems {
				inSet[u] = true
			}
			count := 0
			for i := 0; i < s.NumQuorums(); i++ {
				for _, u := range s.Quorum(i) {
					if inSet[u] {
						count++
						break
					}
				}
			}
			want := float64(count) / float64(s.NumQuorums())
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s k=%d: touch prob = %v, enumeration = %v", s.Name(), k, got, want)
			}
		}
	}
}

func TestUniformTouchProbabilityEdges(t *testing.T) {
	s := mustThreshold(t, 17, 33) // non-enumerable
	if got := s.UniformTouchProbability(nil); got != 0 {
		t.Errorf("empty set: %v, want 0", got)
	}
	all := make([]int, 33)
	for i := range all {
		all[i] = i
	}
	if got := s.UniformTouchProbability(all); got != 1 {
		t.Errorf("full set: %v, want 1", got)
	}
	// Duplicates must not change the result.
	a := s.UniformTouchProbability([]int{0, 1, 2})
	b := s.UniformTouchProbability([]int{0, 1, 2, 2, 1})
	if a != b {
		t.Errorf("duplicates changed result: %v vs %v", a, b)
	}
	// Out-of-range ids are ignored.
	c := s.UniformTouchProbability([]int{0, 1, 2, 99, -4})
	if a != c {
		t.Errorf("out-of-range ids changed result: %v vs %v", a, c)
	}
}

// verify checks the defining property — every pair of quorums intersects —
// for an enumerable system. It reports the first offending pair, or
// (-1, -1) if the property holds.
func verify(s System) (i, j int) {
	if !s.Enumerable() {
		return -1, -1
	}
	m := s.NumQuorums()
	sets := make([][]int, m)
	for q := 0; q < m; q++ {
		sets[q] = s.Quorum(q)
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			if !sortedIntersect(sets[a], sets[b]) {
				return a, b
			}
		}
	}
	return -1, -1
}
