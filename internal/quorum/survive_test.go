package quorum

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewExplicitValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		quorums [][]int
		wantErr bool
	}{
		{name: "valid pair", n: 3, quorums: [][]int{{0, 1}, {1, 2}}, wantErr: false},
		{name: "single quorum", n: 2, quorums: [][]int{{0}}, wantErr: false},
		{name: "no quorums", n: 3, quorums: nil, wantErr: true},
		{name: "empty quorum", n: 3, quorums: [][]int{{}}, wantErr: true},
		{name: "out of range", n: 2, quorums: [][]int{{0, 5}}, wantErr: true},
		{name: "duplicate element", n: 3, quorums: [][]int{{1, 1}}, wantErr: true},
		{name: "disjoint quorums", n: 4, quorums: [][]int{{0, 1}, {2, 3}}, wantErr: true},
		{name: "zero universe", n: 0, quorums: [][]int{{0}}, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewExplicit("x", tc.n, tc.quorums)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewExplicit error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestExplicitMatchesGrid(t *testing.T) {
	// An Explicit copy of a grid must agree with the structured
	// implementation on every System method.
	g := mustGrid(t, 3)
	quorums := make([][]int, g.NumQuorums())
	for i := range quorums {
		quorums[i] = g.Quorum(i)
	}
	e, err := NewExplicit("grid-copy", g.UniverseSize(), quorums)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cost := randomCosts(rng, g.UniverseSize())
		gc := maxOver(cost, g.ClosestQuorum(cost))
		ec := maxOver(cost, e.ClosestQuorum(cost))
		if math.Abs(gc-ec) > 1e-12 {
			t.Fatalf("closest: grid %v, explicit %v", gc, ec)
		}
		if d := math.Abs(g.ExpectedMaxUniform(cost) - e.ExpectedMaxUniform(cost)); d > 1e-9 {
			t.Fatalf("expected max differs by %v", d)
		}
	}
	if math.Abs(g.UniformElementLoad()-e.UniformElementLoad()) > 1e-12 {
		t.Error("uniform load differs")
	}
	elems := []int{0, 4, 8}
	if math.Abs(g.UniformTouchProbability(elems)-e.UniformTouchProbability(elems)) > 1e-12 {
		t.Error("touch probability differs")
	}
}

func TestSurviveThreshold(t *testing.T) {
	s := mustThreshold(t, 3, 5)
	sv, err := Survive(s, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := sv.Sub.(Threshold)
	if !ok {
		t.Fatalf("survivor of threshold is %T, want Threshold", sv.Sub)
	}
	if sub.UniverseSize() != 3 || sub.QuorumSize() != 3 {
		t.Errorf("survivor dims (%d,%d), want (3,3)", sub.QuorumSize(), sub.UniverseSize())
	}
	if !equalInts(sv.AliveIndex, []int{0, 2, 4}) {
		t.Errorf("AliveIndex = %v", sv.AliveIndex)
	}
}

func TestSurviveThresholdUnavailable(t *testing.T) {
	s := mustThreshold(t, 3, 5)
	_, err := Survive(s, []int{0, 1, 2}) // 2 survivors < q=3
	if !errors.Is(err, ErrNoQuorumSurvives) {
		t.Errorf("err = %v, want ErrNoQuorumSurvives", err)
	}
}

func TestSurviveNonEnumerableThreshold(t *testing.T) {
	// Closed forms keep working after failures of a non-enumerable system.
	s := mustThreshold(t, 25, 49)
	sv, err := Survive(s, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sv.Sub.UniverseSize() != 44 {
		t.Errorf("survivor universe = %d, want 44", sv.Sub.UniverseSize())
	}
	if got := sv.Sub.UniformElementLoad(); math.Abs(got-25.0/44.0) > 1e-12 {
		t.Errorf("survivor load = %v, want 25/44", got)
	}
}

func TestSurviveGrid(t *testing.T) {
	g := mustGrid(t, 3)
	// Kill element 4 (center cell, row 1 col 1): quorums using row 1 or
	// column 1 die → surviving (r,c) pairs avoid r=1 and c=1 → 2×2 = 4.
	sv, err := Survive(g, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sv.Sub.NumQuorums(); got != 4 {
		t.Errorf("surviving quorums = %d, want 4", got)
	}
	if got := sv.Sub.UniverseSize(); got != 8 {
		t.Errorf("survivor universe = %d, want 8", got)
	}
	// The survivor system must still be a quorum system.
	if i, j := verify(sv.Sub); i != -1 {
		t.Errorf("survivor quorums %d and %d do not intersect", i, j)
	}
}

func TestSurviveGridUnavailable(t *testing.T) {
	g := mustGrid(t, 2)
	// Killing one full row and one cell of the other row leaves no
	// complete row+column pair.
	if _, err := Survive(g, []int{0, 3}); !errors.Is(err, ErrNoQuorumSurvives) {
		t.Errorf("err = %v, want ErrNoQuorumSurvives", err)
	}
}

func TestSurviveValidation(t *testing.T) {
	g := mustGrid(t, 2)
	if _, err := Survive(g, []int{-1}); err == nil {
		t.Error("negative dead element accepted")
	}
	if _, err := Survive(g, []int{99}); err == nil {
		t.Error("out-of-range dead element accepted")
	}
}

func TestSurviveNoFailures(t *testing.T) {
	g := mustGrid(t, 3)
	sv, err := Survive(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Sub.NumQuorums() != g.NumQuorums() {
		t.Errorf("no-failure survivor lost quorums: %d vs %d",
			sv.Sub.NumQuorums(), g.NumQuorums())
	}
}

func TestFailureResilience(t *testing.T) {
	tests := []struct {
		sys  System
		want int
	}{
		{sys: mustThreshold(t, 3, 5), want: 2},
		{sys: mustThreshold(t, 9, 11), want: 2},
		{sys: Singleton{}, want: 0},
		// Grid k×k: killing any single element kills only quorums through
		// its row or column; a diagonal of k dead cells hits every
		// (row, column) pair, and nothing smaller can, so resilience k−1.
		{sys: mustGrid(t, 2), want: 1},
		{sys: mustGrid(t, 3), want: 2},
		{sys: mustGrid(t, 4), want: 3},
	}
	for _, tc := range tests {
		if got := FailureResilience(tc.sys); got != tc.want {
			t.Errorf("%s resilience = %d, want %d", tc.sys.Name(), got, tc.want)
		}
	}
}

func TestFailureResilienceMatchesSurvive(t *testing.T) {
	// Property: for f = resilience, every f-subset of dead elements leaves
	// a survivor; some (f+1)-subset does not.
	sys := mustGrid(t, 3)
	f := FailureResilience(sys)
	n := sys.UniverseSize()

	var foundKill bool
	var check func(dead []int, next, budget int)
	check = func(dead []int, next, budget int) {
		if budget == 0 {
			if _, err := Survive(sys, dead); err != nil {
				t.Fatalf("resilience %d but %v kills the system", f, dead)
			}
			return
		}
		for u := next; u < n; u++ {
			check(append(dead, u), u+1, budget-1)
		}
	}
	check(nil, 0, f)

	var hunt func(dead []int, next, budget int)
	hunt = func(dead []int, next, budget int) {
		if foundKill {
			return
		}
		if budget == 0 {
			if _, err := Survive(sys, dead); err != nil {
				foundKill = true
			}
			return
		}
		for u := next; u < n; u++ {
			hunt(append(dead, u), u+1, budget-1)
		}
	}
	hunt(nil, 0, f+1)
	if !foundKill {
		t.Errorf("no (f+1)=%d failure kills the system; resilience too low", f+1)
	}
}

func TestExplicitNonUniformLoads(t *testing.T) {
	e, err := NewExplicit("star", 3, [][]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	loads := e.ElementLoads()
	if loads[0] != 1 || loads[1] != 0.5 || loads[2] != 0.5 {
		t.Errorf("loads = %v, want [1 0.5 0.5]", loads)
	}
	if e.UniformElementLoad() != 1 {
		t.Errorf("UniformElementLoad = %v, want max 1", e.UniformElementLoad())
	}
	if e.QuorumSize() != 2 {
		t.Errorf("QuorumSize = %d, want 2", e.QuorumSize())
	}
}
