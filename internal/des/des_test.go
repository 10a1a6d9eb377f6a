package des

import (
	"math"
	"testing"
)

func TestZeroValueUsable(t *testing.T) {
	var s Simulator
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
	if s.Step() {
		t.Error("Step() on empty simulator returned true")
	}
}

func TestScheduleValidation(t *testing.T) {
	var s Simulator
	if err := s.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := s.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay accepted")
	}
	if err := s.Schedule(math.Inf(1), func() {}); err == nil {
		t.Error("Inf delay accepted")
	}
	if err := s.Schedule(1, nil); err == nil {
		t.Error("nil function accepted")
	}
}

func TestEventOrdering(t *testing.T) {
	var s Simulator
	var order []int
	mustSchedule(t, &s, 5, func() { order = append(order, 2) })
	mustSchedule(t, &s, 1, func() { order = append(order, 1) })
	mustSchedule(t, &s, 9, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 9 {
		t.Errorf("Now() = %v, want 9", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Simulator
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, &s, 3, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Simulator
	var times []float64
	mustSchedule(t, &s, 2, func() {
		times = append(times, s.Now())
		mustSchedule(t, &s, 3, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 2 || times[1] != 5 {
		t.Errorf("times = %v, want [2 5]", times)
	}
}

func TestZeroDelayRunsAfterQueuedSameTime(t *testing.T) {
	var s Simulator
	var order []int
	mustSchedule(t, &s, 0, func() {
		order = append(order, 1)
		mustSchedule(t, &s, 0, func() { order = append(order, 3) })
	})
	mustSchedule(t, &s, 0, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestManyEvents(t *testing.T) {
	var s Simulator
	const n = 10000
	count := 0
	for i := 0; i < n; i++ {
		mustSchedule(t, &s, float64(n-i), func() { count++ })
	}
	s.Run()
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
	if s.Now() != n {
		t.Errorf("Now() = %v, want %v", s.Now(), float64(n))
	}
}

func mustSchedule(t *testing.T, s *Simulator, d float64, fn func()) {
	t.Helper()
	if err := s.Schedule(d, fn); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
}
