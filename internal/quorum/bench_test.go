package quorum

import (
	"math/rand"
	"testing"
)

func benchCosts(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 200
	}
	return out
}

func BenchmarkThresholdClosestQuorum161(b *testing.B) {
	s, err := NewThreshold(81, 161)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(161)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClosestQuorum(cost)
	}
}

func BenchmarkThresholdExpectedMax161(b *testing.B) {
	s, err := NewThreshold(81, 161)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(161)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpectedMaxUniform(cost)
	}
}

// BenchmarkThresholdExpectedMax15 is the anchor-scoring kernel at the
// planner's threshold-8-of-15 size.
func BenchmarkThresholdExpectedMax15(b *testing.B) {
	s, err := NewThreshold(8, 15)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpectedMaxUniform(cost)
	}
}

func BenchmarkGridClosestQuorum12(b *testing.B) {
	s, err := NewGrid(12)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ClosestQuorum(cost)
	}
}

func BenchmarkGridExpectedMax12(b *testing.B) {
	s, err := NewGrid(12)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpectedMaxUniform(cost)
	}
}

// BenchmarkGridExpectedMax5 is the anchor-scoring kernel at grid:5, the
// socket benchmark's daemon system.
func BenchmarkGridExpectedMax5(b *testing.B) {
	s, err := NewGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	cost := benchCosts(25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpectedMaxUniform(cost)
	}
}

func BenchmarkSurviveGrid7(b *testing.B) {
	s, err := NewGrid(7)
	if err != nil {
		b.Fatal(err)
	}
	dead := []int{0, 8, 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Survive(s, dead); err != nil {
			b.Fatal(err)
		}
	}
}
