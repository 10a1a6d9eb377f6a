package probe

import (
	"math"
	"testing"
)

func observeAll(s *Smoother, samples []float64) (emitted []float64) {
	for _, v := range samples {
		if e, ok := s.Observe(v); ok {
			emitted = append(emitted, e)
		}
	}
	return emitted
}

func TestSmootherWarmupEmitsMedian(t *testing.T) {
	s := NewSmoother(SmootherConfig{Window: 5})
	got := observeAll(s, []float64{50, 52, 48, 51, 49})
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("warmup emissions %v, want [50]", got)
	}
}

func TestSmootherHysteresisAbsorbsNoise(t *testing.T) {
	s := NewSmoother(SmootherConfig{Window: 5, Noise: 0.05})
	if got := observeAll(s, []float64{50, 50.3, 49.7, 50.2, 49.8}); len(got) != 1 {
		t.Fatalf("warmup emissions %v", got)
	}
	// ±0.4ms wiggle on a 50ms link stays far inside the 5% band.
	if got := observeAll(s, []float64{50.4, 49.6, 50.1, 49.9, 50.2, 49.8, 50.3, 49.7}); len(got) != 0 {
		t.Fatalf("noise emitted %v, want nothing", got)
	}
	// A real drift beyond the band re-emits (after the MAD gate's
	// level-shift run and the window refill).
	drift := make([]float64, 12)
	for i := range drift {
		drift[i] = 56
	}
	if got := observeAll(s, drift); len(got) == 0 {
		t.Fatal("drift beyond the band never emitted")
	}
}

func TestSmootherRejectsSpikes(t *testing.T) {
	s := NewSmoother(SmootherConfig{Window: 5, Noise: 0.05})
	observeAll(s, []float64{50, 50.2, 49.8, 50.1, 49.9})
	// A 10× spike must neither emit nor drag the median.
	if got := observeAll(s, []float64{500, 50, 500, 49.9, 50.1}); len(got) != 0 {
		t.Fatalf("spikes emitted %v", got)
	}
}

func TestSmootherLevelShiftRecovers(t *testing.T) {
	const window = 5
	s := NewSmoother(SmootherConfig{Window: window, Noise: 0.05})
	observeAll(s, []float64{50, 50.2, 49.8, 50.1, 49.9})
	// The path changed: every new sample is ~80ms. The first shiftRuns
	// samples are rejected as outliers, then the window flushes, refills
	// from the last of them, and the smoother converges on the new level.
	shifted := make([]float64, shiftRuns+window-1)
	for i := range shifted {
		shifted[i] = 80 + 0.2*float64(i%3-1)
	}
	got := observeAll(s, shifted)
	if len(got) == 0 {
		t.Fatal("level shift never emitted")
	}
	if last := got[len(got)-1]; math.Abs(last-80) > 1 {
		t.Fatalf("re-converged at %v, want ~80", last)
	}
}

func TestSmootherRawPassthrough(t *testing.T) {
	s := NewSmoother(SmootherConfig{Raw: true})
	in := []float64{50, 500, 49, 51}
	got := observeAll(s, in)
	if len(got) != len(in) {
		t.Fatalf("raw mode emitted %v, want every sample", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("raw mode altered sample %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestSmootherConstantWindowToleratesWiggle(t *testing.T) {
	// A perfectly constant window has MAD 0; the floor keeps ordinary
	// sub-noise wiggle from being rejected as outliers forever.
	s := NewSmoother(SmootherConfig{Window: 5, Noise: 0.05})
	observeAll(s, []float64{50, 50, 50, 50, 50})
	for i := 0; i < 20; i++ {
		if _, ok := s.Observe(50.1); ok {
			t.Fatal("sub-band wiggle emitted")
		}
	}
	if s.outlierRun != 0 {
		t.Fatalf("wiggle counted as outliers: run %d", s.outlierRun)
	}
}

func TestSmootherNoiseFloorHoldsSubMillisecondMoves(t *testing.T) {
	// On a 2ms link the 5% band is 0.1ms; the 0.5ms floor widens it, so
	// a 0.45ms move is absorbed and only a 0.6ms move emits.
	s := NewSmoother(SmootherConfig{Window: 3, Noise: 0.05})
	if got := observeAll(s, []float64{2, 2, 2}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("warmup emissions %v, want [2]", got)
	}
	if got := observeAll(s, []float64{2.45, 2.45, 2.45, 2.45}); len(got) != 0 {
		t.Fatalf("0.45ms move emitted %v, want nothing under the 0.5ms floor", got)
	}
	if got := observeAll(s, []float64{2.6, 2.6, 2.6}); len(got) != 1 || got[0] != 2.6 {
		t.Fatalf("0.6ms move emitted %v, want [2.6]", got)
	}
}

func TestSmootherMADGateIsFourMADs(t *testing.T) {
	// The window {48, 49, 50, 51, 52} has median 50 and MAD 1, so the
	// gate admits a sample 3.9ms off the median and rejects one 4.1ms off.
	for _, tc := range []struct {
		sample float64
		reject bool
	}{{53.9, false}, {46.1, false}, {54.1, true}, {45.9, true}} {
		s := NewSmoother(SmootherConfig{Window: 5, Noise: 0.05})
		observeAll(s, []float64{50, 51, 49, 52, 48})
		s.Observe(tc.sample)
		if got := s.outlierRun == 1; got != tc.reject {
			t.Errorf("sample %v: rejected %v, want %v", tc.sample, got, tc.reject)
		}
	}
}
