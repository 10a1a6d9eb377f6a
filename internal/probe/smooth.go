package probe

import (
	"math"
	"sort"
)

// SmootherConfig tunes the per-pair sample filter. The zero value gets
// sane defaults: window 9 and a 5% noise band.
type SmootherConfig struct {
	// Window is the sliding-window length the median is taken over.
	Window int
	// Noise is the relative emission band: a new median is emitted only
	// when it differs from the last emitted value by more than
	// Noise × lastEmitted (default 5%), and by at least noiseFloorMS.
	Noise float64
	// Raw disables smoothing and hysteresis entirely: every sample is
	// emitted as measured. It exists to A/B the filter's effect (and for
	// the regression test proving the filter suppresses re-plans).
	Raw bool
}

func (c SmootherConfig) window() int {
	if c.Window <= 0 {
		return 9
	}
	return c.Window
}

func (c SmootherConfig) noise() float64 {
	if c.Noise <= 0 {
		return 0.05
	}
	return c.Noise
}

const (
	// madGate rejects a sample whose deviation from the window median
	// exceeds madGate × MAD (median absolute deviation) — the classic
	// robust outlier test; RTT spike artifacts (queueing, scheduler
	// stalls) die here.
	madGate = 4
	// shiftRuns is the number of consecutive rejected samples after
	// which the window is declared stale and flushed: a genuine level
	// shift (path change) looks like an endless run of outliers, and
	// flushing lets the smoother re-converge on the new level instead of
	// rejecting reality forever.
	shiftRuns = 5
	// noiseFloorMS is the absolute floor of the emission band, so
	// sub-millisecond links don't emit on every wiggle.
	noiseFloorMS = 0.5
)

// Smoother filters one measurement stream (one site pair): windowed
// median, MAD outlier rejection with level-shift recovery, and an
// emission hysteresis band. Not safe for concurrent use; each Agent
// owns one per peer.
type Smoother struct {
	cfg        SmootherConfig
	window     []float64 // ring buffer of accepted samples
	next       int       // ring write position once the window is full
	scratch    []float64 // sort space for median/MAD
	outlierRun int
	emitted    float64
	hasEmitted bool
}

// NewSmoother builds a smoother with the given configuration.
func NewSmoother(cfg SmootherConfig) *Smoother {
	w := cfg.window()
	return &Smoother{cfg: cfg, window: make([]float64, 0, w), scratch: make([]float64, 0, w)}
}

// Observe feeds one sample. It returns (value, true) when the sample
// moves the smoothed estimate beyond the noise band — the value to
// emit as an rtt delta — and (0, false) when the sample is absorbed.
// The first emission happens once the window fills (the warmup
// baseline); in Raw mode every sample emits unfiltered.
func (s *Smoother) Observe(v float64) (float64, bool) {
	if s.cfg.Raw {
		return v, true
	}
	w := s.cfg.window()

	// MAD gate: once enough samples exist for a meaningful deviation
	// estimate, reject spikes instead of letting them drag the median.
	if len(s.window) >= 4 {
		med, mad := s.stats()
		// Floor the MAD so a near-constant window (MAD → 0) doesn't
		// reject ordinary sub-noise wiggle as outliers.
		if floor := noiseFloorMS / madGate; mad < floor {
			mad = floor
		}
		if math.Abs(v-med) > madGate*mad {
			s.outlierRun++
			if s.outlierRun >= shiftRuns {
				// A run of consistent "outliers" is a level shift, not
				// noise: flush the stale window and re-converge from this
				// sample.
				s.window = s.window[:0]
				s.next = 0
				s.outlierRun = 0
				s.window = append(s.window, v)
			}
			return 0, false
		}
	}
	s.outlierRun = 0

	if len(s.window) < w {
		s.window = append(s.window, v)
		if len(s.window) < w {
			return 0, false
		}
	} else {
		s.window[s.next] = v
		s.next = (s.next + 1) % w
	}

	med, _ := s.stats()
	band := s.cfg.noise() * s.emitted
	if band < noiseFloorMS {
		band = noiseFloorMS
	}
	if !s.hasEmitted || math.Abs(med-s.emitted) > band {
		s.emitted = med
		s.hasEmitted = true
		return med, true
	}
	return 0, false
}

// stats returns the window's median and median absolute deviation.
func (s *Smoother) stats() (med, mad float64) {
	s.scratch = append(s.scratch[:0], s.window...)
	sort.Float64s(s.scratch)
	med = quantileMid(s.scratch)
	for i, v := range s.scratch {
		s.scratch[i] = math.Abs(v - med)
	}
	sort.Float64s(s.scratch)
	mad = quantileMid(s.scratch)
	return med, mad
}

func quantileMid(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
