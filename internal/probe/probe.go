// Package probe closes the telemetry loop: it is the measurement side
// of the deployment plane, producing the typed deltas that
// deploy.Manager consumes. Two pieces compose:
//
//   - Agent measures one row of the N×N RTT ping mesh against its peer
//     agents — over a real UDP echo Transport or an injectable FakeMesh
//     — and runs every sample through a Smoother: windowed median with
//     MAD outlier rejection, emitting an rtt delta only when the
//     smoothed value moves beyond a noise threshold. This probe-noise
//     hysteresis stacks under the deploy manager's move hysteresis:
//     noise that never clears the emission band never even reaches the
//     planner, so a noisy-but-stationary mesh costs zero re-plans.
//
//   - Batcher coalesces emitted deltas locally (deploy.Coalesce
//     semantics — a window of probe chatter collapses to one delta per
//     site pair) and posts one batch per cadence tick with
//     retry/backoff, never mid-window. One published version per
//     window, not one per probe.
//
// Staleness is observable end to end: every accepted batch resets the
// serving tenant's delta_age_ms gauge, so a dead mesh shows up as
// unbounded input age rather than as a silently frozen plan.
package probe

import "context"

// Transport measures round-trip times from the local agent to named
// peers. Implementations must be safe for concurrent use.
type Transport interface {
	// Measure returns one RTT sample to the named peer in milliseconds.
	Measure(ctx context.Context, peer string) (float64, error)
}
