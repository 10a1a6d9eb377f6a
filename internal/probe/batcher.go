package probe

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// Poster posts one coalesced delta batch to a deployment.
type Poster interface {
	Post(ctx context.Context, batch []deploy.Delta) error
}

// PostFunc adapts a function to the Poster interface.
type PostFunc func(ctx context.Context, batch []deploy.Delta) error

// Post implements Poster.
func (f PostFunc) Post(ctx context.Context, batch []deploy.Delta) error { return f(ctx, batch) }

// ManagerPoster applies batches straight to an in-process manager —
// the no-HTTP path for tests, simulations, and embedded deployments.
type ManagerPoster struct {
	M *deploy.Manager
}

// Post implements Poster. A re-plan failure (deploy.ErrReplan) counts
// as posted: the deltas are in force, re-posting them would not help.
func (p ManagerPoster) Post(_ context.Context, batch []deploy.Delta) error {
	_, err := p.M.Apply(batch)
	if errors.Is(err, deploy.ErrReplan) {
		return nil
	}
	return err
}

// ErrGone marks a permanent post rejection (4xx other than 429): the
// batch is malformed or addressed to a missing deployment, and
// retrying cannot fix it. The batcher drops such batches instead of
// re-queueing them forever.
var ErrGone = errors.New("probe: batch permanently rejected")

// HTTPPoster posts batches to a quorumd deltas endpoint with bounded
// retry and exponential backoff, honoring Retry-After on 429/503 —
// the server's backpressure signals push the mesh to re-coalesce
// locally instead of hammering a busy apply loop.
type HTTPPoster struct {
	// URL is the deltas endpoint, e.g.
	// http://host:8080/v1/deltas or .../v1/deployments/<name>/deltas.
	URL string
	// Backoff is the initial retry delay (default 200ms), doubled per
	// attempt; a Retry-After header overrides it.
	Backoff time.Duration
}

// postAttempts bounds tries per batch.
const postAttempts = 5

func (p *HTTPPoster) backoff() time.Duration {
	if p.Backoff <= 0 {
		return 200 * time.Millisecond
	}
	return p.Backoff
}

// Post implements Poster. 2xx is success; 409 (applied but not
// plannable) is success too — the deltas are in force. Other 4xx are
// permanent (ErrGone); 429/503/network errors retry with backoff.
func (p *HTTPPoster) Post(ctx context.Context, batch []deploy.Delta) error {
	body, err := json.Marshal(struct {
		Deltas []deploy.Delta `json:"deltas"`
	}{batch})
	if err != nil {
		return fmt.Errorf("probe: encoding batch: %w", err)
	}
	backoff := p.backoff()
	var last error
	for attempt := 0; attempt < postAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			last = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			return nil
		case resp.StatusCode == http.StatusConflict:
			// Applied but not plannable: the world changed, the plan will
			// catch up on a later batch. Re-posting would double-apply.
			return nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			last = fmt.Errorf("probe: post %s: %s", p.URL, resp.Status)
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
					backoff = time.Duration(secs) * time.Second
				}
			}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return fmt.Errorf("%w: %s: %s", ErrGone, resp.Status, bytes.TrimSpace(msg))
		default:
			last = fmt.Errorf("probe: post %s: %s: %s", p.URL, resp.Status, bytes.TrimSpace(msg))
		}
	}
	return fmt.Errorf("probe: giving up after %d attempts: %w", postAttempts, last)
}

// Batcher is the client-side debouncer between delta producers (mesh
// agents) and a deployment: producers Add emitted deltas at any rate,
// the batcher coalesces them locally with deploy.Coalesce semantics,
// and only the cadence loop posts — one batch per window, never
// mid-window. A window of probe chatter becomes at most one delta per
// site pair and one published version.
type Batcher struct {
	poster Poster
	// OnFlush, when set, observes every posted window (n = batch size).
	// Set it before Run.
	OnFlush func(n int, err error)

	mu      sync.Mutex
	pending []deploy.Delta
}

// NewBatcher builds a batcher over the given poster.
func NewBatcher(p Poster) *Batcher {
	return &Batcher{poster: p}
}

// Add coalesces deltas into the pending window.
func (b *Batcher) Add(ds ...deploy.Delta) {
	if len(ds) == 0 {
		return
	}
	b.mu.Lock()
	b.pending = deploy.Coalesce(append(b.pending, ds...))
	b.mu.Unlock()
}

// Flush posts the pending window (if any) as one batch. On a transient
// failure the batch is re-queued ahead of anything added meanwhile —
// coalesced again, so newer values still supersede re-queued ones; on
// a permanent rejection (ErrGone) the batch is dropped. Returns the
// attempted batch size.
func (b *Batcher) Flush(ctx context.Context) (int, error) {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) == 0 {
		return 0, nil
	}
	err := b.poster.Post(ctx, batch)
	if err != nil && !errors.Is(err, ErrGone) {
		b.mu.Lock()
		b.pending = deploy.Coalesce(append(batch, b.pending...))
		b.mu.Unlock()
	}
	return len(batch), err
}

// Run posts on the cadence until the context ends, then makes one
// best-effort final flush so a drained window is not lost on shutdown.
func (b *Batcher) Run(ctx context.Context, cadence time.Duration) {
	if cadence <= 0 {
		cadence = 5 * time.Second
	}
	ticker := time.NewTicker(cadence)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			n, err := b.Flush(fctx)
			cancel()
			if b.OnFlush != nil && n > 0 {
				b.OnFlush(n, err)
			}
			return
		case <-ticker.C:
			n, err := b.Flush(ctx)
			if b.OnFlush != nil && n > 0 {
				b.OnFlush(n, err)
			}
		}
	}
}
