package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// LeaseOptions tunes a worker's registration lease.
type LeaseOptions struct {
	// RetryDelay is the pause between failed registration attempts
	// (default 500ms) — the registry may simply not be up yet, so a
	// worker can start before its coordinator.
	RetryDelay time.Duration
	// Slots advertises the worker's concurrent-shard capacity with every
	// (re-)registration (<= 0 means 1): coordinators send the worker at
	// most this many shards at once.
	Slots int
	// Logf, when set, receives lease lifecycle logs.
	Logf func(format string, args ...interface{})
}

func (o LeaseOptions) retryDelay() time.Duration {
	if o.RetryDelay <= 0 {
		return 500 * time.Millisecond
	}
	return o.RetryDelay
}

// Lease keeps one worker registered with a registry: it registers
// (retrying until the registry exists), heartbeats at the cadence the
// registration reply dictates, and re-registers under a fresh id
// whenever the registry stops recognizing the current one (expiry,
// registry restart). Stop ends the lease; the registry then declares
// the worker dead after missedHeartbeats intervals.
type Lease struct {
	registry  string
	advertise string
	opts      LeaseOptions
	client    *http.Client

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// Join starts a lease registering advertise (the address coordinators
// dispatch shards to) with the registry at registryAddr.
func Join(registryAddr, advertise string, opts LeaseOptions) (*Lease, error) {
	registryAddr = normalizeAddr(registryAddr)
	if registryAddr == "" {
		return nil, fmt.Errorf("fleet: empty registry address")
	}
	if strings.TrimSpace(advertise) == "" {
		return nil, fmt.Errorf("fleet: empty advertise address")
	}
	l := &Lease{
		registry:  registryAddr,
		advertise: strings.TrimSpace(advertise),
		opts:      opts,
		client:    &http.Client{Timeout: 10 * time.Second},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go l.run()
	return l, nil
}

func (l *Lease) logf(format string, args ...interface{}) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// Stop ends the lease and waits for its goroutine.
func (l *Lease) Stop() {
	l.mu.Lock()
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.mu.Unlock()
	<-l.done
}

func (l *Lease) run() {
	defer close(l.done)
	for {
		resp, ok := l.register()
		if !ok {
			return // stopped
		}
		interval := time.Duration(resp.HeartbeatMS) * time.Millisecond
		if interval <= 0 {
			interval = time.Second
		}
		l.logf("fleet lease: registered as %s (heartbeat every %s)", resp.ID, interval)
		if !l.beat(resp.ID, interval) {
			return // stopped
		}
		l.logf("fleet lease: %s no longer recognized; re-registering", resp.ID)
	}
}

// register retries until a registration lands or the lease stops.
func (l *Lease) register() (*RegisterResponse, bool) {
	for {
		body, _ := json.Marshal(&RegisterRequest{Addr: l.advertise, Slots: l.opts.Slots})
		resp, err := l.client.Post(l.registry+"/v1/workers", "application/json", bytes.NewReader(body))
		if err == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusCreated {
				var reg RegisterResponse
				if json.Unmarshal(data, &reg) == nil && reg.ID != "" {
					return &reg, true
				}
				err = fmt.Errorf("malformed registration reply")
			} else if rerr == nil {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			} else {
				err = rerr
			}
		}
		l.logf("fleet lease: registration failed (%v); retrying in %s", err, l.opts.retryDelay())
		select {
		case <-l.stop:
			return nil, false
		case <-time.After(l.opts.retryDelay()):
		}
	}
}

// beat heartbeats until the registry rejects the id (returns true: the
// caller re-registers) or the lease stops (returns false).
func (l *Lease) beat(id string, interval time.Duration) bool {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return false
		case <-ticker.C:
		}
		resp, err := l.client.Post(l.registry+"/v1/workers/"+id+"/heartbeat", "application/json", nil)
		if err != nil {
			// The registry may be restarting; keep beating. If it comes
			// back having forgotten us, the next beat's 404 re-registers.
			l.logf("fleet lease: heartbeat failed: %v", err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNoContent:
		case resp.StatusCode == http.StatusNotFound:
			return true
		default:
			l.logf("fleet lease: heartbeat HTTP %d", resp.StatusCode)
		}
	}
}
