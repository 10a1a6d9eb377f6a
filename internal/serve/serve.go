// Package serve exposes deployments over HTTP — the transport of the
// quorumd daemon. A Registry multiplexes any number of named
// deployments ("tenants") in one process:
//
//	GET  /v1/deployments                     tenant roster
//	GET  /v1/deployments/<name>/plan         current snapshot (ETag = version)
//	POST /v1/deployments/<name>/deltas       apply a typed delta batch
//	GET  /v1/deployments/<name>/history      retained re-plans, newest first
//
// plus the legacy single-tenant routes, which alias the registry's
// default deployment byte-for-byte:
//
//	GET  /v1/plan    — the current snapshot. ETag is the plan version
//	                   ("v<n>"); If-None-Match returns 304 when nothing
//	                   changed. With ?after=<version>, the request
//	                   long-polls until a newer snapshot is published or
//	                   ?timeout (capped by Options.MaxWait; 0 means
//	                   "don't wait") elapses, in which case the current
//	                   snapshot is served.
//	POST /v1/deltas  — {"deltas": [...]} applies a batch of typed deltas
//	                   (see deploy.Delta) and returns the resulting
//	                   version and provenance.
//	GET  /v1/history — the retained re-plan history with provenance,
//	                   newest first (?limit=n).
//
// Reads are wait-free and allocation-free on the hot path: each
// publish is JSON-encoded once into immutable bytes (body + ETag), and
// every reader serves those cached bytes; 304s never touch the
// snapshot. Long-polls park on the tenant's epoch channel — one
// channel close per publish wakes every watcher — with deadlines on a
// shared coarse timer wheel instead of per-request timers, and a
// configurable watcher cap (503 + Retry-After beyond it).
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// DefaultMaxWatchers caps concurrently parked long-polls per tenant
// when Options.MaxWatchers is zero.
const DefaultMaxWatchers = 1 << 20

// DefaultMaxApplyQueue caps delta batches queued behind the manager's
// serialized apply loop when Options.MaxApplyQueue is zero. Re-plans
// take milliseconds, so a queue this deep means ingestion is outrunning
// planning and posters should back off and re-coalesce.
const DefaultMaxApplyQueue = 64

// ReadHeaderTimeout is how long a daemon listener waits for a
// connection's request headers before closing it, so a client that
// connects and goes silent cannot hold a socket and its goroutine
// forever.
const ReadHeaderTimeout = 5 * time.Second

// HTTPServer returns the http.Server behind every daemon listener
// (quorumd's API and debug listeners, the fleet worker, the fleet
// registry). Only the header read is bounded: long-polls legitimately
// park up to Options.MaxWait and a shard request stays open while its
// shard runs, for minutes, so there is no read, write or idle timeout.
func HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// Options tunes a Registry's tenants.
type Options struct {
	// MaxWait caps a long-poll's ?timeout (default 30s).
	MaxWait time.Duration
	// MaxWatchers caps concurrently parked long-polls per tenant
	// (default DefaultMaxWatchers); beyond it polls are rejected with
	// 503 + Retry-After instead of growing the parked set without bound.
	MaxWatchers int
	// MaxApplyQueue caps delta batches in flight (applying or queued on
	// the manager's apply loop) per tenant (default DefaultMaxApplyQueue);
	// beyond it POST deltas is rejected with 429 + Retry-After instead of
	// queueing unboundedly behind an in-flight re-plan.
	MaxApplyQueue int
}

func (o Options) maxWait() time.Duration {
	if o.MaxWait <= 0 {
		return 30 * time.Second
	}
	return o.MaxWait
}

func (o Options) maxWatchers() int {
	if o.MaxWatchers <= 0 {
		return DefaultMaxWatchers
	}
	return o.MaxWatchers
}

func (o Options) maxApplyQueue() int {
	if o.MaxApplyQueue <= 0 {
		return DefaultMaxApplyQueue
	}
	return o.MaxApplyQueue
}

// SiteJSON describes one site of the served plan.
type SiteJSON struct {
	Name     string  `json:"name"`
	Region   string  `json:"region,omitempty"`
	Capacity float64 `json:"capacity"`
	Weight   float64 `json:"weight,omitempty"`
}

// ProvenanceJSON serializes a snapshot's provenance plus the manager's
// adaptation decision.
type ProvenanceJSON struct {
	Summary    string   `json:"summary"`
	Recomputed []string `json:"recomputed"`
	Deltas     []string `json:"deltas,omitempty"`
	Pinned     bool     `json:"pinned,omitempty"`
	Decision   string   `json:"decision"`
}

// PlanJSON is the GET plan payload.
type PlanJSON struct {
	Version      uint64         `json:"version"`
	Topology     string         `json:"topology"`
	System       string         `json:"system"`
	Sites        []SiteJSON     `json:"sites"`
	ElementSites []string       `json:"element_sites"`
	Strategy     string         `json:"strategy"`
	Demand       float64        `json:"demand"`
	ResponseMS   float64        `json:"response_ms"`
	NetDelayMS   float64        `json:"net_delay_ms"`
	MaxLoad      float64        `json:"max_load"`
	Provenance   ProvenanceJSON `json:"provenance"`
}

// HistoryEntryJSON is one GET history element.
type HistoryEntryJSON struct {
	Version    uint64         `json:"version"`
	ResponseMS float64        `json:"response_ms"`
	NetDelayMS float64        `json:"net_delay_ms"`
	Applied    int            `json:"applied_deltas"`
	Provenance ProvenanceJSON `json:"provenance"`
}

// DeltasRequest is the POST deltas payload.
type DeltasRequest struct {
	Deltas []deploy.Delta `json:"deltas"`
}

// DeltasResponse is the POST deltas reply.
type DeltasResponse struct {
	Version    uint64         `json:"version"`
	ResponseMS float64        `json:"response_ms"`
	Provenance ProvenanceJSON `json:"provenance"`
}

func provenanceJSON(e *deploy.Entry) ProvenanceJSON {
	p := e.Snapshot.Provenance
	names := e.Snapshot.RecomputedNames()
	if names == nil {
		names = []string{}
	}
	return ProvenanceJSON{
		Summary:    p.Summary(),
		Recomputed: names,
		Deltas:     p.Deltas,
		Pinned:     p.Pinned,
		Decision:   e.Decision,
	}
}

func planJSON(e *deploy.Entry) *PlanJSON {
	snap := e.Snapshot
	topo := snap.Topology
	sites := make([]SiteJSON, topo.Size())
	for i := range sites {
		site := topo.Site(i)
		sites[i] = SiteJSON{Name: site.Name, Region: site.Region, Capacity: topo.Capacity(i)}
		if snap.Weights != nil {
			sites[i].Weight = snap.Weights[i]
		}
	}
	elems := make([]string, snap.Placement.UniverseSize())
	for u := range elems {
		elems[u] = topo.Site(snap.Placement.Node(u)).Name
	}
	return &PlanJSON{
		Version:      snap.Version,
		Topology:     topo.Name(),
		System:       snap.System.Name(),
		Sites:        sites,
		ElementSites: elems,
		Strategy:     snap.Strategy.Name(),
		Demand:       snap.Demand,
		ResponseMS:   snap.Response,
		NetDelayMS:   snap.NetDelay,
		MaxLoad:      snap.MaxLoad,
		Provenance:   provenanceJSON(e),
	}
}

func etag(v uint64) string { return fmt.Sprintf("\"v%d\"", v) }

func parseAfter(r *http.Request) (uint64, bool, error) {
	str := r.URL.Query().Get("after")
	if str == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseUint(str, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("invalid after version %q", str)
	}
	return v, true, nil
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
