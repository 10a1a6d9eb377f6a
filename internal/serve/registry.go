package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/quorumnet/quorumnet/internal/deploy"
)

// DefaultTenant is the deployment name the legacy single-tenant routes
// (/v1/plan, /v1/deltas, /v1/history) alias when no explicit default
// was chosen.
const DefaultTenant = "default"

// Registry multiplexes named deployments in one process: each tenant
// owns its deploy.Manager (and optional journal), while the HTTP
// listener, the coarse long-poll wheel, and the planner worker pools
// are shared. Tenants are served at /v1/deployments/<name>/{plan,
// deltas,history}; the legacy single-tenant routes alias the default
// tenant (the first one opened) with byte-identical responses.
type Registry struct {
	opts  Options
	wheel *wheel

	mu      sync.RWMutex
	tenants map[string]*Tenant
	def     *Tenant
}

// NewRegistry builds an empty registry; add deployments with Open.
func NewRegistry(opts Options) *Registry {
	return &Registry{
		opts:    opts,
		wheel:   newWheel(0),
		tenants: make(map[string]*Tenant),
	}
}

// ValidTenantName reports whether name can name a deployment: 1–64
// characters of letters, digits, '-', '_' or '.', not starting with a
// dot (no path tricks in /v1/deployments/<name>/...).
func ValidTenantName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Open registers a named deployment and returns its tenant. The first
// tenant opened becomes the default (legacy-route alias). The manager
// must not be registered twice.
func (r *Registry) Open(name string, m *deploy.Manager) (*Tenant, error) {
	if !ValidTenantName(name) {
		return nil, fmt.Errorf("serve: invalid deployment name %q (want 1-64 of [a-zA-Z0-9._-], not starting with '.')", name)
	}
	if m == nil {
		return nil, fmt.Errorf("serve: deployment %q: nil manager", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; ok {
		return nil, fmt.Errorf("serve: deployment %q already registered", name)
	}
	t := newTenant(name, m, r.opts, r.wheel)
	r.tenants[name] = t
	if r.def == nil {
		r.def = t
	}
	return t, nil
}

// Tenant returns the named tenant, or nil.
func (r *Registry) Tenant(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// Default returns the default tenant, or nil for an empty registry.
func (r *Registry) Default() *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Names lists the registered deployment names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots every tenant's counters, keyed by name.
func (r *Registry) Stats() map[string]TenantStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]TenantStats, len(r.tenants))
	for name, t := range r.tenants {
		out[name] = t.Stats()
	}
	return out
}

// DeploymentJSON is one GET /v1/deployments roster element.
type DeploymentJSON struct {
	Name       string  `json:"name"`
	Version    uint64  `json:"version"`
	Topology   string  `json:"topology"`
	System     string  `json:"system"`
	ResponseMS float64 `json:"response_ms"`
	Default    bool    `json:"default,omitempty"`
}

func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	r.mu.RLock()
	def := r.def
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	out := make([]DeploymentJSON, len(tenants))
	for i, t := range tenants {
		snap := t.m.Current().Snapshot
		out[i] = DeploymentJSON{
			Name:       t.name,
			Version:    snap.Version,
			Topology:   snap.Topology.Name(),
			System:     snap.System.Name(),
			ResponseMS: snap.Response,
			Default:    t == def,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"deployments": out})
}

// handleTenant dispatches /v1/deployments/<name>/<route>.
func (r *Registry) handleTenant(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/v1/deployments/")
	name, route, ok := strings.Cut(rest, "/")
	if !ok || name == "" {
		httpError(w, http.StatusNotFound, "want /v1/deployments/<name>/{plan,deltas,history}")
		return
	}
	t := r.Tenant(name)
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no deployment named %q", name))
		return
	}
	switch route {
	case "plan":
		t.handlePlan(w, req)
	case "deltas":
		t.handleDeltas(w, req)
	case "history":
		t.handleHistory(w, req)
	default:
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown route %q (want plan, deltas, or history)", route))
	}
}

// defaultOr404 wraps a tenant handler, serving it on the default
// tenant (legacy alias) or 404ing on an empty registry.
func (r *Registry) defaultOr404(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		t := r.Default()
		if t == nil {
			httpError(w, http.StatusNotFound, "no deployments registered")
			return
		}
		h(t, w, req)
	}
}

// Handler returns the HTTP routes: the per-tenant tree plus the legacy
// single-tenant aliases of the default deployment.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/deployments", r.handleList)
	mux.HandleFunc("/v1/deployments/", r.handleTenant)
	mux.Handle("/v1/plan", r.defaultOr404((*Tenant).handlePlan))
	mux.Handle("/v1/deltas", r.defaultOr404((*Tenant).handleDeltas))
	mux.Handle("/v1/history", r.defaultOr404((*Tenant).handleHistory))
	return mux
}
