// Package topology models wide-area network topologies: a set of named
// sites, a round-trip-time metric between them, and per-site capacities.
//
// The paper evaluates on two topologies built from measurements: RTTs
// between 50 PlanetLab sites ("Planetlab-50") and king-estimated delays
// between 161 web servers ("daxlist-161"). Those datasets are not
// redistributable, so this package synthesizes equivalents with the same
// structure: sites clustered into geographic regions, great-circle
// propagation delay with path inflation, per-site access delay, and seeded
// jitter, followed by a metric closure. See DESIGN.md for the substitution
// rationale. Real measurements can be used instead via Load.
package topology

import (
	"fmt"
	"math"

	"github.com/quorumnet/quorumnet/internal/graph"
)

// Site describes one wide-area location.
type Site struct {
	Name   string
	Region string
	Lat    float64 // degrees, positive north
	Lon    float64 // degrees, positive east
}

// Topology is a set of sites with a round-trip delay metric (milliseconds)
// and a capacity per site. Capacities are in load units — the fraction of
// total client demand a site may absorb — and default to 1 (unconstrained).
type Topology struct {
	name  string
	sites []Site
	dist  *graph.Matrix
	caps  []float64
}

// New assembles a topology from sites and a distance matrix. The matrix
// must match the site count; it is not copied. It returns an error if the
// matrix is not a metric (symmetric, zero diagonal, triangle inequality):
// callers with raw measured data should call (*graph.Matrix).MetricClosure
// first, as the generators in this package do.
func New(name string, sites []Site, dist *graph.Matrix) (*Topology, error) {
	if dist.Size() != len(sites) {
		return nil, fmt.Errorf("topology: %d sites but %d×%d matrix", len(sites), dist.Size(), dist.Size())
	}
	if !dist.IsMetric(1e-6) {
		return nil, fmt.Errorf("topology %q: distance matrix is not a metric; apply MetricClosure first", name)
	}
	return newTrusted(name, sites, dist), nil
}

// NewMetric assembles a topology from a matrix the caller guarantees is
// already a metric — for example the output of (*graph.Matrix).MetricClosure
// or (*graph.Graph).Closure, which satisfy symmetry and the triangle
// inequality by construction. It skips New's O(n³) IsMetric validation,
// which at internet scale (1k–10k sites) costs more than computing the
// closure itself.
func NewMetric(name string, sites []Site, dist *graph.Matrix) (*Topology, error) {
	if dist.Size() != len(sites) {
		return nil, fmt.Errorf("topology: %d sites but %d×%d matrix", len(sites), dist.Size(), dist.Size())
	}
	return newTrusted(name, sites, dist), nil
}

// FromGraph builds a topology whose RTT metric is the shortest-path closure
// of an edge graph, computed on the sparse parallel path. The graph must
// be connected: a disconnected graph would put +Inf RTTs in the metric,
// which every downstream consumer (placement balls, LP coefficients)
// would silently corrupt on.
func FromGraph(name string, sites []Site, g *graph.Graph) (*Topology, error) {
	if g.NumNodes() != len(sites) {
		return nil, fmt.Errorf("topology: %d sites but %d graph nodes", len(sites), g.NumNodes())
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology %q: edge graph is disconnected", name)
	}
	return newTrusted(name, sites, g.Closure()), nil
}

func newTrusted(name string, sites []Site, dist *graph.Matrix) *Topology {
	caps := make([]float64, len(sites))
	for i := range caps {
		caps[i] = 1
	}
	return &Topology{name: name, sites: append([]Site(nil), sites...), dist: dist, caps: caps}
}

// Name returns the topology's name (e.g. "planetlab-50").
func (t *Topology) Name() string { return t.name }

// Size returns the number of sites.
func (t *Topology) Size() int { return len(t.sites) }

// Site returns the i-th site's metadata.
func (t *Topology) Site(i int) Site { return t.sites[i] }

// RTT returns the round-trip delay between sites u and v in milliseconds.
func (t *Topology) RTT(u, v int) float64 { return t.dist.At(u, v) }

// Distances exposes the underlying metric. Callers must treat it as
// read-only.
func (t *Topology) Distances() *graph.Matrix { return t.dist }

// RTTRow returns the RTTs from site v to all sites. The slice is shared
// with the topology and must not be mutated; it exists for hot loops.
func (t *Topology) RTTRow(v int) []float64 { return t.dist.RowView(v) }

// Capacity returns the capacity of site v.
func (t *Topology) Capacity(v int) float64 { return t.caps[v] }

// Capacities returns a copy of all site capacities.
func (t *Topology) Capacities() []float64 {
	out := make([]float64, len(t.caps))
	copy(out, t.caps)
	return out
}

// SetCapacity sets the capacity of site v. Capacities must be positive.
func (t *Topology) SetCapacity(v int, c float64) error {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("topology: invalid capacity %v for site %d", c, v)
	}
	t.caps[v] = c
	return nil
}

// SetUniformCapacity sets every site's capacity to c.
func (t *Topology) SetUniformCapacity(c float64) error {
	for v := range t.caps {
		if err := t.SetCapacity(v, c); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy; mutating the clone's capacities does not
// affect the original. The distance matrix is shared (it is immutable by
// convention).
func (t *Topology) Clone() *Topology {
	caps := make([]float64, len(t.caps))
	copy(caps, t.caps)
	return &Topology{
		name:  t.name,
		sites: append([]Site(nil), t.sites...),
		dist:  t.dist,
		caps:  caps,
	}
}

// Median returns the site minimizing average distance from all sites, and
// that average. This is the singleton placement target.
func (t *Topology) Median() (site int, avgRTT float64) { return t.dist.Median() }

// Ball returns the k sites closest to center, including center, ordered by
// distance.
func (t *Topology) Ball(center, k int) []int { return t.dist.Ball(center, k) }

// AvgRTT returns the mean off-diagonal RTT, a summary statistic used in
// reports.
func (t *Topology) AvgRTT() float64 {
	n := t.Size()
	if n < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += t.dist.At(i, j)
			}
		}
	}
	return sum / float64(n*(n-1))
}

// Stats summarizes a topology for reports and the topogen tool.
type Stats struct {
	Sites        int
	Regions      map[string]int
	AvgRTT       float64
	MedianSite   int
	MedianAvgRTT float64
	MinRTT       float64
	MaxRTT       float64
}

// Stats computes summary statistics.
func (t *Topology) Stats() Stats {
	s := Stats{
		Sites:   t.Size(),
		Regions: map[string]int{},
		AvgRTT:  t.AvgRTT(),
		MinRTT:  math.Inf(1),
		MaxRTT:  math.Inf(-1),
	}
	s.MedianSite, s.MedianAvgRTT = t.Median()
	for _, site := range t.sites {
		s.Regions[site.Region]++
	}
	for i := 0; i < t.Size(); i++ {
		for j := i + 1; j < t.Size(); j++ {
			d := t.dist.At(i, j)
			if d < s.MinRTT {
				s.MinRTT = d
			}
			if d > s.MaxRTT {
				s.MaxRTT = d
			}
		}
	}
	if t.Size() < 2 {
		s.MinRTT, s.MaxRTT = 0, 0
	}
	return s
}
