// Package core implements the paper's model (§4): quorum placements
// f : U → V, client access strategies p_v, the load they induce on network
// nodes, and the response-time objective
//
//	ρ_f(v, Q) = max_{w ∈ f(Q)} ( d(v, w) + α·load_f(w) )        (4.1)
//	Δ_f(v)   = Σ_Q p_v(Q) · ρ_f(v, Q)                            (4.2)
//
// minimized on average over clients. Setting α = 0 turns the objective
// into average network delay (§6); α = op_srv_time × client_demand models
// processing delay under load (§7).
package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/quorumnet/quorumnet/internal/topology"
)

// Placement maps universe elements to network nodes: element u lives on
// node Node(u). Placements may be one-to-one (preserving the original
// system's fault tolerance) or many-to-one (§4.1.2).
type Placement struct {
	target []int
}

// NewPlacement builds a placement from the element→node table. It
// validates every node index against the topology.
func NewPlacement(target []int, topo *topology.Topology) (Placement, error) {
	if len(target) == 0 {
		return Placement{}, fmt.Errorf("core: empty placement")
	}
	for u, w := range target {
		if w < 0 || w >= topo.Size() {
			return Placement{}, fmt.Errorf("core: element %d placed on invalid node %d", u, w)
		}
	}
	return Placement{target: append([]int(nil), target...)}, nil
}

// SingletonPlacement places all n elements of a universe on one node.
func SingletonPlacement(n, node int, topo *topology.Topology) (Placement, error) {
	t := make([]int, n)
	for i := range t {
		t[i] = node
	}
	return NewPlacement(t, topo)
}

// UniverseSize returns the number of placed elements.
func (f Placement) UniverseSize() int { return len(f.target) }

// Node returns the node hosting element u.
func (f Placement) Node(u int) int { return f.target[u] }

// Targets returns a copy of the element→node table.
func (f Placement) Targets() []int { return append([]int(nil), f.target...) }

// Equal reports whether f and g place every element on the same node.
func (f Placement) Equal(g Placement) bool { return slices.Equal(f.target, g.target) }

// Support returns the distinct nodes hosting at least one element, sorted
// ascending ("the support set of the placement").
func (f Placement) Support() []int {
	seen := map[int]bool{}
	for _, w := range f.target {
		seen[w] = true
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// ElementsOn returns the elements hosted by node w, sorted ascending.
func (f Placement) ElementsOn(w int) []int {
	var out []int
	for u, node := range f.target {
		if node == w {
			out = append(out, u)
		}
	}
	return out
}
