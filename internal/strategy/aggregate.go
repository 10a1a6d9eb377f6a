package strategy

import (
	"encoding/binary"
	"math"

	"github.com/quorumnet/quorumnet/internal/core"
)

// clientGroups is an exact aggregation of the evaluation's clients into
// weighted super-clients. Two clients land in the same group iff their
// RTT rows agree bit-for-bit on every support node of the placement.
// That signature determines everything the access LP knows about a
// client up to its weight:
//
//   - the delay coefficient δ_f(v, Q_i) = max_{u∈Q_i} RTT(v, f(u)) reads
//     only support-node RTTs, so grouped clients share every δ row; and
//   - both the objective and the capacity coefficients are linear in the
//     client's weight, so a group behaves exactly like one client whose
//     weight is the members' sum.
//
// Any per-group distribution therefore prices, loads, and costs exactly
// as the same distribution assigned to each member — the LP over groups
// and the LP over clients have identical optima, and fanning a group's
// optimal distribution back out to its members is an optimal (and
// feasible) solution of the original LP. No tolerance is involved: the
// signature compares exact float bits, never "close" RTTs.
type clientGroups struct {
	members [][]int   // members[g]: indices into e.Clients
	site    []int     // site[g]: a representative member's topology node
	weight  []float64 // weight[g]: Σ members' ClientWeight, scaled by nc
}

// groupClients builds the aggregation. With aggregate=false every client
// becomes its own singleton group (the diagnostic Config.NoAggregate
// path). Group order follows first appearance in e.Clients, so the
// construction is deterministic.
func groupClients(e *core.Eval, support []int, aggregate bool) *clientGroups {
	nc := len(e.Clients)
	g := &clientGroups{}
	add := func(k, v int) {
		g.members = append(g.members, []int{k})
		g.site = append(g.site, v)
		g.weight = append(g.weight, e.ClientWeight(k)*float64(nc))
	}
	if !aggregate {
		for k, v := range e.Clients {
			add(k, v)
		}
		return g
	}
	// Signature: the support-restricted RTT row, packed as raw float64
	// bits. Distinct clients at the same site trivially share it.
	key := make([]byte, 8*len(support))
	seen := make(map[string]int, nc)
	for k, v := range e.Clients {
		row := e.Topo.RTTRow(v)
		for si, w := range support {
			binary.LittleEndian.PutUint64(key[8*si:], math.Float64bits(row[w]))
		}
		if gi, ok := seen[string(key)]; ok {
			g.members[gi] = append(g.members[gi], k)
			g.weight[gi] += e.ClientWeight(k) * float64(nc)
			continue
		}
		seen[string(key)] = len(g.members)
		add(k, v)
	}
	return g
}
