package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Eval evaluates a (topology, system, placement) triple under the paper's
// response-time model. The zero value is unusable; construct with NewEval
// and adjust fields before calling measures.
type Eval struct {
	Topo *topology.Topology
	Sys  quorum.System
	F    Placement
	// Alpha converts per-node load into milliseconds of processing delay:
	// alpha = op_srv_time × client_demand (§7). Zero evaluates pure
	// network delay (§6).
	Alpha float64
	// Clients lists the client nodes. A client is its position k in this
	// list and Clients[k] is its node, so a node listed twice is two
	// clients. The paper takes V itself as the client set; NewEval
	// defaults to all nodes. Set it with SetClients.
	Clients []int
	// Mode selects the load model; NewEval defaults to LoadMultiplicity
	// (the paper's definition).
	Mode LoadMode

	weights []float64      // weights[k]: client k's normalized demand share
	quorums [][]int        // memoized enumerated quorums (enumerable systems)
	hosts   [][]QuorumHost // memoized f(Q_i) per enumerated quorum
	closest [][]int        // closest[k]: client k's closest quorum (see closestQuorum)
}

// OpServiceTimeMS is the per-request server processing time the paper
// measured for a Q/U write on its hardware, used to derive Alpha.
const OpServiceTimeMS = 0.007

// AlphaForDemand returns alpha = OpServiceTimeMS × clientDemand (§7).
func AlphaForDemand(clientDemand float64) float64 {
	return OpServiceTimeMS * clientDemand
}

// NewEval validates the triple and returns an evaluator with all nodes as
// clients, the multiplicity load model, and the given alpha.
func NewEval(topo *topology.Topology, sys quorum.System, f Placement, alpha float64) (*Eval, error) {
	if topo == nil || sys == nil {
		return nil, fmt.Errorf("core: nil topology or system")
	}
	if f.UniverseSize() != sys.UniverseSize() {
		return nil, fmt.Errorf("core: placement covers %d elements but %s has %d",
			f.UniverseSize(), sys.Name(), sys.UniverseSize())
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("core: invalid alpha %v", alpha)
	}
	clients := make([]int, topo.Size())
	for i := range clients {
		clients[i] = i
	}
	return &Eval{
		Topo:    topo,
		Sys:     sys,
		F:       f,
		Alpha:   alpha,
		Clients: clients,
		Mode:    LoadMultiplicity,
		weights: uniformWeights(len(clients)),
	}, nil
}

// WithPlacement returns a copy of e that evaluates placement f, which
// must cover e's universe. The copy shares e's clients and weights
// read-only (SetClients and SetClientWeights replace those slices rather
// than write into them), so an anchor search pays for one client list
// and one weight vector, not one per anchor.
func (e *Eval) WithPlacement(f Placement) *Eval {
	out := *e
	out.F, out.quorums, out.hosts, out.closest = f, nil, nil, nil
	return &out
}

// SetClients restricts the client set (e.g. the ten client sites of the
// §3 experiment).
func (e *Eval) SetClients(clients []int) error {
	if len(clients) == 0 {
		return fmt.Errorf("core: empty client set")
	}
	for _, v := range clients {
		if v < 0 || v >= e.Topo.Size() {
			return fmt.Errorf("core: client node %d out of range", v)
		}
	}
	e.Clients = append([]int(nil), clients...)
	e.weights = uniformWeights(len(e.Clients)) // weights are positional
	e.closest = nil
	return nil
}

// SetClientWeights assigns relative demand weights to the clients
// (positionally aligned with Clients); nil restores uniform demand. The
// paper weighs every client equally; weights generalize the model to
// heterogeneous demand: load and response-time averages become weighted
// means, and the strategy LP scales each client's contribution
// accordingly. Weights must be positive and are normalized internally;
// call after SetClients.
func (e *Eval) SetClientWeights(weights []float64) error {
	if weights == nil {
		e.weights = uniformWeights(len(e.Clients))
		return nil
	}
	if len(weights) != len(e.Clients) {
		return fmt.Errorf("core: %d weights for %d clients", len(weights), len(e.Clients))
	}
	total := 0.0
	for k, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: invalid weight %v for client %d", w, k)
		}
		total += w
	}
	norm := make([]float64, len(weights))
	for k, w := range weights {
		norm[k] = w / total
	}
	e.weights = norm
	return nil
}

// uniformWeights returns n equal shares of 1/n.
func uniformWeights(n int) []float64 { return slices.Repeat([]float64{1 / float64(n)}, n) }

// ClientWeight returns client k's normalized demand share.
func (e *Eval) ClientWeight(k int) float64 { return e.weights[k] }

// Prewarm eagerly populates the evaluator's lazy caches (the memoized
// quorum enumeration, each quorum's hosts and each client's closest
// quorum). Measures and optimizers only read an Eval afterwards, so a
// prewarmed evaluator may be shared by concurrent readers — parallel
// capacity sweeps call this before fanning out.
func (e *Eval) Prewarm() {
	if e.Sys.Enumerable() {
		e.QuorumHosts()
	}
	e.closestQuorum(0)
}

// QuorumHost is one distinct node of a placed quorum f(Q): Node hosts
// Elems of the quorum's elements.
type QuorumHost struct {
	Node, Elems int
}

// Load returns the load one access of the quorum puts on the host under
// mode: one unit per hosted element (multiplicity) or one (dedup).
func (h QuorumHost) Load(mode LoadMode) float64 {
	if mode == LoadDedup {
		return 1
	}
	return float64(h.Elems)
}

// QuorumHosts returns, for every enumerated quorum i, its distinct nodes
// f(Q_i), each listed at its first element in the quorum with the number
// of the quorum's elements it hosts. The lists are built once per
// evaluation and serve both load modes, so sums over them run in one
// order on every build; the evaluator's dedup loads and both access-LP
// builders read them. Read them, do not modify them.
func (e *Eval) QuorumHosts() [][]QuorumHost {
	if e.hosts != nil {
		return e.hosts
	}
	m := e.Sys.NumQuorums()
	total := 0
	for i := 0; i < m; i++ {
		total += len(e.quorumElems(i))
	}
	hosts := make([][]QuorumHost, m)
	flat := make([]QuorumHost, 0, total) // never grows, so hosts[i] stay valid
	for i := range hosts {
		start := len(flat)
	elems:
		for _, u := range e.quorumElems(i) {
			w := e.F.Node(u)
			for t := start; t < len(flat); t++ {
				if flat[t].Node == w {
					flat[t].Elems++
					continue elems
				}
			}
			flat = append(flat, QuorumHost{Node: w, Elems: 1})
		}
		hosts[i] = flat[start:len(flat):len(flat)]
	}
	e.hosts = hosts
	return hosts
}

// quorumElems memoizes enumerated quorums.
func (e *Eval) quorumElems(i int) []int {
	if e.quorums == nil {
		e.quorums = make([][]int, e.Sys.NumQuorums())
	}
	if e.quorums[i] == nil {
		e.quorums[i] = e.Sys.Quorum(i)
	}
	return e.quorums[i]
}

// closestQuorum returns the elements of client k's closest quorum, the
// one minimizing max_u d(Clients[k], f(u)). The choice reads only the
// placement, the client list and the RTTs, so the first call makes it
// for every client and the table lives as long as the evaluation does.
func (e *Eval) closestQuorum(k int) []int {
	if e.closest == nil {
		cost := make([]float64, e.F.UniverseSize())
		e.closest = make([][]int, len(e.Clients))
		for j, v := range e.Clients {
			e.closest[j] = e.Sys.ClosestQuorum(e.elementCosts(cost, v, nil, 0))
		}
	}
	return e.closest[k]
}

// NodeLoads returns load_f(w): the (weighted) average over clients of
// load_{v,f}(w), the quantity multiplied by alpha in (4.1). Each client's
// loads go into one buffer, cleared for the next client; the balanced
// strategy loads every client alike, so it fills the buffer once.
func (e *Eval) NodeLoads(s Strategy) []float64 {
	loads := make([]float64, e.Topo.Size())
	client := make([]float64, e.Topo.Size())
	_, same := s.(BalancedStrategy)
	for k := range e.Clients {
		if k == 0 || !same {
			clear(client)
			s.ClientNodeLoads(e, k, client)
		}
		wk := e.weights[k]
		for w, l := range client {
			loads[w] += wk * l
		}
	}
	return loads
}

// MaxNodeLoad returns the largest per-node load under the strategy.
func (e *Eval) MaxNodeLoad(s Strategy) float64 {
	maxL := 0.0
	for _, l := range e.NodeLoads(s) {
		if l > maxL {
			maxL = l
		}
	}
	return maxL
}

// AvgResponseTime returns the paper's objective avg_v Δ_f(v) with the
// evaluator's alpha.
func (e *Eval) AvgResponseTime(s Strategy) float64 {
	return e.avgExpectedMax(s, e.Alpha)
}

// AvgNetworkDelay returns the same average with alpha = 0: the pure
// network-delay measure of §6.
func (e *Eval) AvgNetworkDelay(s Strategy) float64 {
	return e.avgExpectedMax(s, 0)
}

// ClientResponseTime returns Δ_f(v) for client k, whose node is
// v = Clients[k].
func (e *Eval) ClientResponseTime(s Strategy, k int) float64 {
	var loads []float64
	if e.Alpha != 0 {
		loads = e.NodeLoads(s)
	}
	return s.ExpectedMax(e, k, e.elementCosts(make([]float64, e.F.UniverseSize()), e.Clients[k], loads, e.Alpha))
}

// avgExpectedMax refills one element-cost buffer for each client, which
// Strategy.ExpectedMax reads and does not keep.
func (e *Eval) avgExpectedMax(s Strategy, alpha float64) float64 {
	var loads []float64
	if alpha != 0 {
		loads = e.NodeLoads(s)
	}
	cost := make([]float64, e.F.UniverseSize())
	sum := 0.0
	for k, v := range e.Clients {
		sum += e.weights[k] * s.ExpectedMax(e, k, e.elementCosts(cost, v, loads, alpha))
	}
	return sum
}

// elementCosts fills out with d(v, f(u)) + alpha·load(f(u)) per element
// and returns it.
func (e *Eval) elementCosts(out []float64, v int, loads []float64, alpha float64) []float64 {
	row := e.Topo.RTTRow(v)
	for u := range out {
		w := e.F.Node(u)
		c := row[w]
		if alpha != 0 {
			c += alpha * loads[w]
		}
		out[u] = c
	}
	return out
}
