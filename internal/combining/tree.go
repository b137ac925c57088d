package combining

import "sort"

// Topology maps every node to its parent (−1 for the root) and children.
type Topology struct {
	Root     NodeID
	Parent   map[NodeID]NodeID
	Children map[NodeID][]NodeID
}

// BuildTree lays the given nodes out as a complete tree with the given
// fan-out (heap ordering over the sorted id list): ids[0] is the root,
// ids[i]'s parent is ids[(i−1)/fanout]. A fan-out below 2 is treated as 2.
func BuildTree(ids []NodeID, fanout int) Topology {
	if fanout < 2 {
		fanout = 2
	}
	sorted := append([]NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t := Topology{
		Parent:   make(map[NodeID]NodeID, len(sorted)),
		Children: make(map[NodeID][]NodeID, len(sorted)),
	}
	if len(sorted) == 0 {
		t.Root = -1
		return t
	}
	t.Root = sorted[0]
	t.Parent[t.Root] = -1
	for i := 1; i < len(sorted); i++ {
		p := sorted[(i-1)/fanout]
		t.Parent[sorted[i]] = p
		t.Children[p] = append(t.Children[p], sorted[i])
	}
	return t
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t Topology) Depth() int {
	depth := func(id NodeID) int {
		d := 0
		for t.Parent[id] >= 0 {
			id = t.Parent[id]
			d++
		}
		return d
	}
	max := 0
	for id := range t.Parent {
		if d := depth(id); d > max {
			max = d
		}
	}
	return max
}

// PairwiseExchanger is the O(n²) baseline the paper compares the combining
// tree against: every node unicasts its local vector to every other node
// each epoch and sums whatever it has heard.
type PairwiseExchanger struct {
	id      NodeID
	peers   []NodeID
	numPrin int
	send    SendFunc
	local   []float64
	latest  map[NodeID][]float64
	out     Report // lent to send, like Node's
}

// NewPairwiseExchanger constructs the baseline node.
func NewPairwiseExchanger(id NodeID, peers []NodeID, numPrincipals int, send SendFunc) *PairwiseExchanger {
	return &PairwiseExchanger{
		id:      id,
		peers:   append([]NodeID(nil), peers...),
		numPrin: numPrincipals,
		send:    send,
		local:   make([]float64, numPrincipals),
		latest:  make(map[NodeID][]float64),
	}
}

// SetLocal records the node's local vector.
func (p *PairwiseExchanger) SetLocal(values []float64) { copy(p.local, values) }

// Tick unicasts the local vector to every peer.
func (p *PairwiseExchanger) Tick() {
	p.out = Report{Agg: FromLocal(p.local)}
	for _, peer := range p.peers {
		if peer == p.id {
			continue
		}
		p.send(peer, &p.out)
	}
}

// OnMessage stores a peer's latest vector.
func (p *PairwiseExchanger) OnMessage(from NodeID, msg interface{}) {
	if r, ok := msg.(Report); ok {
		p.latest[from] = append([]float64(nil), r.Agg.Sum...)
	}
}

// Global sums the local vector with the latest values heard from peers.
func (p *PairwiseExchanger) Global() Aggregate {
	agg := FromLocal(p.local)
	for _, v := range p.latest {
		agg.Combine(FromLocal(v))
	}
	return agg
}
