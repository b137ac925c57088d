package node

import "repro/internal/obs"

// topologyInfo snapshots the combining plane for GET /v1/topology. With a
// compiled plane (a topology spec, or a flat tree with failure detection)
// it reports every member's current placement from the (possibly repaired)
// plane; on a flat layout without one it reports this node's own
// neighborhood — the authoritative local view either way.
func (n *Node) topologyInfo() *obs.TopologyInfo {
	m := n.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tree == nil {
		return nil
	}
	self := m.tree.ID()
	info := &obs.TopologyInfo{Self: int(self)}
	if n.wiring.Plane != nil {
		plane := n.wiring.Plane()
		info.Root = int(plane.Root())
		info.Levels = plane.Levels()
		for _, id := range plane.Members() {
			node := obs.TopologyNode{ID: int(id), Parent: -1, Alive: plane.Alive(id)}
			if pl, ok := plane.Placement(id); ok {
				node.Region, node.Parent = pl.Region, int(pl.Parent)
				node.Level, node.SubRoot = pl.Level, pl.SubRoot
			}
			info.Nodes = append(info.Nodes, node)
		}
	} else {
		parent := n.cfg.Tree.Parent
		add := func(id, parent, level int) {
			info.Nodes = append(info.Nodes, obs.TopologyNode{
				ID: id, Region: "flat", Parent: parent, Level: level, Alive: true,
			})
		}
		info.Levels, info.Root = 2, int(self)
		level := 0
		if parent >= 0 {
			info.Root, level = int(parent), 1
			add(int(parent), -1, 0)
		}
		add(int(self), int(parent), level)
		for _, c := range n.cfg.Tree.Children {
			add(int(c), int(self), level+1)
		}
	}
	info.Epoch, info.GlobalEpoch = m.tree.Epoch(), m.tree.GlobalEpoch()
	st := n.transport.Stats()
	info.DeltaBytesSaved = st.Delta.BytesSaved
	info.DeltaEntriesSuppressed = st.Delta.EntriesSuppressed
	info.DeltaEnabled = n.cfg.Tree.Topology != nil && n.cfg.Tree.Topology.Delta.Enabled()
	return info
}
