// Package topology models the multi-level aggregation plane as a
// first-class, validated data structure: leaf redirectors grouped into
// named regions, each region rooted at a sub-root, and the sub-roots
// joined by a global tier rooted at the global root.
//
// A Spec is the declarative description (what operators write in config):
// named regions with member lists, a shared fanout, the principal-sharding
// policy, and the delta-compression tuning for upstream queue vectors.
// Compile turns a Spec into a Plane — the concrete parent/child wiring —
// deterministically, so every node that holds the same Spec (and has removed
// the same peers in the same order) computes the same tree without
// coordination.
//
// The Plane stays a single rooted tree (regional sub-trees hang off the
// global tier), so the per-epoch combining protocol of internal/combining
// runs unchanged across levels: regional sub-trees settle locally each
// window and sub-roots roll the aggregate up into the global tier.
//
// Failure handling is local, hierarchy-aware and purely functional: Remove
// returns a new Plane in which only the failed node's parent and children
// moved. Orphans re-parent to the failed node's parent; at a regional
// sub-root the lowest orphan of its own region is promoted and takes over
// the sub-root's global-tier edges — survivors never re-parent to a leaf of
// a foreign region. A flat tree is the one-region plane (FromFlat).
package topology

import (
	"fmt"
	"sort"

	"repro/internal/combining"
)

// Sharding policies for principal components.
const (
	// ShardNone runs one combining tree over all principals (the flat
	// pre-hierarchy behavior).
	ShardNone = "none"
	// ShardComponent gives each disjoint agreement component its own
	// combining tree with an independent epoch counter.
	ShardComponent = "component"
)

// Defaults applied by Spec.Normalize.
const (
	// DefaultFanout bounds children per interior node when the spec leaves
	// fanout unset.
	DefaultFanout = 2
	// DefaultResyncEvery is the full-frame period when delta compression is
	// on but the spec leaves the resync cadence unset.
	DefaultResyncEvery = 16
)

// DeltaSpec tunes delta compression of upstream queue vectors. The zero
// value disables compression (every frame carries the full vector).
type DeltaSpec struct {
	// Threshold suppresses a principal's entry when none of its aggregate
	// statistics moved by more than this amount since the last transmitted
	// value (transitions to exactly zero are always sent). Zero or negative
	// disables compression.
	Threshold float64
	// ResyncEvery forces a full-state frame every N frames so suppressed
	// drift is bounded; 0 means DefaultResyncEvery.
	ResyncEvery int
}

// Enabled reports whether delta compression is armed.
func (d DeltaSpec) Enabled() bool { return d.Threshold > 0 }

// Region is one named group of co-located redirectors.
type Region struct {
	// Name identifies the region in configs and /v1/topology.
	Name string
	// Members are the redirector node ids in the region.
	Members []int
}

// Spec is the declarative description of a multi-level plane.
type Spec struct {
	// Regions partition the fleet; each compiles to one sub-tree.
	Regions []Region
	// Fanout bounds children per interior node (both within regions and in
	// the global tier); values below 2 mean DefaultFanout.
	Fanout int
	// Sharding selects the principal-sharding policy: ShardNone (default)
	// or ShardComponent.
	Sharding string
	// Delta tunes upstream queue-vector compression.
	Delta DeltaSpec
}

// Normalize returns the spec with defaults applied (fanout, sharding name,
// resync cadence).
func (s Spec) Normalize() Spec {
	if s.Fanout < 2 {
		s.Fanout = DefaultFanout
	}
	if s.Sharding == "" {
		s.Sharding = ShardNone
	}
	if s.Delta.Enabled() && s.Delta.ResyncEvery <= 0 {
		s.Delta.ResyncEvery = DefaultResyncEvery
	}
	return s
}

// Validate checks the spec for structural errors: no regions, empty or
// duplicate region names, duplicate or negative members, or an unknown
// sharding policy.
func (s Spec) Validate() error {
	if len(s.Regions) == 0 {
		return fmt.Errorf("topology: no regions")
	}
	names := make(map[string]bool, len(s.Regions))
	seen := make(map[int]string)
	for _, r := range s.Regions {
		if r.Name == "" {
			return fmt.Errorf("topology: region with empty name")
		}
		if names[r.Name] {
			return fmt.Errorf("topology: duplicate region %q", r.Name)
		}
		names[r.Name] = true
		if len(r.Members) == 0 {
			return fmt.Errorf("topology: region %q has no members", r.Name)
		}
		for _, m := range r.Members {
			if m < 0 {
				return fmt.Errorf("topology: region %q: negative member id %d", r.Name, m)
			}
			if prev, dup := seen[m]; dup {
				return fmt.Errorf("topology: member %d in both %q and %q", m, prev, r.Name)
			}
			seen[m] = r.Name
		}
	}
	switch s.Sharding {
	case "", ShardNone, ShardComponent:
	default:
		return fmt.Errorf("topology: unknown sharding policy %q", s.Sharding)
	}
	if s.Delta.Threshold < 0 {
		return fmt.Errorf("topology: negative delta threshold %g", s.Delta.Threshold)
	}
	if s.Delta.ResyncEvery < 0 {
		return fmt.Errorf("topology: negative delta resync cadence %d", s.Delta.ResyncEvery)
	}
	return nil
}

// Placement is one node's position in a compiled plane.
type Placement struct {
	// ID is the node's id.
	ID combining.NodeID
	// Region names the region the node belongs to.
	Region string
	// Parent is the node's parent (-1 at the global root).
	Parent combining.NodeID
	// Children are the node's children: regional children plus, for a
	// sub-root, the sub-roots below it in the global tier.
	Children []combining.NodeID
	// Level is the hop distance to the global root.
	Level int
	// SubRoot marks the node rooting its region's sub-tree (the global
	// root is also its own region's sub-root).
	SubRoot bool
}

// Plane is a compiled plane: the concrete rooted tree for a Spec minus a
// sequence of removed (failed) nodes. Planes are immutable; Remove and
// Restore return new copies.
type Plane struct {
	spec     Spec
	removals []combining.NodeID // removed ids, in the order they failed
	root     combining.NodeID
	nodes    map[combining.NodeID]*Placement
	order    []combining.NodeID // sorted live ids
	levels   int
}

// Compile validates and compiles a spec into its plane.
func Compile(spec Spec) (*Plane, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return compile(spec, nil), nil
}

// FromFlat wraps a flat member list as a single-region spec and compiles
// it — the legacy flat-tree layout expressed in the new model. The result
// is wiring-identical to combining.BuildTree(members, fanout).
func FromFlat(members []combining.NodeID, fanout int) (*Plane, error) {
	ms := make([]int, len(members))
	for i, m := range members {
		ms[i] = int(m)
	}
	return Compile(Spec{
		Regions: []Region{{Name: "flat", Members: ms}},
		Fanout:  fanout,
	})
}

// compile lays a validated spec out over every member — a BuildTree
// sub-tree per region under a BuildTree global tier of the regions' roots —
// and then drops removals in order. Every removal must name a member still
// live at its turn, and at least one member must survive them all.
func compile(spec Spec, removals []combining.NodeID) *Plane {
	p := &Plane{
		spec:     spec,
		removals: removals,
		nodes:    make(map[combining.NodeID]*Placement),
	}

	var subRoots []combining.NodeID
	for _, r := range spec.Regions {
		ids := make([]combining.NodeID, len(r.Members))
		for i, m := range r.Members {
			ids[i] = combining.NodeID(m)
		}
		topo := combining.BuildTree(ids, spec.Fanout)
		subRoots = append(subRoots, topo.Root)
		for _, id := range ids {
			p.nodes[id] = &Placement{
				ID:       id,
				Region:   r.Name,
				Parent:   parentOf(topo, id),
				Children: append([]combining.NodeID(nil), topo.Children[id]...),
				SubRoot:  id == topo.Root,
			}
		}
	}

	// Global tier over the sub-roots; the global root dual-hats as its own
	// region's sub-root.
	tier := combining.BuildTree(subRoots, spec.Fanout)
	p.root = tier.Root
	for _, sr := range subRoots {
		n := p.nodes[sr]
		n.Parent = parentOf(tier, sr)
		n.Children = append(n.Children, tier.Children[sr]...)
	}

	for _, id := range removals {
		p.drop(id)
	}

	// Levels by walk from the root (the tree is connected by construction).
	p.levels = assignLevels(p.nodes, p.root)
	for id := range p.nodes {
		p.order = append(p.order, id)
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	return p
}

// drop removes the live node f by the local repair rule, under which only
// f's parent and children move. f's children re-parent to f's parent,
// unless f roots a sub-tree: at a regional sub-root the lowest orphan of
// f's own region is promoted into f's place — its sub-root and its
// global-tier edges — and adopts the other orphans; at the global root of a
// region with no other live member the lowest global-tier orphan is. On a
// one-region plane this is the flat rule: orphans to the grandparent, the
// lowest orphan promoted at the root.
func (p *Plane) drop(f combining.NodeID) {
	n := p.nodes[f]
	delete(p.nodes, f)
	var regional, tier []combining.NodeID
	for _, c := range n.Children {
		if p.nodes[c].Region == n.Region {
			regional = append(regional, c)
		} else {
			tier = append(tier, c)
		}
	}
	sortIDs(regional)
	sortIDs(tier)
	orphans := append(regional, tier...)

	if n.Parent < 0 || (n.SubRoot && len(regional) > 0) {
		heir := p.nodes[orphans[0]]
		heir.Parent, heir.SubRoot = n.Parent, true
		heir.Children = append(heir.Children, orphans[1:]...)
		for _, o := range orphans[1:] {
			p.nodes[o].Parent = heir.ID
		}
		p.sortChildren(heir)
		orphans = orphans[:1]
	} else {
		for _, o := range orphans {
			p.nodes[o].Parent = n.Parent
		}
	}
	if n.Parent < 0 {
		p.root = orphans[0]
		return
	}
	par := p.nodes[n.Parent]
	var kids []combining.NodeID // nil when none are left, as compiled
	for _, c := range par.Children {
		if c != f {
			kids = append(kids, c)
		}
	}
	par.Children = append(kids, orphans...)
	p.sortChildren(par)
}

// sortChildren restores the compiled child order: the node's own region's
// children first, then its global-tier children, each ascending.
func (p *Plane) sortChildren(n *Placement) {
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := p.nodes[n.Children[i]], p.nodes[n.Children[j]]
		if aTier, bTier := a.Region != n.Region, b.Region != n.Region; aTier != bTier {
			return bTier
		}
		return a.ID < b.ID
	})
}

func sortIDs(ids []combining.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// parentOf reads a node's parent from a flat topology (-1 at its root).
func parentOf(t combining.Topology, id combining.NodeID) combining.NodeID {
	if id == t.Root {
		return -1
	}
	return t.Parent[id]
}

// assignLevels stamps hop distances from the root and returns the level
// count (depth + 1).
func assignLevels(nodes map[combining.NodeID]*Placement, root combining.NodeID) int {
	max := 0
	queue := []combining.NodeID{root}
	nodes[root].Level = 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := nodes[id]
		if n.Level > max {
			max = n.Level
		}
		for _, c := range n.Children {
			nodes[c].Level = n.Level + 1
			queue = append(queue, c)
		}
	}
	return max + 1
}

// Spec returns the declarative spec the plane was compiled from
// (normalized).
func (p *Plane) Spec() Spec { return p.spec }

// Root returns the global root.
func (p *Plane) Root() combining.NodeID { return p.root }

// Levels returns the number of levels (a one-node plane has 1).
func (p *Plane) Levels() int { return p.levels }

// Members returns the live node ids in ascending order. The slice is
// shared; callers must not mutate it.
func (p *Plane) Members() []combining.NodeID { return p.order }

// Placement returns a node's position, or false for removed or unknown
// nodes.
func (p *Plane) Placement(id combining.NodeID) (Placement, bool) {
	n, ok := p.nodes[id]
	if !ok {
		return Placement{}, false
	}
	return *n, true
}

// Alive reports whether a node is present and not removed.
func (p *Plane) Alive(id combining.NodeID) bool {
	_, ok := p.nodes[id]
	return ok
}

// Removed returns the removed node ids in ascending order.
func (p *Plane) Removed() []combining.NodeID {
	ids := append([]combining.NodeID(nil), p.removals...)
	sortIDs(ids)
	return ids
}

// Remove returns the plane without the failed node, repaired locally: only
// the failed node's parent and children move (see drop), so a survivor that
// is not its neighbor — and so cannot observe the failure — already holds
// its repaired placement. A failed sub-root is replaced from within its own
// region and the replacement takes over its global-tier edges; orphans
// never cross into a sibling region. Removing the last live node returns
// the plane unchanged (a plane always has a root).
func (p *Plane) Remove(failed combining.NodeID) *Plane {
	if !p.Alive(failed) || len(p.nodes) == 1 {
		return p
	}
	return compile(p.spec, append(p.removals[:len(p.removals):len(p.removals)], failed))
}

// Restore returns the plane with a previously removed node back in place
// (used when a crashed redirector rejoins): the spec's full layout with the
// other removals repaired in their original order.
func (p *Plane) Restore(id combining.NodeID) *Plane {
	kept := make([]combining.NodeID, 0, len(p.removals))
	for _, r := range p.removals {
		if r != id {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(p.removals) {
		return p
	}
	return compile(p.spec, kept)
}

// Topology flattens the plane into the combining-package topology shape
// (root plus parent/child maps) for code that predates regions.
func (p *Plane) Topology() combining.Topology {
	t := combining.Topology{
		Root:     p.root,
		Parent:   make(map[combining.NodeID]combining.NodeID, len(p.nodes)),
		Children: make(map[combining.NodeID][]combining.NodeID, len(p.nodes)),
	}
	for id, n := range p.nodes {
		t.Parent[id] = n.Parent // -1 at the root, matching BuildTree
		t.Children[id] = append([]combining.NodeID(nil), n.Children...)
	}
	return t
}

// String renders the plane for logs and tests: region names with members,
// sub-roots starred, the global root double-starred.
func (p *Plane) String() string {
	out := ""
	for _, r := range p.spec.Regions {
		line := ""
		for _, m := range r.Members {
			id := combining.NodeID(m)
			n, ok := p.nodes[id]
			if !ok {
				continue
			}
			if line != "" {
				line += " "
			}
			switch {
			case id == p.root:
				line += fmt.Sprintf("%d**", m)
			case n.SubRoot:
				line += fmt.Sprintf("%d*", m)
			default:
				line += fmt.Sprintf("%d", m)
			}
		}
		if line == "" {
			line = "-"
		}
		out += fmt.Sprintf("%s[%s] ", r.Name, line)
	}
	return fmt.Sprintf("%slevels=%d", out, p.levels)
}
