package combining

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Forest runs one combining tree per disjoint agreement component over a
// shared physical plane. All trees use the same parent/child wiring (one
// TCP mesh, one topology), but each ships only its own component's
// principals and counts epochs independently, so a slow or partitioned
// component never stalls another component's window gating.
//
// The driver-facing surface mirrors Node — SetLocal/Tick/OnMessage plus
// epoch, config, and rejoin accessors — with per-component globals read
// through ComponentGlobal. A single-component forest behaves exactly like
// one flat tree.
type Forest struct {
	n       int
	trees   []*Node
	members [][]int // tree → ascending principal indices

	mu      sync.Mutex
	gather  [][]float64 // per-tree local-vector scratch
	cfgSeen uint64      // newest config version handed to the handler
}

// ForestConfig assembles a forest. All trees share the node placement and
// clock; Send returns the per-tree transport hook (frames are tagged with
// the tree index on the wire).
type ForestConfig struct {
	// ID, Parent, Children place this node in the shared plane (Parent
	// −1 at the root).
	ID       NodeID
	Parent   NodeID
	Children []NodeID
	// NumPrincipals is the fleet-wide principal-vector length.
	NumPrincipals int
	// Components lists each tree's principal indices. Empty means a
	// single tree over all principals.
	Components [][]int
	// Send returns the outbound hook for one tree's messages.
	Send func(tree int) SendFunc
	// Now is the shared time base (nil for wall clock).
	Now func() time.Duration
	// Hop, when set, instruments hop timing on every tree.
	Hop *HopMetrics
}

// NewForest validates the component partition and builds the trees.
func NewForest(cfg ForestConfig) (*Forest, error) {
	if cfg.NumPrincipals < 1 {
		return nil, fmt.Errorf("combining: forest needs at least one principal")
	}
	comps := cfg.Components
	if len(comps) == 0 {
		all := make([]int, cfg.NumPrincipals)
		for i := range all {
			all[i] = i
		}
		comps = [][]int{all}
	}
	seen := make(map[int]bool, cfg.NumPrincipals)
	f := &Forest{n: cfg.NumPrincipals}
	for ti, comp := range comps {
		if len(comp) == 0 {
			return nil, fmt.Errorf("combining: forest component %d is empty", ti)
		}
		ms := append([]int(nil), comp...)
		sort.Ints(ms)
		for _, p := range ms {
			if p < 0 || p >= cfg.NumPrincipals {
				return nil, fmt.Errorf("combining: forest component %d: principal %d out of range", ti, p)
			}
			if seen[p] {
				return nil, fmt.Errorf("combining: principal %d in two forest components", p)
			}
			seen[p] = true
		}
		send := SendFunc(nil)
		if cfg.Send != nil {
			send = cfg.Send(ti)
		}
		node := NewBuilder(cfg.ID).
			Parent(cfg.Parent).
			Children(cfg.Children...).
			Principals(len(ms)).
			Transport(send).
			Clock(cfg.Now).
			Metrics(cfg.Hop).
			Build()
		f.trees = append(f.trees, node)
		f.members = append(f.members, ms)
		f.gather = append(f.gather, make([]float64, len(ms)))
	}
	return f, nil
}

// Trees returns the number of component trees.
func (f *Forest) Trees() int { return len(f.trees) }

// Tree returns one component's node (tests and metrics).
func (f *Forest) Tree(t int) *Node { return f.trees[t] }

// Component returns tree t's ascending principal indices. The slice is
// shared; callers must not mutate it.
func (f *Forest) Component(t int) []int { return f.members[t] }

// ID returns the shared node id.
func (f *Forest) ID() NodeID { return f.trees[0].ID() }

// IsRoot reports whether this node roots the plane (identical for every
// tree).
func (f *Forest) IsRoot() bool { return f.trees[0].IsRoot() }

// SetLocal installs this node's fleet-length local vector, scattered into
// each component tree.
func (f *Forest) SetLocal(values []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for t, ms := range f.members {
		buf := f.gather[t]
		for k, p := range ms {
			if p < len(values) {
				buf[k] = values[p]
			} else {
				buf[k] = 0
			}
		}
		f.trees[t].SetLocal(buf)
	}
}

// Tick advances every component tree one epoch.
func (f *Forest) Tick() {
	for _, t := range f.trees {
		t.Tick()
	}
}

// OnMessage dispatches a wire message to its component tree. Out-of-range
// tree indices (peers running a different component layout) are dropped.
func (f *Forest) OnMessage(tree int, from NodeID, msg interface{}) {
	if tree < 0 || tree >= len(f.trees) {
		return
	}
	f.trees[tree].OnMessage(from, msg)
}

// ComponentGlobal returns tree t's settled global aggregate (component-
// local vector length) with its timestamp; ok is false before the first
// global arrives. Like Node.Global, the aggregate aliases the tree's buffer.
func (f *Forest) ComponentGlobal(t int) (Aggregate, time.Duration, bool) {
	return f.trees[t].Global()
}

// Epoch returns the slowest component's local epoch: gating on the
// minimum keeps every rollout decision behind the least-advanced tree.
func (f *Forest) Epoch() int {
	min := f.trees[0].Epoch()
	for _, t := range f.trees[1:] {
		if e := t.Epoch(); e < min {
			min = e
		}
	}
	return min
}

// GlobalEpoch returns the slowest component's settled global epoch.
func (f *Forest) GlobalEpoch() int {
	min := f.trees[0].GlobalEpoch()
	for _, t := range f.trees[1:] {
		if e := t.GlobalEpoch(); e < min {
			min = e
		}
	}
	return min
}

// Config returns the newest config update any tree has seen.
func (f *Forest) Config() *ConfigUpdate {
	var newest *ConfigUpdate
	for _, t := range f.trees {
		if cu := t.Config(); cu != nil && (newest == nil || cu.Version > newest.Version) {
			newest = cu
		}
	}
	return newest
}

// SetConfig stages a config update on every tree: snapshots ride each
// component's broadcasts, so a component partitioned at its own level
// still converges when its tree heals.
func (f *Forest) SetConfig(cu *ConfigUpdate) {
	for _, t := range f.trees {
		t.SetConfig(cu)
	}
}

// SetConfigHandler installs the delivery callback. The forest dedupes by
// version — the update rides every component tree, but the handler fires
// once per distinct version (whichever tree delivers it first).
func (f *Forest) SetConfigHandler(fn func(*ConfigUpdate)) {
	for _, t := range f.trees {
		t.SetConfigHandler(func(cu *ConfigUpdate) {
			f.mu.Lock()
			if cu.Version <= f.cfgSeen {
				f.mu.Unlock()
				return
			}
			f.cfgSeen = cu.Version
			f.mu.Unlock()
			fn(cu)
		})
	}
}

// ChildConfigAcks returns each child's lowest acked config version over
// every tree (the rollout lead's convergence signal).
func (f *Forest) ChildConfigAcks() map[NodeID]uint64 {
	out := make(map[NodeID]uint64)
	for ti, t := range f.trees {
		for c, v := range t.ChildConfigAcks() {
			if prev, ok := out[c]; ti == 0 || !ok || v < prev {
				out[c] = v
			}
		}
	}
	return out
}

// Reset restores epoch and config state on every tree after a crash
// restart (the rejoin handshake completes the resync per tree).
func (f *Forest) Reset(epoch int, cu *ConfigUpdate) {
	f.mu.Lock()
	if cu != nil && cu.Version > f.cfgSeen {
		// The restored snapshot is already staged by recovery; the handler
		// must not re-fire for it when a peer broadcasts the same version.
		f.cfgSeen = cu.Version
	}
	f.mu.Unlock()
	for _, t := range f.trees {
		t.Reset(epoch, cu)
	}
}

// AnnounceRejoin runs the rejoin handshake on every tree.
func (f *Forest) AnnounceRejoin() {
	for _, t := range f.trees {
		t.AnnounceRejoin()
	}
}

// Reconfigure rewires every tree to a new placement (failure re-parenting
// or a restored peer).
func (f *Forest) Reconfigure(parent NodeID, children []NodeID) {
	for _, t := range f.trees {
		t.Reconfigure(parent, children)
	}
}

// LastHeard returns the most recent traffic time from a neighbor across
// all trees (a peer is alive if any component heard from it).
func (f *Forest) LastHeard(nb NodeID) (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, t := range f.trees {
		if at, heard := t.LastHeard(nb); heard && (!ok || at > best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// MessageCounts sums message counters over every tree.
func (f *Forest) MessageCounts() (reportsIn, broadcastsIn, sent uint64) {
	for _, t := range f.trees {
		r, b, s := t.MessageCounts()
		reportsIn += r
		broadcastsIn += b
		sent += s
	}
	return
}
