package treenet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/combining"
	"repro/internal/topology"
)

// TreeNode is the slice of combining.Node a failure detector needs:
// observing neighbor silence and rewiring the placement.
type TreeNode interface {
	LastHeard(nb combining.NodeID) (time.Duration, bool)
	Reconfigure(parent combining.NodeID, children []combining.NodeID)
}

// Detector is a tree failure detector; PlaneReparenter is the
// implementation. Callers must never store a typed-nil concrete detector in
// a Detector variable — use an untyped nil instead.
type Detector interface {
	// Check inspects self's neighbors at time now and repairs the local
	// topology around a silent one; it reports whether a repair happened.
	Check(node TreeNode, now time.Duration) bool
	// Reparents counts repairs.
	Reparents() int
}

// Wiring is a resolved Spec: the node's concrete placement plus the
// failure detector matching the layout. Plane is nil on a flat layout;
// Detector is nil when failure detection is disabled.
type Wiring struct {
	Parent   combining.NodeID
	Children []combining.NodeID
	Detector Detector
	// Plane returns the current (possibly repaired) compiled plane.
	Plane func() *topology.Plane
}

// Resolve turns the spec into concrete tree wiring. With a Topology the
// placement comes from the compiled plane (superseding the flat
// Parent/Children fields), and the detector tracks the same plane, so
// repairs and placement never diverge. A flat spec keeps its explicit
// Parent/Children and has no failure detection: a flat tree that needs it
// is written as a one-region Topology, whose layout is combining.BuildTree's.
func (s *Spec) Resolve() (Wiring, error) {
	if s.Topology == nil {
		if s.FailureTimeout > 0 {
			return Wiring{}, fmt.Errorf("treenet: failure detection needs a topology (a flat tree is a one-region topology)")
		}
		return Wiring{Parent: s.Parent, Children: s.Children}, nil
	}
	plane, err := topology.Compile(*s.Topology)
	if err != nil {
		return Wiring{}, err
	}
	pl, ok := plane.Placement(s.NodeID)
	if !ok {
		return Wiring{}, fmt.Errorf("treenet: node %d not in topology", s.NodeID)
	}
	w := Wiring{Parent: pl.Parent, Children: pl.Children, Plane: func() *topology.Plane { return plane }}
	if s.FailureTimeout > 0 {
		rep := &PlaneReparenter{self: s.NodeID, timeout: s.FailureTimeout, plane: plane}
		w.Detector = rep
		w.Plane = rep.Plane
	}
	return w, nil
}

// PlaneReparenter is the failure detector that lets a real-TCP combining
// tree survive dead peers. Every node runs one over the same compiled
// topology.Plane; on detecting a silent neighbor it repairs the plane
// without it (topology.Plane.Remove) and rewires its own combining node. No
// coordination protocol is needed: the repair is a pure function of (spec,
// removal sequence) that moves only the failed node's parent and children,
// so every survivor that observes the failure computes the same placements,
// and every survivor that cannot observe it already holds its own — in
// particular, when a regional sub-root dies its region's survivors
// re-parent through the promoted member into the global tier, never
// sideways to a sibling leaf.
//
// Detection is local: a node only prunes neighbors it can observe (parent
// and children) via combining.Node.LastHeard. A node that missed an earlier
// failure (it was not that node's neighbor) can misplace itself when a later
// failure makes it an orphan, until it observes the earlier node's silence
// too; the paper's single-failure story (§3.2) is what this guarantees, and
// conservative MC/R claiming covers the gap.
type PlaneReparenter struct {
	mu         sync.Mutex
	self       combining.NodeID
	timeout    time.Duration
	plane      *topology.Plane
	graceUntil time.Duration
	started    bool
	reparents  int
}

// NewPlaneReparenter builds a detector for node self over the plane
// compiled from spec. timeout is how long a tree neighbor may stay silent
// before it is declared dead (0 disables detection); detection is
// suppressed for one timeout after start and after every repair, giving new
// neighbors a chance to be heard from.
func NewPlaneReparenter(self combining.NodeID, spec topology.Spec, timeout time.Duration) (*PlaneReparenter, error) {
	plane, err := topology.Compile(spec)
	if err != nil {
		return nil, err
	}
	return &PlaneReparenter{self: self, timeout: timeout, plane: plane}, nil
}

// Plane returns the current (possibly repaired) compiled plane.
func (r *PlaneReparenter) Plane() *topology.Plane {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.plane
}

// Parent returns self's current parent (-1 at the global root).
func (r *PlaneReparenter) Parent() combining.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if pl, ok := r.plane.Placement(r.self); ok {
		return pl.Parent
	}
	return -1
}

// Reparents reports how many times this node rewired itself.
func (r *PlaneReparenter) Reparents() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reparents
}

// Removed returns the node ids this detector has pruned, ascending.
func (r *PlaneReparenter) Removed() []combining.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.plane.Removed()
}

// Check inspects self's plane neighbors at time now (on the same clock the
// combining node's `now` callback uses) and, if one has been silent past
// the failure timeout, repairs the plane without it and reconfigures
// node to the repaired placement. It reports whether a repair happened.
// Callers already serialize node access (the window loop); Check must run
// under that same lock.
func (r *PlaneReparenter) Check(node TreeNode, now time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timeout <= 0 {
		return false
	}
	if !r.started {
		r.started = true
		r.graceUntil = now + r.timeout
	}
	if now < r.graceUntil {
		return false
	}
	pl, ok := r.plane.Placement(r.self)
	if !ok {
		return false
	}
	neighbors := make([]combining.NodeID, 0, 1+len(pl.Children))
	if pl.Parent >= 0 {
		neighbors = append(neighbors, pl.Parent)
	}
	neighbors = append(neighbors, pl.Children...)

	var failed combining.NodeID = -1
	for _, nb := range neighbors {
		at, heard := node.LastHeard(nb)
		// A neighbor never heard from is measured from the end of the last
		// grace window; one heard from is measured from its last message.
		silentSince := r.graceUntil - r.timeout
		if heard && at > silentSince {
			silentSince = at
		}
		if now-silentSince > r.timeout {
			failed = nb
			break
		}
	}
	if failed < 0 {
		return false
	}
	r.plane = r.plane.Remove(failed)
	r.graceUntil = now + r.timeout
	r.reparents++
	if repaired, ok := r.plane.Placement(r.self); ok {
		node.Reconfigure(repaired.Parent, repaired.Children)
	}
	return true
}
