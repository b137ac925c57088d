package treenet

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/combining"
	"repro/internal/topology"
)

// place is one node's position in an expected tree.
type place struct {
	parent   combining.NodeID
	children []combining.NodeID
}

// silentPeer is a TreeNode on which every neighbor but dead has just been
// heard from.
type silentPeer struct {
	dead combining.NodeID
	now  time.Duration
}

func (n *silentPeer) LastHeard(nb combining.NodeID) (time.Duration, bool) {
	if nb == n.dead {
		return 0, false
	}
	return n.now, true
}

func (n *silentPeer) Reconfigure(combining.NodeID, []combining.NodeID) {}

// treeOf reads the placement of every live member of plane.
func treeOf(plane *topology.Plane) map[combining.NodeID]place {
	out := make(map[combining.NodeID]place)
	for _, id := range plane.Members() {
		pl, _ := plane.Placement(id)
		out[id] = place{pl.Parent, pl.Children}
	}
	return out
}

// flatTopology is the one-region topology of a flat tree over ids.
func flatTopology(ids []combining.NodeID, fanout int) *topology.Spec {
	members := make([]int, len(ids))
	for i, id := range ids {
		members[i] = int(id)
	}
	return &topology.Spec{Regions: []topology.Region{{Name: "flat", Members: members}}, Fanout: fanout}
}

// TestResolveFlatSpec pins the flat tree with failure detection as the
// one-region plane, for 1–9 members and fan-out 2–3:
//   - the resolved initial placement is combining.BuildTree's;
//   - after any single failure, the survivors that observe it (the failed
//     node's parent and children) repair, the others do not, and every
//     survivor's own placement is the one in the repaired plane — so no
//     survivor that cannot see the failure is moved;
//   - in trees of up to three members — every flat tree the simulator and the
//     experiments repair — each repair gives the tree the flat re-parenting
//     rule (orphans to the grandparent, the lowest orphan promoted at the
//     root) produced, and each restart restores the original tree. That
//     equality is what keeps every replay byte-identical across the switch.
func TestResolveFlatSpec(t *testing.T) {
	const timeout = time.Second
	for n := 1; n <= 9; n++ {
		for fanout := 2; fanout <= 3; fanout++ {
			ids := make([]combining.NodeID, n)
			for i := range ids {
				ids[i] = combining.NodeID(i)
			}
			topo := flatTopology(ids, fanout)
			want := combining.BuildTree(ids, fanout)
			for _, id := range ids {
				w := mustResolve(t, &Spec{NodeID: id, Topology: topo, FailureTimeout: timeout})
				if w.Parent != want.Parent[id] || !reflect.DeepEqual(w.Children, want.Children[id]) {
					t.Fatalf("n=%d fanout=%d node %d: placed %d/%v, BuildTree %d/%v",
						n, fanout, id, w.Parent, w.Children, want.Parent[id], want.Children[id])
				}
				if w.Detector == nil || w.Plane == nil {
					t.Fatalf("n=%d node %d: no detector or plane", n, id)
				}
			}
			if n == 1 {
				continue
			}
			original := mustResolve(t, &Spec{NodeID: 0, Topology: topo, FailureTimeout: timeout}).Plane()
			before := treeOf(original)
			for _, failed := range ids {
				after := treeOf(original.Remove(failed))
				for _, id := range ids {
					if id == failed {
						continue
					}
					observes := before[failed].parent == id || before[id].parent == failed
					if !observes && !reflect.DeepEqual(after[id], before[id]) {
						t.Fatalf("n=%d fanout=%d fail %d: non-neighbor %d moved from %v to %v",
							n, fanout, failed, id, before[id], after[id])
					}
					got := detectFailure(t, &Spec{NodeID: id, Topology: topo, FailureTimeout: timeout}, failed, timeout)
					if got.repaired != observes {
						t.Fatalf("n=%d fanout=%d fail %d: node %d repaired=%v, want %v", n, fanout, failed, id, got.repaired, observes)
					}
					if !reflect.DeepEqual(got.tree[id], after[id]) {
						t.Fatalf("n=%d fanout=%d fail %d: node %d placed itself %v, repaired plane says %v",
							n, fanout, failed, id, got.tree[id], after[id])
					}
				}
			}
		}
	}

	// The trees the flat re-parenting rule produced, inlined: the same for
	// fan-out 2 and 3 at this size.
	full3 := map[combining.NodeID]place{0: {-1, []combining.NodeID{1, 2}}, 1: {0, nil}, 2: {0, nil}}
	cases := []struct {
		n      int
		failed combining.NodeID
		want   map[combining.NodeID]place
	}{
		{2, 0, map[combining.NodeID]place{1: {-1, nil}}},
		{2, 1, map[combining.NodeID]place{0: {-1, nil}}},
		{3, 0, map[combining.NodeID]place{1: {-1, []combining.NodeID{2}}, 2: {1, nil}}},
		{3, 1, map[combining.NodeID]place{0: {-1, []combining.NodeID{2}}, 2: {0, nil}}},
		{3, 2, map[combining.NodeID]place{0: {-1, []combining.NodeID{1}}, 1: {0, nil}}},
	}
	for _, tc := range cases {
		for fanout := 2; fanout <= 3; fanout++ {
			ids := make([]combining.NodeID, tc.n)
			for i := range ids {
				ids[i] = combining.NodeID(i)
			}
			topo := flatTopology(ids, fanout)
			original := treeOf(mustResolve(t, &Spec{NodeID: 0, Topology: topo, FailureTimeout: timeout}).Plane())
			if tc.n == 3 && !reflect.DeepEqual(original, full3) {
				t.Fatalf("3-member tree = %v, want %v", original, full3)
			}
			for _, id := range ids {
				if id == tc.failed {
					continue
				}
				got := detectFailure(t, &Spec{NodeID: id, Topology: topo, FailureTimeout: timeout}, tc.failed, timeout)
				if got.repaired && !reflect.DeepEqual(got.tree, tc.want) {
					t.Fatalf("n=%d fanout=%d fail %d: node %d repaired to %v, want %v", tc.n, fanout, tc.failed, id, got.tree, tc.want)
				}
				if !reflect.DeepEqual(got.tree[id], tc.want[id]) {
					t.Fatalf("n=%d fanout=%d fail %d: node %d placed %v, want %v", tc.n, fanout, tc.failed, id, got.tree[id], tc.want[id])
				}
				if restored := treeOf(got.plane.Restore(tc.failed)); !reflect.DeepEqual(restored, original) {
					t.Fatalf("n=%d fanout=%d restart %d: node %d restored %v, want %v", tc.n, fanout, tc.failed, id, restored, original)
				}
			}
		}
	}

	// Without a topology a spec keeps its explicit wiring, as the socket
	// front-ends' benchmark builds it, and failure detection is refused.
	w := mustResolve(t, &Spec{NodeID: 2, Parent: 0, Children: []combining.NodeID{5}, Fanout: 2})
	if w.Parent != 0 || !reflect.DeepEqual(w.Children, []combining.NodeID{5}) || w.Detector != nil || w.Plane != nil {
		t.Fatalf("flat spec without detection resolved to %+v", w)
	}
	if _, err := (&Spec{NodeID: 0, Parent: -1, FailureTimeout: timeout}).Resolve(); err == nil {
		t.Fatal("a flat spec with failure detection resolved")
	}
}

// detected is one node's view after a failure-detector pass.
type detected struct {
	repaired bool
	plane    *topology.Plane
	tree     map[combining.NodeID]place
}

// detectFailure resolves spec and runs its detector past the grace window
// with every neighbor but failed heard from.
func detectFailure(t *testing.T, spec *Spec, failed combining.NodeID, timeout time.Duration) detected {
	t.Helper()
	w := mustResolve(t, spec)
	node := &silentPeer{dead: failed}
	w.Detector.Check(node, 0) // starts the grace window
	node.now = 3 * timeout
	repaired := w.Detector.Check(node, node.now)
	return detected{repaired, w.Plane(), treeOf(w.Plane())}
}

func mustResolve(t *testing.T, s *Spec) Wiring {
	t.Helper()
	w, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return w
}
