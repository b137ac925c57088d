package topology

import (
	"reflect"
	"testing"

	"repro/internal/combining"
)

func twoRegions() Spec {
	return Spec{
		Regions: []Region{
			{Name: "east", Members: []int{0, 1, 2, 3}},
			{Name: "west", Members: []int{4, 5, 6, 7}},
		},
		Fanout: 2,
	}
}

func TestCompileTwoRegions(t *testing.T) {
	p, err := Compile(twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Root() != 0 {
		t.Fatalf("root = %d, want 0", p.Root())
	}
	// Sub-roots are the lowest member of each region; the global root
	// dual-hats as east's sub-root.
	for id, wantSub := range map[combining.NodeID]bool{0: true, 4: true, 1: false, 5: false} {
		n, ok := p.Placement(id)
		if !ok {
			t.Fatalf("placement(%d) missing", id)
		}
		if n.SubRoot != wantSub {
			t.Fatalf("placement(%d).SubRoot = %v, want %v", id, n.SubRoot, wantSub)
		}
	}
	// West's sub-root hangs off the global tier, not inside east.
	w, _ := p.Placement(4)
	if w.Parent != 0 {
		t.Fatalf("west sub-root parent = %d, want 0", w.Parent)
	}
	// Every non-sub-root node's parent is inside its own region.
	for _, id := range p.Members() {
		n, _ := p.Placement(id)
		if n.SubRoot {
			continue
		}
		par, _ := p.Placement(n.Parent)
		if par.Region != n.Region {
			t.Fatalf("node %d (region %s) parented to %d (region %s)", id, n.Region, n.Parent, par.Region)
		}
	}
	if p.Levels() < 3 {
		t.Fatalf("levels = %d, want >= 3", p.Levels())
	}
	// The flattened view must be a rooted tree over all 8 members, with
	// the root carrying the BuildTree-style -1 parent entry (consumers
	// treat a missing Parent entry as "removed").
	topo := p.Topology()
	if len(topo.Parent) != 8 || topo.Root != 0 || topo.Parent[0] != -1 {
		t.Fatalf("flat topology = %+v", topo)
	}
}

func TestCompileIsDeterministic(t *testing.T) {
	a, err := Compile(twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("planes differ: %s vs %s", a, b)
	}
	for _, id := range a.Members() {
		na, _ := a.Placement(id)
		nb, _ := b.Placement(id)
		if na.Parent != nb.Parent || na.Level != nb.Level {
			t.Fatalf("node %d placed differently: %+v vs %+v", id, na, nb)
		}
	}
}

// TestRemoveSubRootReparentsWithinRegion is the regression test for the
// flat-rebuild bug: killing a regional sub-root must promote a replacement
// from the same region and re-attach it to the global tier — survivors
// never re-parent to a leaf of a sibling region.
func TestRemoveSubRootReparentsWithinRegion(t *testing.T) {
	p, err := Compile(twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	np := p.Remove(4) // west's sub-root
	if np.Alive(4) {
		t.Fatal("removed node still alive")
	}
	// 5 is promoted to west sub-root and re-attaches to the global tier.
	n5, ok := np.Placement(5)
	if !ok || !n5.SubRoot {
		t.Fatalf("placement(5) = %+v, want west sub-root", n5)
	}
	if got, _ := np.Placement(n5.Parent); got.Region != "east" || !got.SubRoot {
		t.Fatalf("new west sub-root parented to %+v, want a global-tier node", got)
	}
	// The remaining west members stay inside west.
	for _, id := range []combining.NodeID{6, 7} {
		n, _ := np.Placement(id)
		if n.Region != "west" {
			t.Fatalf("node %d region = %s", id, n.Region)
		}
		par, _ := np.Placement(n.Parent)
		if par.Region != "west" {
			t.Fatalf("west survivor %d re-parented to %s node %d", id, par.Region, n.Parent)
		}
	}
	// Restore brings the original wiring back.
	rp := np.Restore(4)
	if rn, _ := rp.Placement(4); !rn.SubRoot {
		t.Fatalf("restored node 4 = %+v, want sub-root", rn)
	}
}

func TestRemoveGlobalRoot(t *testing.T) {
	p, err := Compile(twoRegions())
	if err != nil {
		t.Fatal(err)
	}
	np := p.Remove(0)
	// East promotes its lowest orphan, 1, into 0's place: east's sub-root
	// and the global root, adopting 0's other children.
	n1, _ := np.Placement(1)
	if !n1.SubRoot || np.Root() != 1 || !reflect.DeepEqual(n1.Children, []combining.NodeID{2, 3, 4}) {
		t.Fatalf("placement(1) = %+v, root %d; want the global root over 2, 3 and west's 4", n1, np.Root())
	}
	root, _ := np.Placement(np.Root())
	if !root.SubRoot || root.Parent != -1 {
		t.Fatalf("new root = %+v", root)
	}
	if np.Levels() < 2 {
		t.Fatalf("levels = %d", np.Levels())
	}
}

func TestRemoveWholeRegion(t *testing.T) {
	p, err := Compile(Spec{
		Regions: []Region{
			{Name: "east", Members: []int{0, 1}},
			{Name: "west", Members: []int{2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	np := p.Remove(2)
	if np.Alive(2) || len(np.Members()) != 2 {
		t.Fatalf("members = %v", np.Members())
	}
	// Removing everything leaves the last plane intact (a plane always has
	// a root).
	np = np.Remove(0)
	last := np.Remove(1)
	if last.Root() != 1 {
		t.Fatalf("root = %d, want the sole survivor 1", last.Root())
	}
}

// TestRemoveMovesOnlyNeighbors pins the local repair rule on one-region
// planes of 1–9 members and on multi-region planes: removing any live node,
// one after another until one survives, leaves a rooted tree in which no
// survivor but the removed node's parent and children changed parent,
// children or sub-root role. Failure detection is local — only those
// neighbors notice — so this is what keeps every survivor's placement
// consistent with its neighbors'.
func TestRemoveMovesOnlyNeighbors(t *testing.T) {
	specs := []Spec{
		twoRegions(),
		{Regions: []Region{
			{Name: "a", Members: []int{0, 10, 11, 12}},
			{Name: "b", Members: []int{1, 5}},
			{Name: "c", Members: []int{2, 3, 4, 6, 7}},
			{Name: "d", Members: []int{8}},
		}, Fanout: 2},
	}
	for n := 1; n <= 9; n++ {
		for fanout := 2; fanout <= 3; fanout++ {
			members := make([]int, n)
			for i := range members {
				members[i] = i
			}
			specs = append(specs, Spec{Regions: []Region{{Name: "flat", Members: members}}, Fanout: fanout})
		}
	}
	for _, spec := range specs {
		base, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Each first failure, then the rest in a fixed stride order.
		for _, first := range base.Members() {
			p := base
			next := first
			for len(p.Members()) > 1 {
				np := p.Remove(next)
				checkLocalRepair(t, p, np, next)
				p = np
				live := p.Members()
				next = live[(int(next)*7+3)%len(live)]
			}
		}
	}
}

// checkLocalRepair asserts np is a rooted tree over p's members minus
// failed in which only failed's neighbors in p moved.
func checkLocalRepair(t *testing.T, p, np *Plane, failed combining.NodeID) {
	t.Helper()
	old, _ := p.Placement(failed)
	moved := map[combining.NodeID]bool{old.Parent: true}
	for _, c := range old.Children {
		moved[c] = true
	}
	if np.Alive(failed) || len(np.Members()) != len(p.Members())-1 {
		t.Fatalf("%s minus %d: members %v", p, failed, np.Members())
	}
	for _, id := range np.Members() {
		was, _ := p.Placement(id)
		now, _ := np.Placement(id)
		same := was.Parent == now.Parent && was.SubRoot == now.SubRoot &&
			reflect.DeepEqual(was.Children, now.Children)
		if !same && !moved[id] {
			t.Fatalf("%s minus %d: non-neighbor %d moved from %+v to %+v", p, failed, id, was, now)
		}
		if (now.Parent < 0) != (id == np.Root()) {
			t.Fatalf("%s minus %d: node %d parent %d, root %d", p, failed, id, now.Parent, np.Root())
		}
		for _, c := range now.Children {
			if cp, _ := np.Placement(c); cp.Parent != id {
				t.Fatalf("%s minus %d: %d lists child %d whose parent is %d", p, failed, id, c, cp.Parent)
			}
		}
		if par, ok := np.Placement(now.Parent); now.Parent >= 0 && (!ok || !now.SubRoot && par.Region != now.Region) {
			t.Fatalf("%s minus %d: node %d (region %s) under %+v", p, failed, id, now.Region, par)
		}
		// The parent chain reaches the root within one hop per member.
		at := id
		for hops := 0; at != np.Root(); hops++ {
			pl, ok := np.Placement(at)
			if !ok || hops > len(np.Members()) {
				t.Fatalf("%s minus %d: node %d does not reach the root", p, failed, id)
			}
			at = pl.Parent
		}
	}
}

func TestFromFlatMatchesBuildTree(t *testing.T) {
	members := []combining.NodeID{3, 1, 4, 1, 5}[:3] // 3,1,4
	p, err := FromFlat(members, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := combining.BuildTree(members, 2)
	if p.Root() != want.Root {
		t.Fatalf("root = %d, want %d", p.Root(), want.Root)
	}
	for id, wp := range want.Parent {
		n, _ := p.Placement(id)
		if n.Parent != wp {
			t.Fatalf("parent(%d) = %d, want %d", id, n.Parent, wp)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []Spec{
		{},
		{Regions: []Region{{Name: "", Members: []int{0}}}},
		{Regions: []Region{{Name: "a", Members: nil}}},
		{Regions: []Region{{Name: "a", Members: []int{0}}, {Name: "a", Members: []int{1}}}},
		{Regions: []Region{{Name: "a", Members: []int{0}}, {Name: "b", Members: []int{0}}}},
		{Regions: []Region{{Name: "a", Members: []int{-1}}}},
		{Regions: []Region{{Name: "a", Members: []int{0}}}, Sharding: "zonal"},
		{Regions: []Region{{Name: "a", Members: []int{0}}}, Delta: DeltaSpec{Threshold: -1}},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, spec)
		}
	}
	if err := (twoRegions()).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestNormalize(t *testing.T) {
	s := Spec{
		Regions: []Region{{Name: "a", Members: []int{0}}},
		Delta:   DeltaSpec{Threshold: 0.5},
	}.Normalize()
	if s.Fanout != DefaultFanout || s.Sharding != ShardNone || s.Delta.ResyncEvery != DefaultResyncEvery {
		t.Fatalf("normalized = %+v", s)
	}
}
