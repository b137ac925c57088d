package combining

import (
	"testing"
	"time"
)

// twoNodeForest wires a root and a leaf forest with synchronous in-process
// delivery, two components ({0,2} and {1}) over three principals.
func twoNodeForest(t *testing.T) (root, leaf *Forest) {
	t.Helper()
	comps := [][]int{{0, 2}, {1}}
	now := func() time.Duration { return 0 }
	var r, l *Forest
	mk := func(id, parent NodeID, children []NodeID, deliver func(tree int, from NodeID, msg interface{})) *Forest {
		f, err := NewForest(ForestConfig{
			ID: id, Parent: parent, Children: children,
			NumPrincipals: 3, Components: comps,
			Send: func(tree int) SendFunc {
				return func(to NodeID, msg Message) { deliver(tree, id, Detach(msg)) }
			},
			Now: now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	r = mk(0, -1, []NodeID{1}, func(tree int, from NodeID, msg interface{}) { l.OnMessage(tree, from, msg) })
	l = mk(1, 0, nil, func(tree int, from NodeID, msg interface{}) { r.OnMessage(tree, from, msg) })
	return r, l
}

func TestForestScatterGather(t *testing.T) {
	root, leaf := twoNodeForest(t)
	root.SetLocal([]float64{10, 100, 0})
	leaf.SetLocal([]float64{5, 11, 20})
	leaf.Tick()
	root.Tick()

	// Component 0 carries principals 0 and 2, component 1 carries 1.
	g0, _, ok := leaf.ComponentGlobal(0)
	if !ok || g0.Sum[0] != 15 || g0.Sum[1] != 20 || g0.Count != 2 {
		t.Fatalf("component 0 global = %+v ok=%v", g0, ok)
	}
	g1, _, ok := leaf.ComponentGlobal(1)
	if !ok || g1.Sum[0] != 111 {
		t.Fatalf("component 1 global = %+v ok=%v", g1, ok)
	}
	if root.Trees() != 2 || !root.IsRoot() || leaf.IsRoot() {
		t.Fatal("forest shape wrong")
	}
}

func TestForestEpochsAreIndependent(t *testing.T) {
	root, leaf := twoNodeForest(t)
	leaf.SetLocal([]float64{1, 1, 1})
	leaf.Tick()
	// Advance only component 1's tree on the root: component epochs must
	// diverge, and the forest-level epoch reports the slowest.
	root.Tree(1).Tick()
	root.Tree(1).Tick()
	if e0, e1 := root.Tree(0).Epoch(), root.Tree(1).Epoch(); e0 >= e1 {
		t.Fatalf("epochs did not diverge: %d vs %d", e0, e1)
	}
	if root.Epoch() != root.Tree(0).Epoch() {
		t.Fatalf("forest epoch %d, want slowest tree's %d", root.Epoch(), root.Tree(0).Epoch())
	}
}

func TestForestConfigDedupe(t *testing.T) {
	root, leaf := twoNodeForest(t)
	fired := 0
	leaf.SetConfigHandler(func(cu *ConfigUpdate) { fired++ })
	root.SetConfig(&ConfigUpdate{Version: 7, Payload: []byte("x")})
	// The update rides both component trees; two epochs flush broadcasts.
	for i := 0; i < 2; i++ {
		leaf.Tick()
		root.Tick()
	}
	if fired != 1 {
		t.Fatalf("config handler fired %d times, want 1 (deduped)", fired)
	}
	if cu := leaf.Config(); cu == nil || cu.Version != 7 {
		t.Fatalf("leaf config = %+v", cu)
	}
	// A replayed older version never re-fires.
	root.SetConfig(&ConfigUpdate{Version: 7, Payload: []byte("x")})
	leaf.Tick()
	root.Tick()
	if fired != 1 {
		t.Fatalf("stale version re-fired handler: %d", fired)
	}
}

func TestForestSingleComponentDefault(t *testing.T) {
	f, err := NewForest(ForestConfig{ID: 0, Parent: -1, NumPrincipals: 4})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() != 1 || len(f.Component(0)) != 4 {
		t.Fatalf("default forest = %d trees, component %v", f.Trees(), f.Component(0))
	}
	f.SetLocal([]float64{1, 2, 3, 4})
	f.Tick()
	g, _, ok := f.ComponentGlobal(0)
	if !ok || g.Sum[3] != 4 {
		t.Fatalf("global = %+v ok=%v", g, ok)
	}
}

func TestForestValidation(t *testing.T) {
	bad := []ForestConfig{
		{NumPrincipals: 0},
		{NumPrincipals: 2, Components: [][]int{{}}},
		{NumPrincipals: 2, Components: [][]int{{0, 2}}},
		{NumPrincipals: 2, Components: [][]int{{0}, {0}}},
		{NumPrincipals: 2, Components: [][]int{{-1}}},
	}
	for i, cfg := range bad {
		if _, err := NewForest(cfg); err == nil {
			t.Fatalf("case %d: NewForest accepted %+v", i, cfg)
		}
	}
}

func TestForestRejoinAndReconfigure(t *testing.T) {
	root, leaf := twoNodeForest(t)
	leaf.Reset(9, &ConfigUpdate{Version: 3})
	fired := 0
	leaf.SetConfigHandler(func(cu *ConfigUpdate) { fired++ })
	leaf.AnnounceRejoin()
	if e := leaf.Epoch(); e != 9 {
		t.Fatalf("leaf epoch after reset = %d, want 9", e)
	}
	// The restored version must not re-fire when a peer re-broadcasts it.
	root.SetConfig(&ConfigUpdate{Version: 3})
	leaf.Tick()
	root.Tick()
	if fired != 0 {
		t.Fatalf("restored config version re-fired handler %d times", fired)
	}
	leaf.Reconfigure(-1, nil)
	if !leaf.IsRoot() {
		t.Fatal("reconfigure to root failed")
	}
}
