package treenet

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/combining"
	"repro/internal/topology"
)

// TestDeltaOverTCP runs a two-node tree over real TCP with delta
// compression on: the global must reconstruct exactly at the leaf,
// steady-state epochs must suppress entries, and a genuine move must still
// propagate.
func TestDeltaOverTCP(t *testing.T) {
	nodes := make([]*combining.Node, 2)
	trs := make([]*Transport, 2)
	var mu sync.Mutex

	for i := 0; i < 2; i++ {
		i := i
		tr, err := Listen(combining.NodeID(i), "127.0.0.1:0", func(_ int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			nodes[i].OnMessage(from, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.EnableDelta(0.5, 4)
		trs[i] = tr
	}
	trs[0].SetPeer(1, trs[1].Addr())
	trs[1].SetPeer(0, trs[0].Addr())
	now := func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	mu.Lock()
	nodes[0] = combining.NewBuilder(0).Children(1).Principals(3).Transport(trs[0].Send).Clock(now).Build()
	nodes[1] = combining.NewBuilder(1).Parent(0).Principals(3).Transport(trs[1].Send).Clock(now).Build()
	nodes[1].SetLocal([]float64{5, 11, 20})
	mu.Unlock()
	tickUntil := func(want []float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			nodes[1].Tick()
			nodes[0].Tick()
			g, _, ok := nodes[1].Global()
			g = g.Clone() // Global aliases the node's buffer; the lock is about to go
			mu.Unlock()
			if ok && slices.Equal(g.Sum, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("leaf never saw global %v: got %v ok=%v", want, g.Sum, ok)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	tickUntil([]float64{5, 11, 20})

	// Steady state: many epochs with an unchanged vector must suppress
	// per-principal entries (delta frames go out near-empty).
	for i := 0; i < 20; i++ {
		mu.Lock()
		nodes[1].Tick()
		nodes[0].Tick()
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	st := trs[1].Stats()
	if st.Delta.Frames == 0 || st.Delta.EntriesSuppressed == 0 || st.Delta.BytesSaved == 0 {
		t.Fatalf("no delta suppression in steady state: %+v", st.Delta)
	}
	if st.Delta.FullFrames == 0 {
		t.Fatalf("no periodic resync frames: %+v", st.Delta)
	}
	// Bytes are measured, not estimated: what suppression saved is payload
	// that was never written, so it is bounded by the dense payloads of the
	// frames sent, and what the leaf wrote is what the root read.
	densePayloads := (st.Delta.EntriesSent + st.Delta.EntriesSuppressed) * denseEntryBytes
	if st.Delta.BytesSaved >= densePayloads || st.BytesSent == 0 {
		t.Fatalf("bytes saved %d of %d dense payload bytes, %d sent", st.Delta.BytesSaved, densePayloads, st.BytesSent)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		sent, got := trs[1].Stats().BytesSent, trs[0].Stats().BytesReceived
		if sent == got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf sent %d bytes, root received %d", sent, got)
		}
	}

	// A real move must still propagate bit-exactly through the codec.
	mu.Lock()
	nodes[1].SetLocal([]float64{7, 13, 20})
	mu.Unlock()
	tickUntil([]float64{7, 13, 20})
}

// TestPlaneSubRootKillOverTCP kills a regional sub-root on a real-TCP
// hierarchical plane: the region's survivors must re-parent through the
// promoted member into the global tier — never sideways to a sibling leaf
// — and fresh globals must flow again.
func TestPlaneSubRootKillOverTCP(t *testing.T) {
	spec := topology.Spec{
		Regions: []topology.Region{
			{Name: "east", Members: []int{0, 1, 2}},
			{Name: "west", Members: []int{3, 4, 5}},
		},
		Fanout: 2,
	}
	plane, err := topology.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids := plane.Members()
	nodes := make(map[combining.NodeID]*combining.Node)
	trs := make(map[combining.NodeID]*Transport)
	reps := make(map[combining.NodeID]*PlaneReparenter)
	var mu sync.Mutex
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }

	for _, id := range ids {
		id := id
		tr, err := Listen(id, "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			if n, ok := nodes[id]; ok {
				n.OnMessage(from, msg)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[id] = tr
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for _, id := range ids {
		for _, other := range ids {
			if id != other {
				trs[id].SetPeer(other, trs[other].Addr())
			}
		}
		pl, _ := plane.Placement(id)
		nodes[id] = combining.NewBuilder(id).Parent(pl.Parent).Children(pl.Children...).
			Transport(trs[id].Send).Clock(now).Build()
		rep, err := NewPlaneReparenter(id, spec, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		nodes[id].SetLocal([]float64{float64(int(id) + 1)})
	}
	// Deepest placements tick first so reports land the same epoch.
	tick := func(live []combining.NodeID) {
		byDepth := append([]combining.NodeID(nil), live...)
		sort.Slice(byDepth, func(i, j int) bool {
			pi, _ := reps[byDepth[i]].Plane().Placement(byDepth[i])
			pj, _ := reps[byDepth[j]].Plane().Placement(byDepth[j])
			return pi.Level > pj.Level
		})
		mu.Lock()
		defer mu.Unlock()
		for _, id := range byDepth {
			nodes[id].Tick()
		}
		for _, id := range live {
			reps[id].Check(nodes[id], now())
		}
	}

	waitGlobal := func(at combining.NodeID, want float64, after time.Duration, live []combining.NodeID) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			tick(live)
			mu.Lock()
			g, ts, ok := nodes[at].Global()
			g = g.Clone() // Global aliases the node's buffer; the lock is about to go
			mu.Unlock()
			if ok && g.Sum[0] == want && ts > after {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw global %v (got %v ok=%v)", at, want, g.Sum, ok)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitGlobal(5, 21, 0, ids) // 1+2+…+6 across both regions

	// Kill the west sub-root (node 3).
	trs[3].Close()
	mu.Lock()
	delete(nodes, 3)
	mu.Unlock()
	survivors := []combining.NodeID{0, 1, 2, 4, 5}
	killedAt := now()

	// Post-repair sum drops node 3's contribution (21-4=17) and must reach
	// a west leaf again.
	waitGlobal(5, 17, killedAt, survivors)

	// The promoted west sub-root (4) must hang off the global tier, and its
	// sibling (5) must stay inside the region under it.
	if p := reps[4].Parent(); p != 0 {
		t.Fatalf("promoted sub-root parent = %d, want global root 0", p)
	}
	if p := reps[5].Parent(); p != 4 {
		t.Fatalf("west leaf parent = %d, want promoted sub-root 4", p)
	}
	pl4, _ := reps[4].Plane().Placement(4)
	if !pl4.SubRoot {
		t.Fatal("node 4 not marked sub-root after promotion")
	}
	if got := reps[4].Removed(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("removed = %v, want [3]", got)
	}
}
