package treenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/combining"
)

// TestReconnectAfterPeerRestart kills a peer's listener mid-stream and
// restarts it on the same address; the persistent writer must re-dial and
// deliver again without a new Transport.
func TestReconnectAfterPeerRestart(t *testing.T) {
	var c collector
	recv, err := Listen(1, "127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	addr := recv.Addr()

	send, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	send.SetPeer(1, addr)

	agg := combining.FromLocal([]float64{1})
	send.Send(1, &combining.Report{Epoch: 1, Agg: agg})
	c.wait(t, 1)

	// Kill the receiver; the established connection breaks.
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address and keep sending until a message lands:
	// the writer re-dials with backoff, so early sends may be dropped.
	recv2, err := Listen(1, addr, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		send.Send(1, &combining.Report{Epoch: 2, Agg: agg})
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := send.Stats()
	if st.Dials < 2 || st.Reconnects < 1 {
		t.Fatalf("stats = %+v, want >=2 dials and >=1 reconnect", st)
	}
}

func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Peer address that never accepts: reserve a port and close it.
	dead, err := Listen(1, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	dead.Close()
	tr.SetPeer(1, addr)

	agg := combining.FromLocal([]float64{1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Bursts of far more sends than the queue holds, until one overflows
		// it: all must return immediately. Repeated because the writer drops
		// a dead peer's messages without waiting and, under -race, can drain
		// the queue as fast as a single burst fills it.
		for burst := 0; burst < 200 && tr.Stats().QueueDrops == 0; burst++ {
			for i := 0; i < sendQueueDepth*4; i++ {
				tr.Send(1, &combining.Report{Epoch: i, Agg: agg})
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a dead peer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().QueueDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := tr.Stats(); st.QueueDrops == 0 || st.SendErrors < st.QueueDrops {
		t.Fatalf("stats = %+v, want queue drops counted in send errors", st)
	}
}

// treeRig is a flat combining tree over real TCP — the one-region plane —
// each node wired and guarded by what Spec.Resolve gives it: its placement
// and its PlaneReparenter.
type treeRig struct {
	mu    sync.Mutex
	nodes map[combining.NodeID]*combining.Node
	trs   map[combining.NodeID]*Transport
	wires map[combining.NodeID]Wiring
	start time.Time
}

func (r *treeRig) now() time.Duration { return time.Since(r.start) }

func newTreeRig(t *testing.T, ids []combining.NodeID, timeout time.Duration) *treeRig {
	t.Helper()
	rig := &treeRig{
		nodes: make(map[combining.NodeID]*combining.Node),
		trs:   make(map[combining.NodeID]*Transport),
		wires: make(map[combining.NodeID]Wiring),
		start: time.Now(),
	}
	for _, id := range ids {
		id := id
		tr, err := Listen(id, "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
			rig.mu.Lock()
			defer rig.mu.Unlock()
			if n, ok := rig.nodes[id]; ok {
				n.OnMessage(from, msg)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.trs[id] = tr
	}
	for _, id := range ids {
		for _, other := range ids {
			if id != other {
				rig.trs[id].SetPeer(other, rig.trs[other].Addr())
			}
		}
		w, err := (&Spec{NodeID: id, Topology: flatTopology(ids, 2), FailureTimeout: timeout}).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		rig.wires[id] = w
		rig.nodes[id] = combining.NewBuilder(id).Parent(w.Parent).Children(w.Children...).
			Transport(rig.trs[id].Send).Clock(rig.now).Build()
	}
	return rig
}

// tick runs one epoch on every live node (children before root so reports
// land the same epoch) and one failure-detector pass.
func (r *treeRig) tick(live []combining.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(live) - 1; i >= 0; i-- {
		r.nodes[live[i]].Tick()
	}
	for _, id := range live {
		r.wires[id].Detector.Check(r.nodes[id], r.now())
	}
}

// TestRootKillReparentsOverTCP kills the real-TCP tree root; the surviving
// children must detect the silence, independently promote the same new
// root, and resume exchanging fresh global aggregates — all without any
// process restart.
func TestRootKillReparentsOverTCP(t *testing.T) {
	ids := []combining.NodeID{0, 1, 2}
	rig := newTreeRig(t, ids, 300*time.Millisecond)
	defer func() {
		for _, tr := range rig.trs {
			tr.Close()
		}
	}()
	rig.mu.Lock()
	for _, id := range ids {
		rig.nodes[id].SetLocal([]float64{float64(10 * (int(id) + 1))})
	}
	rig.mu.Unlock()

	// Healthy phase: run epochs until a leaf sees the full aggregate 60.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rig.tick(ids)
		rig.mu.Lock()
		g, _, ok := rig.nodes[1].Global()
		g = g.Clone() // Global aliases the node's buffer; the lock is about to go
		rig.mu.Unlock()
		if ok && g.Sum[0] == 60 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy tree never converged to 60")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the root (node 0): close its transport and stop ticking it.
	rig.trs[0].Close()
	rig.mu.Lock()
	delete(rig.nodes, 0)
	rig.mu.Unlock()
	survivors := []combining.NodeID{1, 2}

	// Survivors keep ticking; after FailureTimeout both must re-parent
	// (deterministically: node 1 becomes root, node 2 its child) and a fresh
	// global — now summing only 20+30 — must reach the new leaf.
	killedAt := rig.now()
	deadline = time.Now().Add(10 * time.Second)
	for {
		rig.tick(survivors)
		rig.mu.Lock()
		g, at, ok := rig.nodes[2].Global()
		g = g.Clone() // Global aliases the node's buffer; the lock is about to go
		rig.mu.Unlock()
		if ok && g.Sum[0] == 50 && at > killedAt {
			break
		}
		if time.Now().After(deadline) {
			rig.mu.Lock()
			g, at, ok := rig.nodes[2].Global()
			g = g.Clone() // Global aliases the node's buffer; the lock is about to go
			rig.mu.Unlock()
			t.Fatalf("no post-failure global at node 2: got %v (ok=%v, at=%v, killedAt=%v), reparents=%d/%d",
				g.Sum, ok, at, killedAt, rig.wires[1].Detector.Reparents(), rig.wires[2].Detector.Reparents())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if p := parentIn(rig.wires[1], 1); p != -1 {
		t.Fatalf("node 1 parent = %d, want -1 (new root)", p)
	}
	if p := parentIn(rig.wires[2], 2); p != 1 {
		t.Fatalf("node 2 parent = %d, want 1", p)
	}
	if rig.wires[1].Detector.Reparents() == 0 || rig.wires[2].Detector.Reparents() == 0 {
		t.Fatal("survivors never recorded a reparent")
	}
}

// parentIn reads id's parent from its detector's current plane (-2 when the
// plane no longer places it).
func parentIn(w Wiring, id combining.NodeID) combining.NodeID {
	pl, ok := w.Plane().Placement(id)
	if !ok {
		return -2
	}
	return pl.Parent
}
