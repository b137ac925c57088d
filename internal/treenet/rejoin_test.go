package treenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/combining"
)

// TestRejoinHandshakeOverTCP pins the crash-recovery handshake end to end
// over loopback TCP: a restarted leaf whose epoch counter rewound announces
// a rejoin, and the parent (a) resets its stale-report gate so the leaf's
// low-epoch reports are accepted again, and (b) immediately streams back
// the current global broadcast with the newest configuration — the leaf
// converges without waiting out an epoch round.
//
// The leaf restarts as a process does: its transport, and with it every
// delta decoder, is new. The parent's reply travels on a fresh dial, which
// resets the stream before the reply is encoded, so the very first
// announcement is answered by a full frame: one round, no desync.
func TestRejoinHandshakeOverTCP(t *testing.T) {
	const n = 2 // node 0 = root/parent, node 1 = leaf
	nodes := make([]*combining.Node, n)
	trs := make([]*Transport, n)
	var mu sync.Mutex

	var leafBroadcasts int // broadcasts delivered to the leaf, under mu
	listen := func(i int) *Transport {
		tr, err := Listen(combining.NodeID(i), "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			if _, ok := msg.(combining.Broadcast); ok && i == 1 {
				leafBroadcasts++
			}
			nodes[i].OnMessage(from, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		// A long resync interval: a full frame can only mean a reset.
		tr.EnableDelta(0.5, 1<<20)
		return tr
	}
	for i := 0; i < n; i++ {
		trs[i] = listen(i)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	trs[0].SetPeer(1, trs[1].Addr())
	trs[1].SetPeer(0, trs[0].Addr())
	now := func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	nodes[0] = combining.NewBuilder(0).Children(1).Transport(trs[0].Send).Clock(now).Build()
	nodes[1] = combining.NewBuilder(1).Parent(0).Transport(trs[1].Send).Clock(now).Build()
	nodes[1].SetLocal([]float64{5})

	cfg := &combining.ConfigUpdate{Version: 3, GateEpoch: 9, Payload: []byte(`{"v":3}`)}
	mu.Lock()
	nodes[0].SetConfig(cfg)
	mu.Unlock()

	// Run epochs until the leaf holds the config and the root has its
	// report: the steady pre-crash state, with the root's child-epoch gate
	// well above zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		nodes[1].Tick()
		nodes[0].Tick()
		leafCfg := nodes[1].Config()
		acks := nodes[0].ChildConfigAcks()
		mu.Unlock()
		if leafCfg != nil && leafCfg.Version == 3 && acks[1] == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pre-crash convergence never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Crash + restart the leaf process: the node restarts from durable
	// position epoch 0 with no config (a cold leaf; the durable set, if
	// any, would seed these). Without the handshake its epoch-1 reports
	// would be dropped by the root's stale gate forever.
	trs[1].Close()
	// The root keeps broadcasting into the dead connection until a write
	// fails and the connection is dropped, as a parent does while its child
	// is down.
	deadline = time.Now().Add(5 * time.Second)
	for trs[0].Stats().PeersConnected > 0 {
		mu.Lock()
		nodes[0].Tick()
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("root never noticed the dead leaf connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	trs[1] = listen(1)
	trs[1].SetPeer(0, trs[0].Addr())
	trs[0].SetPeer(1, trs[1].Addr())
	mu.Lock()
	nodes[1] = combining.NewBuilder(1).Parent(0).Transport(trs[1].Send).Clock(now).Build()
	leafBroadcasts = 0
	mu.Unlock()
	nodes[1].AnnounceRejoin()

	// The root's immediate reply must deliver global + config before the
	// leaf ever Ticks again — to this one announcement, not a repeat.
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		_, _, haveGlobal := nodes[1].Global()
		leafCfg := nodes[1].Config()
		mu.Unlock()
		if haveGlobal && leafCfg != nil && leafCfg.Version == 3 && leafCfg.GateEpoch == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the reply to the first rejoin never delivered global + config to the leaf (leaf stats %+v)", trs[1].Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	replies := leafBroadcasts
	mu.Unlock()
	if st := trs[1].Stats(); replies != 1 || st.Delta.Desyncs != 0 {
		t.Fatalf("rejoin took %d broadcasts and %d delta desyncs, want 1 and 0", replies, st.Delta.Desyncs)
	}

	// And the leaf's fresh (low-epoch) reports must be aggregated again:
	// the root re-learns the leaf's contribution.
	nodes[1].SetLocal([]float64{42})
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		nodes[1].Tick()
		nodes[0].Tick()
		g, _, ok := nodes[0].Global()
		g = g.Clone() // Global aliases the node's buffer; the lock is about to go
		acks := nodes[0].ChildConfigAcks()
		mu.Unlock()
		if ok && g.Sum[0] == 42 && acks[1] == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("root never re-aggregated the rejoined leaf's reports")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
