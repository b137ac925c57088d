package treenet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/combining"
)

// TestConfigSentUntilAcknowledged pins how an agreement set rides the tree
// over loopback TCP: broadcasts carry it only until the child's report
// acknowledges it — after that a broadcast is the aggregate alone, and the
// bytes the parent sends per broadcast drop by the set's size — and a child
// that restarts without it gets it again, whether or not it sends a Rejoin.
func TestConfigSentUntilAcknowledged(t *testing.T) {
	var mu sync.Mutex
	nodes := make([]*combining.Node, 2) // 0 = root, 1 = leaf
	var withCfg, without int            // broadcasts delivered to the leaf, under mu
	trs := make([]*Transport, 2)
	for i := range trs {
		i := i
		tr, err := Listen(combining.NodeID(i), "127.0.0.1:0", func(_ int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			if b, ok := msg.(combining.Broadcast); ok && i == 1 {
				if b.Config != nil {
					withCfg++
				} else {
					without++
				}
			}
			nodes[i].OnMessage(from, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		defer tr.Close()
	}
	trs[0].SetPeer(1, trs[1].Addr())
	trs[1].SetPeer(0, trs[0].Addr())
	now := func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	leaf := func() *combining.Node {
		n := combining.NewBuilder(1).Parent(0).Principals(4).Transport(trs[1].Send).Clock(now).Build()
		n.SetLocal([]float64{1, 2, 3, 4})
		return n
	}
	nodes[0] = combining.NewBuilder(0).Children(1).Principals(4).Transport(trs[0].Send).Clock(now).Build()
	nodes[1] = leaf()
	payload := bytes.Repeat([]byte("x"), 3300) // about an encoded 48-principal budget set
	mu.Lock()
	nodes[0].SetConfig(&combining.ConfigUpdate{Version: 5, GateEpoch: 2, Payload: payload})
	mu.Unlock()

	// round ticks leaf then root and waits for the root's broadcast to land.
	delivered := func() int { mu.Lock(); defer mu.Unlock(); return withCfg + without }
	round := func() {
		t.Helper()
		want := delivered() + 1
		mu.Lock()
		nodes[1].Tick()
		nodes[0].Tick()
		mu.Unlock()
		for deadline := time.Now().Add(5 * time.Second); delivered() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("broadcast never reached the leaf")
			}
		}
	}
	acked := func() bool {
		mu.Lock()
		defer mu.Unlock()
		cu := nodes[1].Config()
		return cu != nil && cu.Version == 5 && nodes[0].ChildConfigAcks()[1] == 5
	}
	for i := 0; !acked(); i++ {
		if i == 50 {
			t.Fatal("the leaf never acknowledged the set")
		}
		round()
	}
	mu.Lock()
	before, sentBefore := withCfg, trs[0].Stats().BytesSent
	mu.Unlock()
	if before == 0 {
		t.Fatal("no broadcast carried the set")
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		round()
	}
	mu.Lock()
	extra, perBroadcast := withCfg-before, (trs[0].Stats().BytesSent-sentBefore)/rounds
	mu.Unlock()
	t.Logf("%d bytes sent per broadcast once the set is acknowledged", perBroadcast)
	if extra != 0 {
		t.Fatalf("%d of %d broadcasts to a child that acknowledged the set still carried it", extra, rounds)
	}
	if perBroadcast >= uint64(len(payload)) {
		t.Fatalf("%d bytes sent per broadcast after the ack, want fewer than the %d-byte set", perBroadcast, len(payload))
	}

	// A restarted leaf rejoins holding nothing: the parent's reply carries
	// the set, and it converges again.
	mu.Lock()
	nodes[1] = leaf()
	mu.Unlock()
	nodes[1].AnnounceRejoin()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		cu, got := nodes[1].Config(), withCfg-before
		mu.Unlock()
		if cu != nil && cu.Version == 5 && got == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined leaf holds %v after %d config-bearing broadcasts, want version 5 after 1", cu, got)
		}
	}

	// A leaf restarted without a Rejoin (no durable state, or the Rejoin was
	// lost) reports version 0 in reports the parent's epoch gate drops as
	// stale; the next broadcast after one of them lands carries the set.
	for i := 0; i < 3; i++ {
		round()
	}
	mu.Lock()
	nodes[1] = leaf()
	mu.Unlock()
	for i := 0; ; i++ {
		mu.Lock()
		cu := nodes[1].Config()
		mu.Unlock()
		if cu != nil && cu.Version == 5 {
			break
		}
		if i == 50 {
			t.Fatal("a leaf restarted without a Rejoin never got the set again")
		}
		round()
	}
}
