package treenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/combining"
)

// collector is a thread-safe message sink.
type collector struct {
	mu   sync.Mutex
	msgs []interface{}
	from []combining.NodeID
}

func (c *collector) handle(tree int, from combining.NodeID, msg interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := msg.(type) { // msg.Agg is the reader's buffer: keep a copy
	case combining.Report:
		msg = combining.Detach(&m)
	case combining.Broadcast:
		msg = combining.Detach(&m)
	}
	c.msgs = append(c.msgs, msg)
	c.from = append(c.from, from)
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages", n)
}

func TestReportAndBroadcastRoundTrip(t *testing.T) {
	var c collector
	recv, err := Listen(1, "127.0.0.1:0", c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	send, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	send.SetPeer(1, recv.Addr())

	agg := combining.FromLocal([]float64{3, 7})
	send.Send(1, &combining.Report{Epoch: 4, Agg: agg})
	send.Send(1, &combining.Broadcast{Epoch: 5, Agg: agg})
	c.wait(t, 2)

	c.mu.Lock()
	defer c.mu.Unlock()
	var gotReport, gotBroadcast bool
	for i, m := range c.msgs {
		if c.from[i] != 0 {
			t.Fatalf("from = %d", c.from[i])
		}
		switch v := m.(type) {
		case combining.Report:
			gotReport = true
			if v.Epoch != 4 || v.Agg.Sum[0] != 3 || v.Agg.Sum[1] != 7 || v.Agg.Count != 1 {
				t.Fatalf("report = %+v", v)
			}
		case combining.Broadcast:
			gotBroadcast = true
			if v.Epoch != 5 {
				t.Fatalf("broadcast = %+v", v)
			}
		}
	}
	if !gotReport || !gotBroadcast {
		t.Fatalf("kinds missing: report=%v broadcast=%v", gotReport, gotBroadcast)
	}
}

// TestReportRoundTripAllocs pins what one tree message costs over a real
// transport: a lent *Report sent between two loopback Transports with delta
// compression on, encoded, decoded and handed to the Handler, allocates
// exactly once — the heap box the decoded Report value reaches the Handler
// in. The send goes through a SendFunc value, as a combining node makes it,
// and takes no box: the message is a pointer, copied into a recycled slot.
// The writer and reader encode and decode through buffers they own.
func TestReportRoundTripAllocs(t *testing.T) {
	const numPrin = 12
	got := make(chan int, 1)
	recv, err := Listen(1, "127.0.0.1:0", func(_ int, _ combining.NodeID, msg interface{}) {
		if r, ok := msg.(combining.Report); ok {
			got <- r.Epoch
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	send.EnableDelta(0.5, 16)
	send.SetPeer(1, recv.Addr())

	// One watchdog for the whole test: a timer per round would be counted.
	stuck := make(chan struct{})
	defer time.AfterFunc(30*time.Second, func() { close(stuck) }).Stop()
	var sendFn combining.SendFunc = send.Send
	rep := &combining.Report{Agg: combining.FromLocal(make([]float64, numPrin))}
	round := func() {
		rep.Epoch++
		rep.Agg.Sum[rep.Epoch%numPrin] = float64(rep.Epoch) // one entry moves
		sendFn(1, rep)
		select {
		case e := <-got:
			if e != rep.Epoch {
				t.Fatalf("delivered epoch %d, want %d", e, rep.Epoch)
			}
		case <-stuck:
			t.Fatalf("report %d not delivered", rep.Epoch)
		}
	}
	// Warm up: the dial, both delta streams and every buffer and slot.
	for i := 0; i < 40; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 1 {
		t.Fatalf("a report round trip allocates %v times, want 1 (the delivery box)", n)
	}
	if st := send.Stats(); st.SendErrors != 0 || st.Delta.Frames == 0 {
		t.Fatalf("send errors %d, delta frames %d: want a clean delta stream", st.SendErrors, st.Delta.Frames)
	}
}

func TestSendToUnknownPeerCounted(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send(9, &combining.Report{})
	if tr.SendErrors() != 1 {
		t.Fatalf("SendErrors = %d", tr.SendErrors())
	}
	// A nil message, the one non-message the sealed type admits, is also
	// counted.
	tr.SetPeer(1, "127.0.0.1:1")
	tr.Send(1, nil)
	if tr.SendErrors() != 2 {
		t.Fatalf("SendErrors = %d", tr.SendErrors())
	}
}

func TestSendToDeadPeerCounted(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A listener we immediately close: connection refused.
	dead, err := Listen(1, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	dead.Close()
	tr.SetPeer(1, addr)
	tr.Send(1, &combining.Report{Agg: combining.FromLocal([]float64{1})})
	deadline := time.Now().Add(5 * time.Second)
	for tr.SendErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if tr.SendErrors() == 0 {
		t.Fatal("dead peer send not counted")
	}
}

func TestCloseIsIdempotentAndStopsSends(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.SetPeer(1, "127.0.0.1:1")
	tr.Send(1, &combining.Report{})
	if tr.SendErrors() == 0 {
		t.Fatal("send after close not dropped")
	}
}

// TestTreeOverTCP runs a real 3-node combining tree over loopback TCP.
func TestTreeOverTCP(t *testing.T) {
	const n = 3
	nodes := make([]*combining.Node, n)
	trs := make([]*Transport, n)
	var mu sync.Mutex // serializes all tree-node access

	for i := 0; i < n; i++ {
		i := i
		tr, err := Listen(combining.NodeID(i), "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			nodes[i].OnMessage(from, msg)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
	}
	topo := combining.BuildTree([]combining.NodeID{0, 1, 2}, 2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				trs[i].SetPeer(combining.NodeID(j), trs[j].Addr())
			}
		}
		nodes[i] = combining.NewBuilder(combining.NodeID(i)).Place(topo).Transport(trs[i].Send).
			Clock(func() time.Duration { return time.Duration(time.Now().UnixNano()) }).Build()
		nodes[i].SetLocal([]float64{float64((i + 1) * 10)})
	}
	// Run several epochs: leaves report, root broadcasts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		nodes[1].Tick()
		nodes[2].Tick()
		nodes[0].Tick()
		g, _, ok := nodes[1].Global()
		g = g.Clone() // Global aliases the node's buffer; the lock is about to go
		mu.Unlock()
		if ok && g.Sum[0] == 60 {
			return // full aggregate visible at a leaf
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("leaf never saw the full global aggregate 60")
}
