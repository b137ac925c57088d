package combining

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vclock"
)

// rig wires a set of combining-tree nodes over a simulated network.
type rig struct {
	clock *vclock.Clock
	net   *simnet.Network
	nodes map[NodeID]*Node
	topo  Topology
}

func newRig(t testing.TB, n, numPrin, fanout int, delay time.Duration) *rig {
	t.Helper()
	r := &rig{
		clock: vclock.New(),
		nodes: make(map[NodeID]*Node),
	}
	r.net = simnet.New(r.clock, delay)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	r.topo = BuildTree(ids, fanout)
	for _, id := range ids {
		id := id
		send := func(to NodeID, msg Message) {
			r.net.Send(simnet.NodeID(id), simnet.NodeID(to), Detach(msg))
		}
		r.nodes[id] = NewBuilder(id).Place(r.topo).Principals(numPrin).
			Transport(send).Clock(r.clock.Now).Build()
		r.net.Handle(simnet.NodeID(id), func(from simnet.NodeID, msg interface{}) {
			r.nodes[id].OnMessage(NodeID(from), msg)
		})
	}
	return r
}

// tickAll runs one epoch leaves-first so a zero-delay network converges in a
// single sweep, mirroring "an intermediate node waits for information from
// its children".
func (r *rig) tickAll() {
	byDepth := make([][]NodeID, 0)
	depth := func(id NodeID) int {
		d := 0
		for r.topo.Parent[id] >= 0 {
			id = r.topo.Parent[id]
			d++
		}
		return d
	}
	maxD := 0
	for id := range r.nodes {
		if d := depth(id); d > maxD {
			maxD = d
		}
	}
	byDepth = make([][]NodeID, maxD+1)
	for id := range r.nodes {
		byDepth[depth(id)] = append(byDepth[depth(id)], id)
	}
	for d := maxD; d >= 0; d-- {
		for _, id := range byDepth[d] {
			r.nodes[id].Tick()
		}
		r.clock.RunFor(0) // drain same-instant deliveries between levels
	}
}

func TestTreeAggregatesSum(t *testing.T) {
	r := newRig(t, 7, 2, 2, 0)
	for i := 0; i < 7; i++ {
		r.nodes[NodeID(i)].SetLocal([]float64{float64(i + 1), 10 * float64(i+1)})
	}
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	for id, n := range r.nodes {
		g, _, ok := n.Global()
		if !ok {
			t.Fatalf("node %d has no global aggregate", id)
		}
		if math.Abs(g.Sum[0]-28) > 1e-9 || math.Abs(g.Sum[1]-280) > 1e-9 {
			t.Fatalf("node %d sum = %v, want [28 280]", id, g.Sum)
		}
		if g.Count != 7 {
			t.Fatalf("node %d count = %d", id, g.Count)
		}
		if g.Max[0] != 7 || g.Min[0] != 1 {
			t.Fatalf("node %d max/min = %v/%v", id, g.Max[0], g.Min[0])
		}
		if math.Abs(g.Avg(0)-4) > 1e-9 {
			t.Fatalf("avg = %g, want 4", g.Avg(0))
		}
		if math.Abs(g.Variance(0)-4) > 1e-9 {
			t.Fatalf("variance = %g, want 4", g.Variance(0))
		}
	}
}

func TestMessageCountPerEpoch(t *testing.T) {
	const n = 16
	r := newRig(t, n, 1, 2, 0)
	r.net.ResetCounters()
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	// The paper's claim: 2(n−1) messages per epoch (n−1 up, n−1 down).
	if r.net.Sent != 2*(n-1) {
		t.Fatalf("tree sent %d messages, want %d", r.net.Sent, 2*(n-1))
	}
}

func TestPairwiseMessageCountAndAgreement(t *testing.T) {
	const n = 8
	clock := vclock.New()
	net := simnet.New(clock, 0)
	peers := make([]NodeID, n)
	for i := range peers {
		peers[i] = NodeID(i)
	}
	nodes := make([]*PairwiseExchanger, n)
	for i := 0; i < n; i++ {
		i := i
		send := func(to NodeID, msg Message) {
			net.Send(simnet.NodeID(i), simnet.NodeID(to), Detach(msg))
		}
		nodes[i] = NewPairwiseExchanger(NodeID(i), peers, 1, send)
		net.Handle(simnet.NodeID(i), func(from simnet.NodeID, msg interface{}) {
			nodes[i].OnMessage(NodeID(from), msg)
		})
		nodes[i].SetLocal([]float64{float64(i)})
	}
	for _, nd := range nodes {
		nd.Tick()
	}
	clock.RunFor(time.Millisecond)
	if net.Sent != n*(n-1) {
		t.Fatalf("pairwise sent %d, want %d", net.Sent, n*(n-1))
	}
	want := float64(n*(n-1)) / 2
	for i, nd := range nodes {
		if g := nd.Global(); math.Abs(g.Sum[0]-want) > 1e-9 {
			t.Fatalf("node %d global = %v, want %g", i, g.Sum, want)
		}
	}
}

func TestDelayLagsGlobalView(t *testing.T) {
	// Two nodes, 10 s one-way delay on every link (the Figure 8 setup):
	// a change at node 1 is invisible at node 1's own global view until the
	// report has travelled up and the broadcast back down.
	r := newRig(t, 2, 1, 2, 10*time.Second)
	r.nodes[0].SetLocal([]float64{5})
	r.nodes[1].SetLocal([]float64{7})

	epoch := r.clock.ScheduleEvery(100*time.Millisecond, func() {
		r.nodes[1].Tick()
		r.nodes[0].Tick()
	})
	defer epoch.Stop()

	r.clock.RunUntil(5 * time.Second)
	if _, _, ok := r.nodes[1].Global(); ok {
		t.Fatal("leaf saw a global aggregate before the round trip completed")
	}
	// Root (node 0) sees its own broadcast immediately but without node 1's
	// report for the first 10 s.
	g, _, ok := r.nodes[0].Global()
	if !ok || g.Sum[0] != 5 {
		t.Fatalf("root early view = %v ok=%v, want only local 5", g.Sum, ok)
	}
	r.clock.RunUntil(25 * time.Second)
	g, _, ok = r.nodes[0].Global()
	if !ok || g.Sum[0] != 12 {
		t.Fatalf("root late view = %v, want 12", g.Sum)
	}
	g1, at, ok := r.nodes[1].Global()
	if !ok || g1.Sum[0] != 12 {
		t.Fatalf("leaf late view = %v, want 12", g1.Sum)
	}
	if at < 10*time.Second {
		t.Fatalf("leaf global timestamp %v implausibly early", at)
	}
}

func TestStaleChildDataPersistsUntilNextReport(t *testing.T) {
	r := newRig(t, 3, 1, 2, 0)
	r.nodes[1].SetLocal([]float64{100})
	r.nodes[2].SetLocal([]float64{50})
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	g, _, _ := r.nodes[0].Global()
	if g.Sum[0] != 150 {
		t.Fatalf("sum = %v", g.Sum)
	}
	// Node 1's queue drains but only node 2 reports this epoch: the root
	// still uses node 1's stale 100 — the lag the paper accepts.
	r.nodes[1].SetLocal([]float64{0})
	r.nodes[2].Tick()
	r.clock.RunFor(0)
	r.nodes[0].Tick()
	r.clock.RunFor(time.Millisecond)
	g, _, _ = r.nodes[0].Global()
	if g.Sum[0] != 150 {
		t.Fatalf("stale view should remain 150, got %v", g.Sum)
	}
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	g, _, _ = r.nodes[0].Global()
	if g.Sum[0] != 50 {
		t.Fatalf("fresh view = %v, want 50", g.Sum)
	}
}

func TestBuildTreeShape(t *testing.T) {
	ids := []NodeID{4, 2, 0, 1, 3}
	topo := BuildTree(ids, 2)
	if topo.Root != 0 {
		t.Fatalf("root = %d", topo.Root)
	}
	if topo.Parent[1] != 0 || topo.Parent[2] != 0 || topo.Parent[3] != 1 || topo.Parent[4] != 1 {
		t.Fatalf("parents = %v", topo.Parent)
	}
	if topo.Depth() != 2 {
		t.Fatalf("depth = %d", topo.Depth())
	}
	if got := BuildTree(nil, 2); got.Root != -1 {
		t.Fatalf("empty tree root = %d", got.Root)
	}
	// Fan-out below 2 is clamped.
	if topo2 := BuildTree(ids, 0); topo2.Parent[2] != 0 {
		t.Fatalf("clamped fanout parents = %v", topo2.Parent)
	}
}

func TestReconfigureDropsStaleChildren(t *testing.T) {
	r := newRig(t, 3, 1, 2, 0)
	r.nodes[1].SetLocal([]float64{100})
	r.nodes[2].SetLocal([]float64{50})
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	// Node 2 fails; rebuild over the survivors and re-place each of them.
	topo2 := BuildTree([]NodeID{0, 1}, 2)
	for _, id := range []NodeID{0, 1} {
		r.nodes[id].Reconfigure(topo2.Parent[id], topo2.Children[id])
	}
	r.topo = topo2
	delete(r.nodes, 2)
	r.tickAll()
	r.clock.RunFor(time.Millisecond)
	g, _, _ := r.nodes[0].Global()
	if g.Sum[0] != 100 || g.Count != 2 {
		t.Fatalf("after failure sum=%v count=%d, want 100/2", g.Sum, g.Count)
	}
}

func TestSingleNodeTree(t *testing.T) {
	r := newRig(t, 1, 1, 2, 0)
	r.nodes[0].SetLocal([]float64{42})
	r.nodes[0].Tick()
	g, _, ok := r.nodes[0].Global()
	if !ok || g.Sum[0] != 42 {
		t.Fatalf("single-node global = %v ok=%v", g.Sum, ok)
	}
	if !r.nodes[0].IsRoot() {
		t.Fatal("single node must be root")
	}
	if !strings.Contains(r.nodes[0].String(), "id=0") {
		t.Fatalf("String() = %q", r.nodes[0].String())
	}
}

func TestSetLocalShorterVectorZeroFills(t *testing.T) {
	n := NewBuilder(0).Principals(3).Transport(func(NodeID, Message) {}).
		Clock(func() time.Duration { return 0 }).Build()
	n.SetLocal([]float64{1, 2, 3})
	n.SetLocal([]float64{9})
	n.Tick()
	g, _, _ := n.Global()
	if g.Sum[0] != 9 || g.Sum[1] != 0 || g.Sum[2] != 0 {
		t.Fatalf("sum = %v", g.Sum)
	}
}

func TestAggregateCombineMismatchedLengths(t *testing.T) {
	a := FromLocal([]float64{1, 2})
	b := FromLocal([]float64{10})
	a.Combine(b)
	if a.Sum[0] != 11 || a.Sum[1] != 2 {
		t.Fatalf("sum = %v", a.Sum)
	}
}

func TestUnknownMessageIgnored(t *testing.T) {
	n := NewBuilder(0).Transport(func(NodeID, Message) {}).
		Clock(func() time.Duration { return 0 }).Build()
	n.OnMessage(5, "garbage")
	if _, _, ok := n.Global(); ok {
		t.Fatal("garbage message produced a global view")
	}
	if _, heard := n.LastHeard(5); heard {
		t.Fatal("garbage message counted as heard")
	}
}

func TestOutOfOrderMessagesIgnored(t *testing.T) {
	n := NewBuilder(0).Children(1).Transport(func(NodeID, Message) {}).
		Clock(func() time.Duration { return 0 }).Build()
	n.OnMessage(1, Report{Epoch: 5, Agg: FromLocal([]float64{50})})
	n.OnMessage(1, Report{Epoch: 3, Agg: FromLocal([]float64{999})}) // reordered
	n.Tick()
	g, _, _ := n.Global()
	if g.Sum[0] != 50 {
		t.Fatalf("stale report overwrote fresher data: %v", g.Sum)
	}

	leaf := NewBuilder(1).Parent(0).Transport(func(NodeID, Message) {}).
		Clock(func() time.Duration { return 0 }).Build()
	leaf.OnMessage(0, Broadcast{Epoch: 9, Agg: FromLocal([]float64{9})})
	leaf.OnMessage(0, Broadcast{Epoch: 2, Agg: FromLocal([]float64{2})})
	g, _, _ = leaf.Global()
	if g.Sum[0] != 9 {
		t.Fatalf("stale broadcast accepted: %v", g.Sum)
	}
}

// TestConfigResentToRestartedChild pins that a broadcast skips the set only
// while the child's last report acknowledges it: a child that restarts
// without a Rejoin reports version 0 in reports the epoch gate drops as
// stale, and the next broadcast carries the set again.
func TestConfigResentToRestartedChild(t *testing.T) {
	var last Broadcast
	root := NewBuilder(0).Children(1).Transport(func(_ NodeID, msg Message) {
		last = *msg.(*Broadcast)
	}).Clock(func() time.Duration { return 0 }).Build()
	cu := &ConfigUpdate{Version: 5, GateEpoch: 2, Payload: []byte("set")}
	root.SetConfig(cu)
	steps := []struct {
		report Report
		want   *ConfigUpdate
	}{
		{Report{Epoch: 1, AckVersion: 0}, cu},  // not yet held
		{Report{Epoch: 9, AckVersion: 5}, nil}, // acknowledged
		{Report{Epoch: 1, AckVersion: 0}, cu},  // restarted, no Rejoin: stale epoch, ack 0
		{Report{Epoch: 2, AckVersion: 5}, nil}, // holds it again
	}
	for i, s := range steps {
		root.OnMessage(1, s.report)
		root.Tick()
		if last.Config != s.want {
			t.Fatalf("step %d: broadcast after %+v carried %v, want %v", i, s.report, last.Config, s.want)
		}
	}
}

// TestDetachOwnsTheValue pins the lend/own boundary: Detach gives the value
// form of each lent message, with an aggregate the sender may overwrite next.
func TestDetachOwnsTheValue(t *testing.T) {
	agg := FromLocal([]float64{1, 2})
	cu := &ConfigUpdate{Version: 3}
	r := Detach(&Report{Epoch: 4, Agg: agg, AckVersion: 2}).(Report)
	b := Detach(&Broadcast{Epoch: 5, Agg: agg, Config: cu}).(Broadcast)
	j := Detach(&Rejoin{Epoch: 6, AckVersion: 1}).(Rejoin)
	agg.Sum[0] = 99
	if r.Epoch != 4 || r.AckVersion != 2 || r.Agg.Sum[0] != 1 {
		t.Fatalf("detached report = %+v", r)
	}
	if b.Epoch != 5 || b.Config != cu || b.Agg.Sum[0] != 1 {
		t.Fatalf("detached broadcast = %+v", b)
	}
	if j != (Rejoin{Epoch: 6, AckVersion: 1}) {
		t.Fatalf("detached rejoin = %+v", j)
	}
	if m := Detach(nil); m != nil {
		t.Fatalf("Detach(nil) = %v", m)
	}
}

func TestLastHeardTracksNeighbors(t *testing.T) {
	at := 7 * time.Second
	n := NewBuilder(0).Children(1).Transport(func(NodeID, Message) {}).
		Clock(func() time.Duration { return at }).Build()
	if _, heard := n.LastHeard(1); heard {
		t.Fatal("unheard neighbor reported heard")
	}
	n.OnMessage(1, Report{Agg: FromLocal([]float64{1})})
	if lh, heard := n.LastHeard(1); !heard || lh != 7*time.Second {
		t.Fatalf("LastHeard = %v,%v", lh, heard)
	}
	if n.ID() != 0 {
		t.Fatal("ID wrong")
	}
}

func BenchmarkTreeEpoch(b *testing.B) {
	r := newRig(b, 31, 4, 2, 0)
	for i := 0; i < 31; i++ {
		r.nodes[NodeID(i)].SetLocal([]float64{1, 2, 3, 4})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.tickAll()
		r.clock.RunFor(time.Millisecond)
	}
}

func TestNodeMessageCountersAndEpochs(t *testing.T) {
	const n = 7
	r := newRig(t, n, 2, 2, 0)
	r.tickAll()
	r.clock.RunFor(time.Millisecond)

	var reports, broadcasts, sent uint64
	for _, nd := range r.nodes {
		ri, bi, so := nd.MessageCounts()
		reports += ri
		broadcasts += bi
		sent += so
		if nd.Epoch() != 1 {
			t.Fatalf("node %d epoch = %d, want 1", nd.ID(), nd.Epoch())
		}
		if nd.GlobalEpoch() != 1 {
			t.Fatalf("node %d global epoch = %d, want 1", nd.ID(), nd.GlobalEpoch())
		}
	}
	// The paper's 2(n−1) bound, now visible per node: n−1 reports up and
	// n−1 broadcasts down, every message counted exactly once on each side.
	if reports != n-1 {
		t.Fatalf("reports in = %d, want %d", reports, n-1)
	}
	if broadcasts != n-1 {
		t.Fatalf("broadcasts in = %d, want %d", broadcasts, n-1)
	}
	if sent != 2*(n-1) {
		t.Fatalf("messages sent = %d, want %d", sent, 2*(n-1))
	}
}

// pipe is an in-memory transport for two nodes driven from one goroutine:
// like treenet, it copies each lent message into a slot it owns and hands the
// receiver the value form.
type pipe struct {
	to     *Node
	from   NodeID
	report Report
	bcast  Broadcast
}

func (p *pipe) send(_ NodeID, msg Message) {
	switch m := msg.(type) {
	case *Report:
		agg := p.report.Agg
		agg.CopyFrom(m.Agg)
		p.report, p.report.Agg = *m, agg
		p.to.OnMessage(p.from, p.report)
	case *Broadcast:
		agg := p.bcast.Agg
		agg.CopyFrom(m.Agg)
		p.bcast, p.bcast.Agg = *m, agg
		p.to.OnMessage(p.from, p.bcast)
	}
}

// TestTickOnMessageAllocs pins the tree path's steady state over a pipe that
// copies and delivers values like a real transport: a leaf report and a root
// broadcast per round allocate nothing. Subtree sums, report slots and the
// global buffer are reused, each message is lent to the SendFunc as a
// pointer to the sender's own Report or Broadcast field, and OnMessage does
// not retain the value it is handed, so the pipe's call boxes it on the
// stack. (A transport that calls a Handler through a func value boxes each
// delivered message once on the heap; see treenet.)
func TestTickOnMessageAllocs(t *testing.T) {
	const numPrin = 48
	now := func() time.Duration { return 0 }
	toLeaf, toRoot := &pipe{from: 0}, &pipe{from: 1}
	root := NewBuilder(0).Children(1).Principals(numPrin).Clock(now).Metrics(NewHopMetrics()).
		Transport(toLeaf.send).Build()
	leaf := NewBuilder(1).Parent(0).Principals(numPrin).Clock(now).Metrics(NewHopMetrics()).
		Transport(toRoot.send).Build()
	toLeaf.to, toRoot.to = leaf, root
	root.SetConfig(&ConfigUpdate{Version: 1, Payload: []byte("set")})
	local := make([]float64, numPrin)
	round := func() {
		local[3]++
		leaf.SetLocal(local)
		leaf.Tick()
		root.Tick()
	}
	round()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("a round of a report and a broadcast allocates %v times, want 0", got)
	}
	g, _, ok := leaf.Global()
	if !ok || g.Sum[3] != local[3] || g.Count != 2 {
		t.Fatalf("leaf global = %v (count %d), want sum[3] = %g from 2 nodes", g.Sum[3], g.Count, local[3])
	}
}
