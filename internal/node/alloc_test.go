package node

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

// memNet is an in-memory tree transport for a fleet driven from one
// goroutine: Send copies the lent message into a recycled slot (it is only
// valid until Send returns) and deliver hands the queued messages to their
// receivers' members in order, as values.
type memNet struct {
	nodes []*Node
	queue []memMsg
	head  int
}

type memMsg struct {
	to, from combining.NodeID
	kind     byte // 'r' report, 'b' broadcast
	report   combining.Report
	bcast    combining.Broadcast
}

func (m *memNet) sender(from combining.NodeID) func(int) combining.SendFunc {
	return func(int) combining.SendFunc {
		return func(to combining.NodeID, msg combining.Message) {
			if len(m.queue) == cap(m.queue) {
				m.queue = append(m.queue, memMsg{})
			} else {
				m.queue = m.queue[:len(m.queue)+1]
			}
			slot := &m.queue[len(m.queue)-1]
			slot.to, slot.from = to, from
			switch v := msg.(type) {
			case *combining.Report:
				agg := slot.report.Agg
				agg.CopyFrom(v.Agg)
				slot.kind, slot.report = 'r', *v
				slot.report.Agg = agg
			case *combining.Broadcast:
				agg := slot.bcast.Agg
				agg.CopyFrom(v.Agg)
				slot.kind, slot.bcast = 'b', *v
				slot.bcast.Agg = agg
			default:
				panic(fmt.Sprintf("memNet: unexpected %T", msg))
			}
		}
	}
}

func (m *memNet) deliver() {
	for ; m.head < len(m.queue); m.head++ {
		msg := &m.queue[m.head]
		if msg.kind == 'r' {
			m.nodes[msg.to].m.OnMessage(0, msg.from, msg.report)
		} else {
			m.nodes[msg.to].m.OnMessage(0, msg.from, msg.bcast)
		}
	}
	m.queue, m.head = m.queue[:0], 0
}

// TestWindowCycleAllocBudget runs the window plane of an 8-node fleet — each
// node a Member with its own 12-principal engine, admission plane, durable
// store and tree node, wired by memNet in a binary tree, under a Node that
// runs its boundary — through back-to-back cycles with
// demand that moves every window (the plan cache never hits), and fails when
// a cycle allocates more than budget times per node-window.
//
// Inside the system a boundary allocates nothing: scheduling
// (core.TestWindowBoundaryAllocs), the pool flip
// (admission.TestStartWindowAllocs), the durable append
// (persist.TestAppendWindowAllocs) and the tree's messages
// (combining.TestTickOnMessageAllocs) are pinned at zero, so the cycle is
// too. A combining node lends each Report and Broadcast to its SendFunc as a
// pointer to a field it reuses, and memNet delivers the copied value through
// direct calls that do not let it escape. What a real transport adds is one
// delivery box per message: treenet hands each decoded value to its Handler
// through a func value, which boxes it on the heap
// (treenet.TestReportRoundTripAllocs) — 14 per 8-node cycle.
func TestWindowCycleAllocBudget(t *testing.T) {
	const (
		nodes      = 8
		principals = 12
		budget     = 0.0 // allocations per node-window
	)
	ids := make([]combining.NodeID, nodes)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	topo := combining.BuildTree(ids, 2)
	net := &memNet{}
	for i := 0; i < nodes; i++ {
		s := agreement.New()
		ps := make([]agreement.Principal, principals)
		for p := range ps {
			ps[p] = s.MustAddPrincipal(fmt.Sprintf("P%d", p), 320)
		}
		for p := range ps {
			s.MustSetAgreement(ps[p], ps[(p+1)%principals], 0.3, 0.6)
		}
		eng, err := core.NewEngine(core.Config{
			Mode: core.Community, System: s, Window: 50 * time.Millisecond,
			NumRedirectors: nodes, Logger: obs.Nop(),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := persist.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg := Config{Layer: "test", Engine: eng, ID: i, Persist: st, AdmissionShards: 2}
		n := &Node{cfg: cfg, start: time.Now()}
		id := combining.NodeID(i)
		n.m, err = NewMember(cfg, &Placement{ID: id, Parent: topo.Parent[id], Children: topo.Children[id]},
			net.sender(id), n.elapsed, nil)
		if err != nil {
			t.Fatal(err)
		}
		net.nodes = append(net.nodes, n)
	}

	arrivals := make([]float64, principals)
	cycle := 0
	runCycle := func() {
		cycle++
		// Leaves first, root last: the order in which a fleet's reports can
		// reach the root within one epoch.
		for i := nodes - 1; i >= 0; i-- {
			n := net.nodes[i]
			for p := range arrivals {
				arrivals[p] = 4 + float64((cycle*5+i*3+p*7)%19) + float64(cycle)/512
			}
			n.m.mu.Lock()
			n.m.red.AddWindowSample(arrivals, nil, 0, 0)
			n.m.mu.Unlock()
			if err := n.boundary(); err != nil {
				t.Fatal(err)
			}
			net.deliver()
		}
	}
	// Warm-up: every plan cache ring turns over, every pool and buffer has
	// been through a window.
	for i := 0; i < 40; i++ {
		runCycle()
	}
	root := net.nodes[0]
	solvesBefore := root.cfg.Engine.Stats().Solves()
	cyclesBefore := cycle
	perCycle := testing.AllocsPerRun(50, runCycle)
	if _, _, ok := root.m.tree.ComponentGlobal(0); !ok || root.cfg.Engine.Stats().Solves()-solvesBefore < int64(cycle-cyclesBefore) {
		t.Fatalf("the fleet is not exchanging aggregates and solving every window")
	}
	if perNodeWindow := perCycle / nodes; perNodeWindow > budget {
		t.Fatalf("%.1f allocations per 8-node cycle = %.2f per node-window, budget %.1f", perCycle, perNodeWindow, budget)
	} else {
		t.Logf("%.1f allocations per 8-node cycle = %.2f per node-window (budget %.1f)", perCycle, perNodeWindow, budget)
	}
}
