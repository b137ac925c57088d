package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/topology"
	"repro/internal/treenet"
)

// windowSpec describes one window-plane workload. There are no request-side
// sockets: a benchmark-owned driver runs the redirectors' window loop, in
// its exact per-node order, over a fleet wired by real treenet transports on
// loopback, with demand injected through Plane.Admit. Virtual time advances
// one window per cycle and cycles run back to back, so the fleet is always
// at its window boundary and the boundary's cost is all there is to see.
type windowSpec struct {
	// reconfig selects the write side: constant demand (the plan cache
	// stays hot), a control-plane mutation every mutateEvery cycles on a
	// 48-node budget tree, and a leaf crash every crashEvery cycles. Without
	// it demand follows a seeded random walk that defeats the plan cache.
	reconfig bool
}

// rssCycles is how many measured cycles peak_rss_mb covers. The engines'
// plan caches hold every distinct demand vector they have seen, up to 4096,
// and window_churn shows them a new one every cycle, so its resident set
// grows by some 25 KB per cycle for as long as a run lasts; read at the end
// of the run it would follow how many cycles the machine got through. Both
// counts are what a run reaches in about half its 20 s.
func (s windowSpec) rssCycles() int {
	if s.reconfig {
		return 4000
	}
	return 800
}

const (
	windowNodes        = 8
	windowLen          = 50 * time.Millisecond
	windowWarmupCycles = 200
	churnPrincipals    = 12
	budgetNodes        = 48
	// checkpointEvery matches the front-ends' persistCheckpointEvery: the
	// record log is compacted every this-many appends.
	checkpointEvery = 256
	mutateEvery     = 25
	// crashEvery is half the issue's 300: at 360 cycles/s a 20 s run would
	// otherwise see a dozen recoveries, too few to print a median of.
	crashEvery = 150
	// crashDownCycles is how long a crashed leaf stays down. Its parent's
	// first broadcast into the dead connection is lost silently and the
	// second fails, so by the restart the parent has dropped the stale
	// connection and the rejoin reply goes out on a fresh dial.
	crashDownCycles = 2
	waitTimeout     = 2 * time.Second
	// rejoinRetry is how long a restarted leaf waits for its parent's reply
	// before announcing again. A reply that is coming arrives well inside a
	// millisecond; the first one never does (see recover).
	rejoinRetry = 2 * time.Millisecond
)

// event is a tree message a node's handler has finished processing.
type event struct {
	broadcast bool
	node      combining.NodeID // receiver
	from      combining.NodeID
	epoch     int
}

// wnode is one enforcement node as a redirector process would hold it: its
// own engine, window scheduler, admission plane, tree node, transport and
// durable store.
type wnode struct {
	id       combining.NodeID
	level    int
	parent   combining.NodeID
	children []combining.NodeID
	dir      string
	down     bool

	mu    sync.Mutex // the redirectors' r.mu: window loop vs transport goroutines
	eng   *core.Engine
	red   *core.Redirector
	adm   *admission.Plane
	tree  *combining.Node
	tr    *treenet.Transport
	store *persist.Store
	obsv  *obs.Observer

	est     []float64
	pm      [][]float64
	pt, pe  []float64
	appends int
	lastSeq int // WindowSeq of the newest append
}

// wfleet is the driver's view of the fleet.
type wfleet struct {
	spec   windowSpec
	traced atomic.Bool // read on transport goroutines
	root   string      // store root directory
	plane  *topology.Plane
	nodes  []*wnode
	levels [][]*wnode // deepest first, root last
	ctrl   *ctrlplane.Plane
	names  []string // principal names, budget tree order
	now    atomic.Int64
	events chan event
	cycleN int
	rnd    rng

	demand  [][]int // [node][principal] Admit calls per cycle
	users   []int   // principals that offer demand
	served  []float64
	floorOK []float64 // Σ min(offered, MC) per principal
	capUsed float64   // Σ min(total offered, capacity) over cycles

	// Timings taken on transport goroutines and outside cycles.
	asyncMu sync.Mutex
	async   map[string]*samples

	admitNs, rejectNs float64
	admitN, rejectN   float64
	round             samples
	bytesAppended     int64
	checkpoints       int

	// Counters carried over from the engines, auditors and transports a
	// crash discarded.
	lostAudit                      auditTotals
	lostTree                       treenet.Stats
	lostHits, lostMisses, lostSolv int64
	lostSolveNs                    float64
	lostFallbacks                  int64

	mutations   int
	toggled     map[int]bool
	lease       budget.LeaseID
	pending     *pendingMutation
	commit      samples
	rolloutWins []float64 // cycles from mutation call to fleet-wide commit
	downNode    *wnode
	downSince   int
	recoverLat  samples
	rejoinRnds  []float64 // announcements a restarted leaf needed
	failures    []string
	failed      int
	buildSetup  map[string]float64 // compile timings of the last boot, ms
}

type pendingMutation struct {
	at      time.Time
	version uint64
	cycle   int
}

func (f *wfleet) observe(name string, d time.Duration) {
	f.asyncMu.Lock()
	s := f.async[name]
	if s == nil {
		s = &samples{}
		f.async[name] = s
	}
	s.add(d)
	f.asyncMu.Unlock()
}

func (f *wfleet) fail(format string, args ...any) {
	f.asyncMu.Lock() // transport goroutines report failures too
	defer f.asyncMu.Unlock()
	f.failed++
	if len(f.failures) < 8 {
		f.failures = append(f.failures, fmt.Sprintf(format, args...))
	}
}

// budgetSpec is a 48-node tree, three children per node breadth first, every
// child holding a 0.3 floor of its parent: enough depth that a renegotiated
// edge refolds a real subtree.
func budgetSpec() (budget.Spec, []string) {
	names := make([]string, budgetNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	var build func(i int) budget.Node
	build = func(i int) budget.Node {
		n := budget.Node{Name: names[i], Floor: 0.3, Ceil: 1}
		for c := 3*i + 1; c <= 3*i+3 && c < budgetNodes; c++ {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	root := build(0)
	root.Floor, root.Ceil, root.Capacity = 0, 0, 20000
	return budget.Spec{Roots: []budget.Node{root}}, names
}

// newEngine builds one node's engine. Every node compiles its own system,
// as separate processes loading the same scenario would.
func (f *wfleet) newEngine() (*core.Engine, error) {
	cfg := core.Config{Window: windowLen, NumRedirectors: windowNodes, Logger: quietLog}
	if f.spec.reconfig {
		spec, _ := budgetSpec()
		t0 := time.Now()
		sys, err := budget.Compile(spec)
		if err != nil {
			return nil, err
		}
		f.buildSetup["budget.compile_ms"] = float64(time.Since(t0)) / 1e6
		root, _ := sys.Lookup("n00")
		cfg.Mode, cfg.System, cfg.ProviderPrincipal = core.Provider, sys, root
	} else {
		// Twelve peers, each owning 2000 req/s and granting slices to two
		// others: one connected agreement component, so one LP covers it.
		sys := agreement.New()
		ps := make([]agreement.Principal, churnPrincipals)
		for i := range ps {
			ps[i] = sys.MustAddPrincipal(fmt.Sprintf("P%02d", i), 2000)
		}
		for i := range ps {
			sys.MustSetAgreement(ps[i], ps[(i+1)%churnPrincipals], 0.2, 0.5)
			sys.MustSetAgreement(ps[i], ps[(i+5)%churnPrincipals], 0.1, 0.3)
		}
		cfg.Mode, cfg.System = core.Community, sys
	}
	return core.NewEngine(cfg)
}

// bootWindowFleet compiles the topology, builds the eight nodes and wires
// their transports.
func bootWindowFleet(spec windowSpec, seed uint64, root string) (*wfleet, error) {
	f := &wfleet{
		spec: spec, root: root,
		events: make(chan event, 4*windowNodes), // a cycle's messages, with room for a rejoin reply
		async:  map[string]*samples{}, toggled: map[int]bool{},
		rnd: rng{state: seed}, buildSetup: map[string]float64{},
	}
	tspec := topology.Spec{
		Regions: []topology.Region{
			{Name: "region-0", Members: []int{0, 1, 2, 3}},
			{Name: "region-1", Members: []int{4, 5, 6, 7}},
		},
		Fanout: 2,
		// Demand counts are whole requests per window, so half a request
		// separates "moved" from "still".
		Delta: topology.DeltaSpec{Threshold: 0.5, ResyncEvery: 16},
	}
	t0 := time.Now()
	plane, err := topology.Compile(tspec)
	if err != nil {
		return nil, err
	}
	f.buildSetup["topology.compile_ms"] = float64(time.Since(t0)) / 1e6
	f.plane = plane
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < windowNodes; i++ {
		pl, _ := plane.Placement(combining.NodeID(i))
		n := &wnode{
			id: pl.ID, level: pl.Level, parent: pl.Parent, children: pl.Children,
			dir: filepath.Join(root, fmt.Sprintf("r%d", i)),
		}
		if err := f.start(n, nil); err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if n.parent >= 0 {
			n.tr.SetPeer(n.parent, f.nodes[n.parent].tr.Addr())
		}
		for _, c := range n.children {
			n.tr.SetPeer(c, f.nodes[c].tr.Addr())
		}
	}
	byLevel := map[int][]*wnode{}
	for _, n := range f.nodes {
		byLevel[n.level] = append(byLevel[n.level], n)
	}
	for l := plane.Levels() - 1; l >= 0; l-- {
		f.levels = append(f.levels, byLevel[l])
	}

	rootNode := f.nodes[plane.Root()]
	np := rootNode.eng.NumPrincipals()
	f.served, f.floorOK = make([]float64, np), make([]float64, np)
	if spec.reconfig {
		_, f.names = budgetSpec()
		for p := 1; p < np; p++ {
			f.users = append(f.users, p)
		}
		store, tree := rootNode.store, rootNode.tree
		f.ctrl, err = ctrlplane.New(rootNode.eng.System(), rootNode.eng, ctrlplane.Options{
			Logger: quietLog,
			Epoch:  tree.Epoch,
			Publish: func(set *agreement.Set, gate int) {
				// Durable before distributed, as the front-ends do it.
				t0 := time.Now()
				if err := store.SaveSet(set); err != nil {
					f.fail("root SaveSet v%d: %v", set.Version, err)
				}
				t1 := time.Now()
				data, err := set.Encode()
				t2 := time.Now()
				if err != nil {
					f.fail("encode set v%d: %v", set.Version, err)
					return
				}
				f.observe("persist.save_set", t1.Sub(t0))
				f.observe("agreement.encode", t2.Sub(t1))
				rootNode.mu.Lock()
				tree.SetConfig(&combining.ConfigUpdate{Version: set.Version, GateEpoch: gate, Payload: data})
				rootNode.mu.Unlock()
			},
			SaveLeases: func(t *budget.Table) {
				if err := store.SaveLeases(t); err != nil {
					f.fail("SaveLeases v%d: %v", t.Version, err)
				}
			},
		})
		if err != nil {
			f.close()
			return nil, err
		}
	} else {
		for p := 0; p < np; p++ {
			f.users = append(f.users, p)
		}
	}
	// Seeded demand: per (node, principal) Admit calls per cycle. Totals
	// sit a little above capacity so some demand is always refused.
	f.demand = make([][]int, windowNodes)
	for i := range f.demand {
		f.demand[i] = make([]int, np)
		for _, p := range f.users {
			if spec.reconfig {
				f.demand[i][p] = 2 + f.rnd.intn(3) // 47 × 8 × 3 ≈ 1130 vs 1000 per window
			} else {
				f.demand[i][p] = 10 + f.rnd.intn(9) // 12 × 8 × 14 ≈ 1340 vs 1200 per window
			}
		}
	}
	return f, nil
}

// start (re)builds a node's volatile and durable state. With ws set it is a
// restart: the window position, credit and estimate come from the store.
func (f *wfleet) start(n *wnode, ws *persist.WindowState) error {
	var err error
	if n.store == nil {
		if n.store, err = persist.Open(n.dir); err != nil {
			return err
		}
	}
	if n.eng, err = f.newEngine(); err != nil {
		return err
	}
	var cu *combining.ConfigUpdate
	if ws != nil {
		set, err := n.store.LoadNewestSet()
		if err != nil {
			return err
		}
		if set != nil {
			if _, err := n.eng.StageSet(set, 0); err != nil {
				return err
			}
			if data, err := set.Encode(); err == nil {
				cu = &combining.ConfigUpdate{Version: set.Version, GateEpoch: ws.Gate, Payload: data}
			}
		}
	}
	n.red = n.eng.NewRedirector(int(n.id))
	if ws != nil {
		t0 := time.Now()
		n.red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
		f.observe("core.restore_state", time.Since(t0))
		n.red.SetRollout(ws.Epoch, ws.SetVersion)
	}
	if n.adm, err = admission.New(admission.Config{Redirector: n.red, Engine: n.eng}); err != nil {
		return err
	}
	n.obsv = n.eng.NewObserver(int(n.id), nil, 0)
	n.red.SetObserver(n.obsv)
	np := n.eng.NumPrincipals()
	n.pt, n.pm = make([]float64, np), make([][]float64, np)
	for i := range n.pm {
		n.pm[i] = make([]float64, np)
	}
	if n.tr, err = treenet.Listen(n.id, "127.0.0.1:0", func(_ int, from combining.NodeID, msg interface{}) {
		f.onTree(n, from, msg)
	}); err != nil {
		return err
	}
	d := f.plane.Spec().Delta
	n.tr.EnableDelta(d.Threshold, d.ResyncEvery)
	n.tree = combining.NewBuilder(n.id).Parent(n.parent).Children(n.children...).
		Principals(np).Transport(n.tr.Send).
		Clock(func() time.Duration { return time.Duration(f.now.Load()) }).Build()
	if ws != nil {
		n.tree.Reset(ws.Epoch, cu)
		n.tree.Reconfigure(n.parent, n.children)
	}
	store, eng := n.store, n.eng
	n.tree.SetConfigHandler(func(cu *combining.ConfigUpdate) {
		// What the front-ends do on a delivered set: decode, stage behind
		// the sender's gate, make durable. Runs under n.mu on the
		// transport goroutine.
		t0 := time.Now()
		set, err := agreement.DecodeSet(cu.Payload)
		t1 := time.Now()
		if err != nil {
			f.fail("node %d decode set v%d: %v", n.id, cu.Version, err)
			return
		}
		if _, err := eng.StageSet(set, cu.GateEpoch); err != nil {
			f.fail("node %d stage set v%d: %v", n.id, cu.Version, err)
			return
		}
		t2 := time.Now()
		if err := store.SaveSet(set); err != nil {
			f.fail("node %d SaveSet v%d: %v", n.id, cu.Version, err)
		}
		f.observe("agreement.decode", t1.Sub(t0))
		f.observe("core.stage_set", t2.Sub(t1))
		f.observe("persist.save_set", time.Since(t2))
	})
	return nil
}

// onTree is the redirectors' onTreeMessage: feed the tree node, and on a
// broadcast publish the global aggregate to the scheduler and pre-solve the
// plan the next boundary will need.
func (f *wfleet) onTree(n *wnode, from combining.NodeID, msg interface{}) {
	ev := event{node: n.id, from: from}
	n.mu.Lock()
	n.tree.OnMessage(from, msg)
	switch m := msg.(type) {
	case combining.Broadcast:
		ev.broadcast, ev.epoch = true, m.Epoch
		n.pushGlobal()
		if f.traced.Load() {
			t0 := time.Now()
			n.red.Presolve(time.Duration(f.now.Load()))
			f.observe("core.presolve", time.Since(t0))
		} else {
			n.red.Presolve(time.Duration(f.now.Load()))
		}
	case combining.Report:
		ev.epoch = m.Epoch
	default:
		n.mu.Unlock()
		return // a rejoin is answered by the tree node itself
	}
	n.mu.Unlock()
	f.events <- ev
}

func (n *wnode) pushGlobal() {
	if agg, at, ok := n.tree.Global(); ok {
		n.red.SetGlobal(agg.Sum, at)
	}
}

// await drains events until want(ev) has been true `count` times, or fails
// after d.
func (f *wfleet) await(d time.Duration, count int, want func(event) bool) error {
	timeout := time.NewTimer(d)
	defer timeout.Stop()
	for count > 0 {
		select {
		case ev := <-f.events:
			if want(ev) {
				count--
			}
		case <-timeout.C:
			return fmt.Errorf("timed out waiting for %d tree messages in cycle %d", count, f.cycleN)
		}
	}
	return nil
}

// step is one node's window boundary, in the order of the redirectors'
// windowLoop: local estimate, tree tick, rollout view, StartWindow, durable
// append.
func (f *wfleet) step(n *wnode, now time.Duration, log *spanLog, parent int64) {
	id := log.newID()
	t0 := time.Now()
	n.mu.Lock()
	n.est = n.red.LocalEstimateInto(n.est)
	t1 := time.Now()
	n.tree.SetLocal(n.est)
	n.tree.Tick()
	if n.parent < 0 {
		n.pushGlobal()
	}
	t2 := time.Now()
	epoch := n.tree.Epoch()
	if ge := n.tree.GlobalEpoch(); ge > epoch {
		epoch = ge
	}
	var known uint64
	var gate int
	if cu := n.tree.Config(); cu != nil {
		known, gate = cu.Version, cu.GateEpoch
	}
	n.red.SetRollout(epoch, known)
	t3 := time.Now()
	if err := n.adm.StartWindow(now); err != nil {
		f.fail("node %d StartWindow: %v", n.id, err)
	}
	t4 := time.Now()
	f.persist(n, epoch, known, gate, log, id)
	n.mu.Unlock()
	log.add("core.local_estimate", id, t0, t1)
	log.add("combining.tick", id, t1, t2)
	log.add("admission.start_window", id, t3, t4)
	log.put(id, "node.step", parent, t0, time.Now())
}

// persist appends the just-started window's durable record, compacting the
// log every checkpointEvery appends (the front-ends' persistWindowLocked).
func (f *wfleet) persist(n *wnode, epoch int, known uint64, gate int, log *spanLog, parent int64) {
	t0 := time.Now()
	n.red.ExportCredits(n.pm, n.pt)
	n.pe = n.red.ExportEstimate(n.pe)
	ws := persist.WindowState{
		WindowSeq: n.red.Windows, Epoch: epoch, SetVersion: known, Gate: gate, Estimate: n.pe,
	}
	if n.eng.Mode() == core.Provider {
		ws.CreditTotal = n.pt
	} else {
		ws.Credit = n.pm
	}
	if err := n.store.AppendWindow(ws); err != nil {
		f.fail("node %d AppendWindow: %v", n.id, err)
		return
	}
	n.lastSeq = ws.WindowSeq
	n.appends++
	t1 := time.Now()
	log.add("persist.append", parent, t0, t1)
	if n.appends%checkpointEvery == 0 {
		// The log holds the appends since the last compaction.
		if fi, err := os.Stat(filepath.Join(n.dir, "wal")); err == nil {
			f.bytesAppended += fi.Size()
			f.checkpoints++
		}
		if err := n.store.Checkpoint(); err != nil {
			f.fail("node %d Checkpoint: %v", n.id, err)
		}
		log.add("persist.checkpoint", parent, t1, time.Now())
	}
}

// inject offers one window's demand at node n through Plane.Admit.
func (f *wfleet) inject(n *wnode, log *spanLog, parent int64) {
	t0 := time.Now()
	traced := f.traced.Load()
	for _, p := range f.users {
		k := f.demand[n.id][p]
		if k == 0 {
			continue
		}
		var bt time.Time
		if traced {
			bt = time.Now()
		}
		admitted := 0
		for j := 0; j < k; j++ {
			if n.adm.Admit(agreement.Principal(p)).Admitted {
				admitted++
			}
		}
		if traced {
			// A batch that resolved one way times that path alone.
			d := float64(time.Since(bt))
			switch admitted {
			case k:
				f.admitNs, f.admitN = f.admitNs+d, f.admitN+float64(k)
			case 0:
				f.rejectNs, f.rejectN = f.rejectNs+d, f.rejectN+float64(k)
			}
		}
		f.served[p] += float64(admitted)
	}
	log.add("admission.admit", parent, t0, time.Now())
}

// walk moves the churn workload's demand: every (node, principal) count
// steps by a whole request or more each cycle, far beyond the plan cache's
// quantum, so no window's global vector repeats.
func (f *wfleet) walk() {
	for i := range f.demand {
		for _, p := range f.users {
			d := f.demand[i][p] + f.rnd.intn(7) - 3
			if d == f.demand[i][p] {
				d++
			}
			if d < 4 {
				d = 4 + f.rnd.intn(3)
			}
			if d > 24 {
				d = 24 - f.rnd.intn(3)
			}
			f.demand[i][p] = d
		}
	}
}

// cycle runs one full fleet cycle and returns how long it took.
func (f *wfleet) cycle(log *spanLog) (time.Duration, error) {
	if !f.spec.reconfig {
		f.walk()
	}
	f.cycleN++
	now := time.Duration(f.cycleN) * windowLen
	f.now.Store(int64(now))
	f.accountEntitlements()

	id := log.newID()
	t0 := time.Now()
	for _, n := range f.nodes {
		if !n.down {
			f.inject(n, log, id)
		}
	}
	roundStart := time.Now()
	for li, level := range f.levels {
		sent := 0
		for _, n := range level {
			if !n.down {
				f.step(n, now, log, id)
				sent++
			}
		}
		if li == len(f.levels)-1 {
			break // the root reports to nobody
		}
		w0 := time.Now()
		lvl := level[0].level
		if err := f.await(waitTimeout, sent, func(ev event) bool {
			return !ev.broadcast && f.nodes[ev.from].level == lvl
		}); err != nil {
			return 0, err
		}
		log.add("treenet.up_wait", id, w0, time.Now())
	}
	w0 := time.Now()
	rootEpoch := f.nodes[f.plane.Root()].tree.Epoch()
	live := 0
	for _, n := range f.nodes {
		if !n.down && n.parent >= 0 {
			live++
		}
	}
	if err := f.await(waitTimeout, live, func(ev event) bool { return ev.broadcast && ev.epoch == rootEpoch }); err != nil {
		return 0, err
	}
	t1 := time.Now()
	log.add("treenet.down_wait", id, w0, t1)
	log.put(id, "cycle", 0, t0, t1)
	f.round.add(t1.Sub(roundStart))
	return t1.Sub(t0), nil
}

// accountEntitlements adds this cycle's servable demand and floors, read
// from the root's current entitlements (they move with every mutation).
func (f *wfleet) accountEntitlements() {
	rootEng := f.nodes[f.plane.Root()].eng
	mc := rootEng.Access().MC
	var offered, capacity float64
	for _, c := range rootEng.Capacities() {
		capacity += c * windowLen.Seconds()
	}
	for _, p := range f.users {
		var d float64
		for _, n := range f.nodes {
			if !n.down {
				d += float64(f.demand[n.id][p])
			}
		}
		offered += d
		if d > mc[p] {
			d = mc[p]
		}
		f.floorOK[p] += d
	}
	if offered > capacity {
		offered = capacity
	}
	f.capUsed += offered
}

// resetAccounting drops everything the warm-up accumulated.
func (f *wfleet) resetAccounting() {
	for i := range f.served {
		f.served[i], f.floorOK[i] = 0, 0
	}
	f.capUsed = 0
	f.round = samples{}
	f.admitNs, f.admitN, f.rejectNs, f.rejectN = 0, 0, 0, 0
	f.bytesAppended, f.checkpoints = 0, 0
	f.asyncMu.Lock()
	f.async = map[string]*samples{}
	f.asyncMu.Unlock()
}

// mutate issues the next control-plane mutation: a renegotiated tree edge,
// and every tenth time a lease grant or its revocation.
func (f *wfleet) mutate() {
	k := f.mutations
	f.mutations++
	t0 := time.Now()
	var err error
	name := "ctrlplane.mutate"
	if k%10 == 9 {
		if f.lease == 0 {
			var ls budget.Lease
			name = "ctrlplane.lease_grant"
			if ls, err = f.ctrl.GrantLease(f.names[0], f.names[budgetNodes-1], 200, 0); err == nil {
				f.lease = ls.ID
			}
		} else {
			_, err = f.ctrl.RevokeLease(f.lease)
			f.lease = 0
		}
	} else {
		child := 1 + f.rnd.intn(budgetNodes-1)
		floor := 0.27
		if f.toggled[child] {
			floor = 0.3
		}
		f.toggled[child] = !f.toggled[child]
		_, err = f.ctrl.SetAgreement(f.names[(child-1)/3], f.names[child], floor, 1)
	}
	if err != nil {
		f.fail("mutation %d: %v", k, err)
		return
	}
	f.observe(name, time.Since(t0))
	f.pending = &pendingMutation{at: t0, version: f.ctrl.Version(), cycle: f.cycleN}
}

// checkCommit closes a pending mutation once every node's engine has
// promoted it, and verifies the fleet agrees on the set version.
func (f *wfleet) checkCommit() {
	pm := f.pending
	for _, n := range f.nodes {
		if info := n.eng.Rollout(); info.SetVersion < pm.version || info.Staged != 0 {
			if f.cycleN-pm.cycle > 50 {
				f.fail("set v%d not committed on node %d after 50 cycles (%+v)", pm.version, n.id, info)
				f.pending = nil
			}
			return
		}
	}
	for _, n := range f.nodes {
		if v := n.eng.LastSetVersion(); v != pm.version {
			f.fail("after rollout of set v%d node %d holds v%d", pm.version, n.id, v)
		}
	}
	f.commit.add(time.Since(pm.at))
	f.rolloutWins = append(f.rolloutWins, float64(f.cycleN-pm.cycle))
	f.pending = nil
}

// crash kills a seeded leaf with kill -9 semantics: transport and store
// handles go away, nothing is checkpointed, all volatile state is dropped.
func (f *wfleet) crash() {
	var leaves []*wnode
	for _, n := range f.nodes {
		if len(n.children) == 0 {
			leaves = append(leaves, n)
		}
	}
	n := leaves[f.rnd.intn(len(leaves))]
	t0 := time.Now()
	_ = f.plane.Remove(n.id) // what a failure detector would compute; not applied
	f.observe("topology.remove", time.Since(t0))
	f.retire(n)
	_ = n.tr.Close()
	_ = n.store.Close()
	n.store, n.down = nil, true
	f.downNode, f.downSince = n, f.cycleN
}

// retire folds a discarded node's counters into the fleet totals.
func (f *wfleet) retire(n *wnode) {
	f.lostAudit.add(n.obsv.Auditor())
	st := n.eng.Stats()
	f.lostHits += st.CacheHits()
	f.lostMisses += st.CacheMisses()
	f.lostSolv += st.Solves()
	f.lostSolveNs += float64(st.MeanSolve()) * float64(st.Solves())
	f.lostFallbacks += st.FloorFallbacks()
	addTreeStats(&f.lostTree, n.tr.Stats())
}

// recover restarts the crashed leaf from its store and times it: reopen,
// restore, rejoin the tree, and admit on restored credit under a global
// aggregate newer than the crash.
func (f *wfleet) recover() {
	n := f.downNode
	f.downNode = nil
	lastSeq := n.lastSeq
	t0 := time.Now()
	store, err := persist.Open(n.dir)
	t1 := time.Now()
	if err != nil {
		f.fail("reopen node %d: %v", n.id, err)
		return
	}
	n.store = store
	ws, ok := store.LastWindow()
	if !ok || lastSeq-ws.WindowSeq > 1 || ws.WindowSeq > lastSeq {
		f.fail("node %d recovered window %d (found %v), last append was %d", n.id, ws.WindowSeq, ok, lastSeq)
	}
	if err := f.start(n, &ws); err != nil {
		f.fail("restart node %d: %v", n.id, err)
		return
	}
	parent := f.nodes[n.parent]
	n.tr.SetPeer(n.parent, parent.tr.Addr())
	parent.tr.SetPeer(n.id, n.tr.Addr())
	n.down = false
	// The parent's first reply is encoded as a delta frame against the stream
	// state of the dead process before its writer redials and resets that
	// state, so the fresh decoder here drops it as a desync; the second
	// announcement is answered with a full frame. rejoin_rounds counts this.
	rounds := 0
	for {
		rounds++
		n.tree.AnnounceRejoin()
		if err := f.await(rejoinRetry, 1, func(ev event) bool { return ev.broadcast && ev.node == n.id }); err == nil {
			break
		}
		if rounds == 50 {
			f.fail("node %d heard no rejoin reply in %d announcements", n.id, rounds)
			return
		}
	}
	n.mu.Lock()
	epoch := n.tree.Epoch()
	if ge := n.tree.GlobalEpoch(); ge > epoch {
		epoch = ge
	}
	var known uint64
	if cu := n.tree.Config(); cu != nil {
		known = cu.Version
	}
	n.red.SetRollout(epoch, known)
	err = n.adm.StartWindow(time.Duration(f.now.Load()))
	fresh := n.red.HasGlobal()
	n.mu.Unlock()
	admitted := false
	for _, p := range f.users {
		if n.adm.Admit(agreement.Principal(p)).Admitted {
			admitted = true
			break
		}
	}
	if err != nil || !fresh || !admitted {
		f.fail("node %d after recovery: StartWindow err %v, global %v, admits %v", n.id, err, fresh, admitted)
	}
	f.recoverLat.add(time.Since(t0))
	f.observe("persist.open_recover", t1.Sub(t0))
	f.rejoinRnds = append(f.rejoinRnds, float64(rounds))
}

// between runs whatever the workload schedules between two cycles.
func (f *wfleet) between() {
	if !f.spec.reconfig {
		return
	}
	if f.pending != nil {
		f.checkCommit()
	}
	switch {
	case f.downNode != nil && f.cycleN-f.downSince >= crashDownCycles:
		f.recover()
	case f.downNode == nil && f.pending == nil && f.cycleN%crashEvery == crashEvery/2:
		f.crash()
	case f.downNode == nil && f.pending == nil && f.cycleN%mutateEvery == 0:
		f.mutate()
	}
}

func (f *wfleet) audit() auditTotals {
	a := f.lostAudit
	for _, n := range f.nodes {
		a.add(n.obsv.Auditor())
	}
	return a
}

// solverTotals folds every engine's fast-path telemetry, past and present.
type solverTotals struct {
	hits, misses, solves, fallbacks int64
	solveNs                         float64
}

func (f *wfleet) solver() solverTotals {
	t := solverTotals{f.lostHits, f.lostMisses, f.lostSolv, f.lostFallbacks, f.lostSolveNs}
	for _, n := range f.nodes {
		var st *metrics.SolverStats = n.eng.Stats()
		t.hits += st.CacheHits()
		t.misses += st.CacheMisses()
		t.solves += st.Solves()
		t.fallbacks += st.FloorFallbacks()
		t.solveNs += float64(st.MeanSolve()) * float64(st.Solves())
	}
	return t
}

func (a solverTotals) minus(b solverTotals) solverTotals {
	return solverTotals{a.hits - b.hits, a.misses - b.misses, a.solves - b.solves,
		a.fallbacks - b.fallbacks, a.solveNs - b.solveNs}
}

// treeStats sums the transports' counters, past and present. A crashed
// node's closed transport stays in n.tr until the restart replaces it, and
// retire has already counted it.
func (f *wfleet) treeStats() treenet.Stats {
	sum := f.lostTree
	for _, n := range f.nodes {
		if !n.down {
			addTreeStats(&sum, n.tr.Stats())
		}
	}
	return sum
}

func addTreeStats(sum *treenet.Stats, st treenet.Stats) {
	sum.SendErrors += st.SendErrors
	sum.QueueDrops += st.QueueDrops
	sum.Delta.Add(st.Delta)
}

func (f *wfleet) close() {
	for _, n := range f.nodes {
		if n.tr != nil {
			_ = n.tr.Close()
		}
	}
	for _, n := range f.nodes {
		if n.store != nil {
			_ = n.store.Close()
		}
	}
	_ = os.RemoveAll(f.root)
}
