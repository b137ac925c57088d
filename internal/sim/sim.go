// Package sim wires the enforcement engine, combining tree, simulated
// servers and synthetic clients together over virtual time. It is the
// harness behind every figure reproduction: the paper's multi-minute testbed
// runs execute deterministically in milliseconds.
//
// Topology mirrors Figure 4: clients submit requests to redirector nodes;
// each redirector runs a core.Redirector (window credits from the LP) and a
// combining.Node (global queue aggregation); admitted requests go to the
// least-loaded server of the owner the scheduler chose; completions are
// recorded per principal per second.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/cluster"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// ErrConfig reports invalid simulation configuration.
var ErrConfig = errors.New("sim: invalid config")

// ServerSpec places Count physical servers of the given capacity (req/s)
// under an owner principal.
type ServerSpec struct {
	Owner    agreement.Principal
	Capacity float64
	Count    int
}

// Config parameterizes a simulation.
type Config struct {
	Engine      *core.Engine
	Redirectors int
	Servers     []ServerSpec
	// TreeDelay is the one-way message delay on every combining-tree link
	// (Figure 8 uses 10 s).
	TreeDelay time.Duration
	// Topology, when set, lays the redirectors out hierarchically (regional
	// sub-trees under a global tier; see internal/topology) instead of the
	// flat binary tree, the one-region plane topology.FromFlat. Its members
	// must be exactly 0..Redirectors-1. Failure detection and restarts
	// repair the plane, so a dead regional sub-root is replaced from its own
	// region in the global tier.
	Topology *topology.Spec
	// Names labels the recorder series; defaults to P0, P1, ...
	Names []string
	// MaxBacklog bounds each server's queue (default 5000).
	MaxBacklog int
	// FailureTimeout, when positive, enables failure detection: a tree
	// neighbor not heard from for this long is removed from the topology
	// and its children are re-parented (the "dynamic" in the paper's
	// dynamic combining tree). Must exceed the tree delay plus a few
	// epochs to avoid false positives.
	FailureTimeout time.Duration
	// MeanRequestBytes, when positive, turns on size-aware scheduling:
	// each request is charged Size/MeanRequestBytes credits and consumes
	// the same multiple of server capacity — the paper's "large requests
	// are treated as multiple small ones". Zero keeps the uniform-cost
	// model used by the figure reproductions (WebBench reports averages).
	MeanRequestBytes float64
	// TraceDepth enables window tracing: every redirector gets an observer
	// retaining this many trace records, all folding into one shared
	// Auditor. Zero disables tracing (the seed behavior); negative selects
	// obs.DefaultRingDepth.
	TraceDepth int
}

// Sim is a running simulation.
type Sim struct {
	Clock    *vclock.Clock
	Engine   *core.Engine
	Net      *simnet.Network
	Recorder *metrics.Recorder // completed requests per principal
	Admit    *metrics.Recorder // admitted requests per principal
	// Latency holds response times (first issue → completion), one
	// histogram per principal.
	Latency []*obs.Histogram

	Redirectors []*RNode
	Servers     map[agreement.Principal][]*cluster.Server

	// Auditor aggregates SLA conformance across all redirectors when
	// Config.TraceDepth enables tracing (nil otherwise). Observers holds the
	// per-redirector trace rings in redirector order.
	Auditor   *obs.Auditor
	Observers []*obs.Observer

	topo           combining.Topology
	plane          *topology.Plane
	failed         map[int]bool
	failureTimeout time.Duration
	lastReconfig   time.Duration
	meanBytes      float64
	windowTicker   *vclock.Ticker

	// Durable-state plane (EnablePersistence): one persist.Store per
	// redirector, appended to every window; the control-plane host's store
	// is also fed agreement-set snapshots at publish time so a restarted
	// root can re-broadcast the newest configuration.
	stores map[int]*persist.Store

	// Fault-injection state (see fault.go in this package): servers by
	// name, their owners and base capacities, which are currently crashed,
	// and the optional capacity re-interpreter driven by crashes.
	byName  map[string]*cluster.Server
	owners  map[string]agreement.Principal
	baseCap map[string]float64
	crashed map[string]bool
	reint   *health.Reinterpreter

	// Reconfigurations counts topology rebuilds triggered by failure
	// detection.
	Reconfigurations int
}

// RNode is one redirector node: admission engine + tree participant. It
// implements workload.Sink.
type RNode struct {
	sim    *Sim
	Red    *core.Redirector
	Tree   *combining.Node
	estBuf []float64 // reused local-estimate buffer for the tree feed

	// Persistence scratch (EnablePersistence): reused export buffers and
	// the newest set version already saved durably.
	pm       [][]float64
	pt       []float64
	pe       []float64
	savedSet uint64
}

// New builds a simulation. The engine's window drives both scheduling and
// tree epochs.
func New(cfg Config) (*Sim, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrConfig)
	}
	if cfg.Redirectors <= 0 {
		return nil, fmt.Errorf("%w: need at least one redirector", ErrConfig)
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("%w: need at least one server", ErrConfig)
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 5000
	}
	n := cfg.Engine.NumPrincipals()
	names := cfg.Names
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("P%d", i)
		}
	}
	if len(names) != n {
		return nil, fmt.Errorf("%w: %d names for %d principals", ErrConfig, len(names), n)
	}

	s := &Sim{
		Clock:          vclock.New(),
		Engine:         cfg.Engine,
		Recorder:       metrics.NewRecorder(time.Second, names),
		Admit:          metrics.NewRecorder(time.Second, names),
		Latency:        make([]*obs.Histogram, n),
		Servers:        make(map[agreement.Principal][]*cluster.Server),
		failed:         make(map[int]bool),
		failureTimeout: cfg.FailureTimeout,
		meanBytes:      cfg.MeanRequestBytes,
		byName:         make(map[string]*cluster.Server),
		owners:         make(map[string]agreement.Principal),
		baseCap:        make(map[string]float64),
		crashed:        make(map[string]bool),
	}
	for i := range s.Latency {
		s.Latency[i] = obs.NewHistogram()
	}
	s.Net = simnet.New(s.Clock, cfg.TreeDelay)

	for _, spec := range cfg.Servers {
		if spec.Capacity <= 0 || spec.Count <= 0 {
			return nil, fmt.Errorf("%w: server spec %+v", ErrConfig, spec)
		}
		for c := 0; c < spec.Count; c++ {
			name := fmt.Sprintf("%s-srv%d", names[spec.Owner], c)
			srv := cluster.NewServer(name, s.Clock, spec.Capacity, cfg.MaxBacklog,
				func(req cluster.Request, at time.Duration) {
					s.Recorder.Add(at, req.Principal, 1)
					s.Latency[req.Principal].Observe(at - req.IssuedAt)
				})
			s.Servers[spec.Owner] = append(s.Servers[spec.Owner], srv)
			s.byName[name] = srv
			s.owners[name] = spec.Owner
			s.baseCap[name] = spec.Capacity
		}
	}

	ids := make([]combining.NodeID, cfg.Redirectors)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	var err error
	if cfg.Topology != nil {
		s.plane, err = topology.Compile(*cfg.Topology)
	} else {
		s.plane, err = topology.FromFlat(ids, topology.DefaultFanout)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	members := s.plane.Members()
	if len(members) != cfg.Redirectors {
		return nil, fmt.Errorf("%w: topology has %d members for %d redirectors",
			ErrConfig, len(members), cfg.Redirectors)
	}
	for i, id := range members {
		if id != ids[i] {
			return nil, fmt.Errorf("%w: topology members must be 0..%d", ErrConfig, cfg.Redirectors-1)
		}
	}
	s.topo = s.plane.Topology()
	for i := 0; i < cfg.Redirectors; i++ {
		id := combining.NodeID(i)
		send := func(to combining.NodeID, msg combining.Message) {
			// simnet delivers later; the node only lends msg.
			s.Net.Send(simnet.NodeID(id), simnet.NodeID(to), combining.Detach(msg))
		}
		rn := &RNode{
			sim: s,
			Red: cfg.Engine.NewRedirector(i),
		}
		rn.Tree = combining.NewBuilder(id).Place(s.topo).Principals(n).
			Transport(send).Clock(s.Clock.Now).Build()
		s.Redirectors = append(s.Redirectors, rn)
		s.Net.Handle(simnet.NodeID(id), func(from simnet.NodeID, msg interface{}) {
			if s.failed[int(id)] {
				return // a dead node processes nothing
			}
			rn.Tree.OnMessage(combining.NodeID(from), msg)
			if _, ok := msg.(combining.Broadcast); ok {
				rn.pushGlobal()
			}
		})
	}

	if cfg.TraceDepth != 0 {
		depth := cfg.TraceDepth
		if depth < 0 {
			depth = obs.DefaultRingDepth
		}
		s.Auditor = obs.NewAuditor(names)
		for i, rn := range s.Redirectors {
			o := cfg.Engine.NewObserver(i, s.Auditor, depth)
			tree := rn.Tree
			o.SetTreeInfo(func() obs.TreeInfo {
				reports, broadcasts, sent := tree.MessageCounts()
				return obs.TreeInfo{
					Epoch:       tree.Epoch(),
					GlobalEpoch: tree.GlobalEpoch(),
					MsgsIn:      reports + broadcasts,
					MsgsOut:     sent,
				}
			})
			rn.Red.SetObserver(o)
			s.Observers = append(s.Observers, o)
		}
	}

	// Window driver: refresh tree locals, run a tree epoch, then start the
	// new scheduling window once same-instant deliveries have drained.
	s.windowTicker = s.Clock.ScheduleEvery(cfg.Engine.Window(), func() {
		if s.failureTimeout > 0 {
			s.detectFailures()
		}
		for i, rn := range s.Redirectors {
			if s.failed[i] {
				continue
			}
			rn.estBuf = rn.Red.LocalEstimateInto(rn.estBuf)
			rn.Tree.SetLocal(rn.estBuf)
		}
		for i, rn := range s.Redirectors {
			if s.failed[i] {
				continue
			}
			rn.Tree.Tick()
		}
		s.Clock.Schedule(0, func() { s.startWindows() })
	})
	return s, nil
}

// startWindows runs every live redirector's window solve, one after the
// other in redirector order. The simulator is serial on purpose: fleets here
// are a handful of redirectors whose agreeing views the engine's plan cache
// already collapses into one LP solve, and a replay that is deterministic by
// construction cannot depend on goroutine scheduling. Virtual time is frozen
// while this callback runs, so one timestamp serves every redirector.
func (s *Sim) startWindows() {
	now := s.Clock.Now()
	for i, rn := range s.Redirectors {
		if s.failed[i] {
			continue
		}
		if rn.Tree.IsRoot() {
			rn.pushGlobal() // root sees its own broadcast instantly
		}
		// Feed the redirector its rollout view before the window starts:
		// its epoch (local ticks, advanced in lockstep fleet-wide) and the
		// newest configuration version the tree has delivered to it. The
		// engine's epoch gate decides whether this window runs the old
		// generation, the staged one, or the conservative fallback.
		epoch := rn.Tree.Epoch()
		if ge := rn.Tree.GlobalEpoch(); ge > epoch {
			epoch = ge
		}
		var known uint64
		gate := 0
		if cu := rn.Tree.Config(); cu != nil {
			known = cu.Version
			gate = cu.GateEpoch
		}
		rn.Red.SetRollout(epoch, known)
		if err := rn.Red.StartWindow(now); err != nil {
			panic(fmt.Sprintf("sim: window schedule failed: %v", err))
		}
		rn.persistWindow(epoch, known, gate)
	}
}

// EnableControlPlane attaches a dynamic agreement control plane to the
// simulation, rooted (like the paper's combining tree) at the tree root.
// Accepted mutations are staged on the shared engine behind an epoch gate
// of the root's current epoch plus lead (<=0 selects ctrlplane.DefaultLead)
// and piggybacked on the root's downward broadcasts, so every redirector
// learns the new agreement-set version through the tree before its gate
// epoch arrives and swaps at a window boundary.
func (s *Sim) EnableControlPlane(lead int) (*ctrlplane.Plane, error) {
	var root *RNode
	for i, rn := range s.Redirectors {
		if !s.failed[i] && rn.Tree.IsRoot() {
			root = rn
			break
		}
	}
	if root == nil {
		return nil, fmt.Errorf("%w: no live tree root", ErrConfig)
	}
	tree := root.Tree
	opt := ctrlplane.Options{
		Lead:  lead,
		Epoch: tree.Epoch,
		Publish: func(set *agreement.Set, gate int) {
			data, err := set.Encode()
			if err != nil {
				panic(fmt.Sprintf("sim: encode agreement set v%d: %v", set.Version, err))
			}
			tree.SetConfig(&combining.ConfigUpdate{
				Version:   set.Version,
				GateEpoch: gate,
				Payload:   data,
			})
			// The control-plane host persists every accepted set at publish
			// time: a root crash between publish and fleet convergence must
			// not lose the renegotiation.
			if st := s.stores[int(tree.ID())]; st != nil {
				if err := st.SaveSet(set); err != nil {
					panic(fmt.Sprintf("sim: persist set v%d: %v", set.Version, err))
				}
			}
		},
	}
	// Leases ride the same durable store as agreement sets when persistence
	// is armed: the versioned lease table is saved after every mutation and
	// the newest table recovered on a fresh attach, so long-lived leases
	// survive a control-plane restart with at most one mutation lost.
	if st := s.stores[int(tree.ID())]; st != nil {
		opt.SaveLeases = func(t *budget.Table) {
			if err := st.SaveLeases(t); err != nil {
				panic(fmt.Sprintf("sim: persist lease table v%d: %v", t.Version, err))
			}
		}
		tbl, err := st.LoadNewestLeases()
		if err != nil {
			return nil, fmt.Errorf("sim: load lease table: %w", err)
		}
		opt.ResumeLeases = tbl
	}
	return ctrlplane.New(s.Engine.System(), s.Engine, opt)
}

// EnablePersistence arms the durable-state plane: every redirector gets a
// persist.Store rooted at dir/r<id>, appends a window record every window
// (the tightest crash-loss bound), and durably saves each agreement-set
// snapshot it learns of. Call before Run; RestartRedirector uses the stores
// to recover.
func (s *Sim) EnablePersistence(dir string) error {
	s.stores = make(map[int]*persist.Store, len(s.Redirectors))
	for i := range s.Redirectors {
		st, err := persist.Open(fmt.Sprintf("%s/r%d", dir, i))
		if err != nil {
			return err
		}
		s.stores[i] = st
	}
	return nil
}

// persistWindow appends the just-started window's durable record (credit,
// estimate, position) to this node's store and saves any newly learned
// agreement set; a no-op when persistence is off.
func (rn *RNode) persistWindow(epoch int, known uint64, gate int) {
	st := rn.sim.stores[rn.Red.ID()]
	if st == nil {
		return
	}
	if known > rn.savedSet {
		if cu := rn.Tree.Config(); cu != nil && cu.Version == known {
			set, err := agreement.DecodeSet(cu.Payload)
			if err == nil {
				if err := st.SaveSet(set); err != nil {
					panic(fmt.Sprintf("sim: persist set v%d: %v", known, err))
				}
				rn.savedSet = known
			}
		}
	}
	n := rn.sim.Engine.NumPrincipals()
	if rn.pt == nil {
		rn.pt = make([]float64, n)
		rn.pm = make([][]float64, n)
		for i := range rn.pm {
			rn.pm[i] = make([]float64, n)
		}
	}
	rn.Red.ExportCredits(rn.pm, rn.pt)
	rn.pe = rn.Red.ExportEstimate(rn.pe)
	ws := persist.WindowState{
		WindowSeq:  rn.Red.Windows,
		Epoch:      epoch,
		SetVersion: known,
		Gate:       gate,
		Estimate:   rn.pe,
	}
	if rn.sim.Engine.Mode() == core.Provider {
		ws.CreditTotal = rn.pt
	} else {
		ws.Credit = rn.pm
	}
	if err := st.AppendWindow(ws); err != nil {
		panic(fmt.Sprintf("sim: persist window: %v", err))
	}
}

// FailRedirector kills redirector i (kill -9): it stops participating in
// the tree and refuses all client submissions, and its in-memory window
// state is never consulted again — RestartRedirector rebuilds only from the
// persist store. With FailureTimeout set, survivors detect the silence and
// rebuild the tree around it.
func (s *Sim) FailRedirector(i int) {
	if i >= 0 && i < len(s.Redirectors) {
		s.failed[i] = true
	}
}

// RestartRedirector boots redirector i back up from its durable state, the
// virtual-time twin of a crashed process re-exec'ing: a fresh
// core.Redirector is registered under the old id (re-entering the rollout
// quorum through the laggard conservative path), the window counter, EWMA
// estimate and carried credit are restored from the newest persisted
// record, the tree node is Reset to the durable (epoch, configuration) and
// announces a rejoin to its parent, and — if failure detection had removed
// the node — the topology is deterministically rebuilt to include it
// again and to leave out every redirector still down. Without
// EnablePersistence the restart is a cold start.
func (s *Sim) RestartRedirector(i int) {
	if i < 0 || i >= len(s.Redirectors) || !s.failed[i] {
		return
	}
	rn := s.Redirectors[i]
	var ws persist.WindowState
	var set *agreement.Set
	if st := s.stores[i]; st != nil {
		ws, _ = st.LastWindow()
		set, _ = st.LoadNewestSet()
	}
	var cu *combining.ConfigUpdate
	if set != nil {
		payload, err := set.Encode()
		if err != nil {
			panic(fmt.Sprintf("sim: re-encode recovered set v%d: %v", set.Version, err))
		}
		cu = &combining.ConfigUpdate{Version: set.Version, GateEpoch: ws.Gate, Payload: payload}
		// The shared engine survives in the simulation, but a real restart
		// would re-stage the recovered set; StageSet is idempotent at or
		// below the newest accepted version, so this is safe either way.
		if _, err := s.Engine.StageSet(set, 0); err != nil {
			panic(fmt.Sprintf("sim: restage recovered set v%d: %v", set.Version, err))
		}
	}
	// Fresh admission state under the old identity, rehydrated from the
	// durable record: at most the in-flight window's credit is lost.
	rn.Red = s.Engine.NewRedirector(i)
	rn.Red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
	rn.Red.SetRollout(ws.Epoch, ws.SetVersion)
	if s.Observers != nil && i < len(s.Observers) {
		rn.Red.SetObserver(s.Observers[i])
	}
	rn.savedSet = ws.SetVersion
	s.failed[i] = false
	// Tree node: resume from the durable position in place (transport
	// closures hold the Node pointer), rebuild the topology if failure
	// detection had pruned this member, and shake hands with the parent.
	rn.Tree.Reset(ws.Epoch, cu)
	id := combining.NodeID(i)
	if _, present := s.topo.Parent[id]; !present {
		// The rebuilt tree leaves out every redirector that is down, also
		// one failure detection has not pruned yet.
		for j := range s.Redirectors {
			if s.failed[j] {
				s.plane = s.plane.Remove(combining.NodeID(j))
			}
		}
		s.plane = s.plane.Restore(id)
		s.topo = s.plane.Topology()
		s.topo.Apply(s.liveNodes())
		s.Reconfigurations++
	} else {
		// Membership unchanged: still re-apply this node's edges so a Reset
		// root re-learns its children.
		rn.Tree.Reconfigure(s.topo.Parent[id], s.topo.Children[id])
	}
	s.lastReconfig = s.Clock.Now() // grace: fresh edges are quiet for a while
	rn.Tree.AnnounceRejoin()
}

// liveNodes returns the tree nodes of non-failed redirectors.
func (s *Sim) liveNodes() map[combining.NodeID]*combining.Node {
	out := make(map[combining.NodeID]*combining.Node, len(s.Redirectors))
	for i, rn := range s.Redirectors {
		if !s.failed[i] {
			out[combining.NodeID(i)] = rn.Tree
		}
	}
	return out
}

// detectFailures removes tree members whose neighbors have observed
// silence longer than the failure timeout. Detection uses only what live
// nodes locally observed: parents miss child reports, children miss parent
// broadcasts.
func (s *Sim) detectFailures() {
	now := s.Clock.Now()
	if now-s.lastReconfig < s.failureTimeout {
		return // grace period after startup or a rebuild: new edges are quiet
	}
	suspect := -1
	for i, rn := range s.Redirectors {
		if s.failed[i] {
			continue
		}
		id := combining.NodeID(i)
		for _, child := range s.topo.Children[id] {
			lh, heard := rn.Tree.LastHeard(child)
			if !heard || now-lh > s.failureTimeout {
				suspect = int(child)
			}
		}
		if p := s.topo.Parent[id]; p >= 0 {
			lh, heard := rn.Tree.LastHeard(p)
			if !heard || now-lh > s.failureTimeout {
				suspect = int(p)
			}
		}
	}
	if suspect < 0 {
		return
	}
	if _, present := s.topo.Parent[combining.NodeID(suspect)]; !present {
		return // already removed
	}
	s.plane = s.plane.Remove(combining.NodeID(suspect))
	s.topo = s.plane.Topology()
	s.topo.Apply(s.liveNodes())
	// Rollout liveness valve: a member the tree gave up on cannot
	// acknowledge a staged set, so drop it from the promotion quorum (it is
	// re-admitted by re-registering on restart).
	s.Engine.EvictRedirector(suspect)
	s.lastReconfig = now
	s.Reconfigurations++
}

func (rn *RNode) pushGlobal() {
	agg, at, ok := rn.Tree.Global()
	if ok {
		rn.Red.SetGlobal(agg.Sum, at)
	}
}

// Submit implements workload.Sink: admit the request and forward it to the
// least-loaded server of the chosen owner. A refused offer (full backlog)
// counts as a denial so the client retries.
func (rn *RNode) Submit(req workload.Request) bool {
	if rn.sim.failed[rn.Red.ID()] {
		return false // dead redirector: connection refused
	}
	cost := 1.0
	if rn.sim.meanBytes > 0 && req.Size > 0 {
		cost = float64(req.Size) / rn.sim.meanBytes
	}
	d := rn.Red.AdmitCost(agreement.Principal(req.Principal), -1, cost)
	if !d.Admitted {
		return false
	}
	srv := rn.sim.pickServer(d.Owner)
	if srv == nil {
		return false
	}
	if !srv.Offer(cluster.Request{
		Principal: req.Principal,
		ID:        req.ID,
		Cost:      cost,
		IssuedAt:  req.IssuedAt,
	}) {
		return false
	}
	rn.sim.Admit.Add(rn.sim.Clock.Now(), req.Principal, 1)
	return true
}

// pickServer chooses the owner's least-backlogged live server (crashed
// servers — see CrashServer — take no new work).
func (s *Sim) pickServer(owner agreement.Principal) *cluster.Server {
	servers := s.Servers[owner]
	var best *cluster.Server
	for _, srv := range servers {
		if s.crashed[srv.Name()] {
			continue
		}
		if best == nil || srv.QueueLen() < best.QueueLen() {
			best = srv
		}
	}
	return best
}

// NewClient attaches a client machine to redirector ri.
func (s *Sim) NewClient(ri int, cfg workload.Config) *workload.Client {
	return workload.NewClient(s.Clock, s.Redirectors[ri], cfg)
}

// ScheduleStats counts the outcome of an open-loop replay (see
// PlaySchedule). Counters advance as virtual time does; read them after
// Run.
type ScheduleStats struct {
	Submitted int
	Admitted  int
	Denied    int
}

// PlaySchedule replays a precomputed open-loop arrival schedule against
// redirector ri: one submission per offset in times (absolute virtual
// time), no retries. This is the virtual-time twin of the loadgen
// generator's open-loop contract — an arrival that is turned away is
// counted and dropped, never rescheduled — so a schedule expanded from a
// seeded loadgen stream replays bit-identically here.
func (s *Sim) PlaySchedule(ri, principal int, times []time.Duration) *ScheduleStats {
	st := &ScheduleStats{}
	sink := s.Redirectors[ri]
	for i, at := range times {
		id := uint64(i)
		s.Clock.Schedule(at-s.Clock.Now(), func() {
			st.Submitted++
			if sink.Submit(workload.Request{
				Principal: principal,
				ID:        id,
				IssuedAt:  s.Clock.Now(),
			}) {
				st.Admitted++
			} else {
				st.Denied++
			}
		})
	}
	return st
}

// At schedules fn at absolute virtual time d (phase switches).
func (s *Sim) At(d time.Duration, fn func()) {
	s.Clock.Schedule(d-s.Clock.Now(), fn)
}

// Run advances the simulation until absolute virtual time end.
func (s *Sim) Run(end time.Duration) { s.Clock.RunUntil(end) }

// Digest folds everything a run observably produced — every per-second
// completion and admission sample, the auditor's conformance counters when
// tracing is on, the tree reconfiguration count — and the caller's extra
// values into one FNV-1a hash: two runs are bit-identical iff their digests
// match.
func (s *Sim) Digest(extra ...uint64) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	for _, rec := range []*metrics.Recorder{s.Recorder, s.Admit} {
		for i := 0; i < rec.NumSeries(); i++ {
			for _, v := range rec.Series(i) {
				put(math.Float64bits(v))
			}
		}
	}
	if a := s.Auditor; a != nil {
		for i := 0; i < s.Recorder.NumSeries(); i++ {
			put(uint64(a.UnderMC(i)))
			put(uint64(a.OverUB(i)))
		}
		put(uint64(a.Windows()))
		put(uint64(a.Conservative()))
		put(uint64(a.MixedVersion()))
	}
	put(uint64(s.Reconfigurations))
	for _, v := range extra {
		put(v)
	}
	return h.Sum64()
}

// Stop halts the window driver (for tests that re-wire mid-run).
func (s *Sim) Stop() { s.windowTicker.Stop() }

// ClosePersistence fsyncs and closes every redirector's persist store
// (after Run; the state directories remain replayable).
func (s *Sim) ClosePersistence() error {
	var first error
	for _, st := range s.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Plane returns the current (possibly repaired) plane: the compiled
// Config.Topology, or the one-region plane of the flat binary tree.
func (s *Sim) Plane() *topology.Plane { return s.plane }

// SetTreeDelay changes the delay on every tree link (before or during a
// run).
func (s *Sim) SetTreeDelay(d time.Duration) {
	for i := range s.Redirectors {
		for j := range s.Redirectors {
			if i != j {
				s.Net.SetDelay(simnet.NodeID(i), simnet.NodeID(j), d)
			}
		}
	}
}
