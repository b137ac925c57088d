// Package sim runs the paper's testbed in virtual time: simulated servers
// (internal/cluster), a simulated LAN (internal/simnet) and a virtual clock
// (internal/vclock) around the real enforcement members. It is the harness
// behind every figure reproduction: the paper's multi-minute testbed runs
// execute deterministically in milliseconds.
//
// Topology mirrors Figure 4: clients submit requests to redirectors; each
// redirector is a node.Member on its own core.Engine — the core redirector,
// its admission plane, the combining forest, the window boundary, durable
// recovery and the window observer, exactly as l4 and l7 run them — with its
// tree messages carried by simnet; admitted requests go to the least-loaded
// server of the owner the scheduler chose; completions are recorded per
// principal per second.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"repro/internal/agreement"
	"repro/internal/cluster"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/node"
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
	// Engine configures every member's engine: each boot builds a fresh one
	// over a clone of Engine.System, as a node process does on exec.
	Engine      core.Config
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
}

// Sim is a running simulation.
type Sim struct {
	Clock    *vclock.Clock
	Net      *simnet.Network
	Recorder *metrics.Recorder // completed requests per principal
	Admit    *metrics.Recorder // admitted requests per principal
	// Latency holds response times (first issue → completion), one
	// histogram per principal.
	Latency []*obs.Histogram

	Redirectors []*RNode
	Servers     map[agreement.Principal][]*cluster.Server

	// Auditor aggregates SLA conformance across every redirector's window
	// trace (each member's observer folds into it).
	Auditor *obs.Auditor

	engine         core.Config
	caps           []float64 // capacities set by UpdateCapacities, nil before
	topo           combining.Topology
	plane          *topology.Plane
	failed         map[int]bool
	failureTimeout time.Duration
	lastReconfig   time.Duration
	meanBytes      float64
	windowTicker   *vclock.Ticker

	// One persist.Store per redirector (EnablePersistence); nil without.
	stores []*persist.Store

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

// RNode is one redirector: the enforcement member it currently runs (a
// restart swaps in a freshly booted one). It implements workload.Sink.
type RNode struct {
	*node.Member
	sim *Sim
	id  int
}

// New builds a simulation. The engine's window drives both scheduling and
// tree epochs.
func New(cfg Config) (*Sim, error) {
	if cfg.Engine.System == nil {
		return nil, fmt.Errorf("%w: nil agreement system", ErrConfig)
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
	n := cfg.Engine.System.NumPrincipals()
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
		engine:         cfg.Engine,
		Recorder:       metrics.NewRecorder(time.Second, names),
		Admit:          metrics.NewRecorder(time.Second, names),
		Latency:        make([]*obs.Histogram, n),
		Servers:        make(map[agreement.Principal][]*cluster.Server),
		Auditor:        obs.NewAuditor(names),
		failed:         make(map[int]bool),
		failureTimeout: cfg.FailureTimeout,
		meanBytes:      cfg.MeanRequestBytes,
		stores:         make([]*persist.Store, cfg.Redirectors),
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
	// Members are ascending and distinct, so this pins exactly 0..n-1.
	if m := s.plane.Members(); len(m) != len(ids) || m[0] != 0 || m[len(m)-1] != ids[len(ids)-1] {
		return nil, fmt.Errorf("%w: topology members must be exactly 0..%d", ErrConfig, cfg.Redirectors-1)
	}
	s.topo = s.plane.Topology()
	for i := 0; i < cfg.Redirectors; i++ {
		rn := &RNode{sim: s, id: i}
		s.Redirectors = append(s.Redirectors, rn)
		if err := s.boot(i); err != nil {
			return nil, err
		}
		s.Net.Handle(simnet.NodeID(i), func(from simnet.NodeID, msg interface{}) {
			if !s.failed[rn.id] { // a dead node processes nothing
				rn.OnMessage(0, combining.NodeID(from), msg)
			}
		})
	}

	// Window driver, in the two phases of a boundary: every live member
	// ticks (estimate, tree epoch, root push), then, once same-instant tree
	// deliveries have drained, every live member starts its window, in
	// redirector order. The simulator is serial on purpose: a replay that is
	// deterministic by construction cannot depend on goroutine scheduling.
	s.windowTicker = s.Clock.ScheduleEvery(s.Redirectors[0].Engine().Window(), func() {
		if s.failureTimeout > 0 {
			s.detectFailures()
		}
		s.eachLive((*RNode).Tick)
		s.Clock.Schedule(0, func() {
			s.eachLive(func(rn *RNode) {
				if err := rn.StartWindow(); err != nil {
					panic(fmt.Sprintf("sim: window schedule failed: %v", err))
				}
			})
		})
	})
	return s, nil
}

// eachLive calls fn on every live redirector, in redirector order.
func (s *Sim) eachLive(fn func(*RNode)) {
	for i, rn := range s.Redirectors {
		if !s.failed[i] {
			fn(rn)
		}
	}
}

// boot starts redirector i's member from its durable store, or cold without
// one, at its current placement in the plane — what a node process does on
// exec: a fresh engine from the configuration (at the capacities last set by
// UpdateCapacities), window 0's blind grant, recovery and the rejoin
// handshake included. The member admits on one credit shard, so decisions do
// not depend on which OS thread runs the simulation.
func (s *Sim) boot(i int) error {
	ec := s.engine
	ec.System = ec.System.Clone()
	eng, err := core.NewEngine(ec)
	if err == nil && s.caps != nil {
		_, err = eng.UpdateCapacities(s.caps)
	}
	if err != nil {
		return fmt.Errorf("sim: boot redirector %d: %w", i, err)
	}
	id := combining.NodeID(i)
	send := func(int) combining.SendFunc {
		return func(to combining.NodeID, msg combining.Message) {
			// simnet delivers later; the member only lends msg.
			s.Net.Send(simnet.NodeID(id), simnet.NodeID(to), combining.Detach(msg))
		}
	}
	m, err := node.NewMember(
		node.Config{Layer: "sim", Engine: eng, ID: i, AdmissionShards: 1, Persist: s.stores[i]},
		&node.Placement{ID: id, Parent: s.topo.Parent[id], Children: s.topo.Children[id]},
		send, s.Clock.Now, s.Auditor)
	if err != nil {
		return fmt.Errorf("sim: boot redirector %d: %w", i, err)
	}
	if s.reint != nil {
		m.Observer().SetHealthInfo(s.reint.Degraded)
	}
	s.Redirectors[i].Member = m
	return nil
}

// EnableControlPlane attaches a dynamic agreement control plane to the live
// tree root's member (see node.Member.EnableControlPlane): accepted
// mutations are staged behind an epoch gate of the root's epoch plus lead
// and ride its downward broadcasts. The plane stays with that member; a
// restart of the root boots a member without one.
func (s *Sim) EnableControlPlane(lead int) (*ctrlplane.Plane, error) {
	for i, rn := range s.Redirectors {
		if !s.failed[i] && rn.Tree().IsRoot() {
			return rn.EnableControlPlane(lead)
		}
	}
	return nil, fmt.Errorf("%w: no live tree root", ErrConfig)
}

// EnablePersistence arms the durable-state plane: every redirector gets a
// persist.Store rooted at dir/r<id> and is booted afresh on it, so it
// appends a window record every window and saves every agreement set it
// learns of; RestartRedirector recovers from it. Call before
// EnableControlPlane and Run.
func (s *Sim) EnablePersistence(dir string) error {
	for i := range s.Redirectors {
		st, err := persist.Open(fmt.Sprintf("%s/r%d", dir, i))
		if err != nil {
			return err
		}
		s.stores[i] = st
		if err := s.boot(i); err != nil {
			return err
		}
	}
	return nil
}

// FailRedirector kills redirector i (kill -9): it stops participating in
// the tree and refuses all client submissions, and its member is never
// consulted again — RestartRedirector boots a fresh one. With
// FailureTimeout set, survivors detect the silence and rebuild the tree
// around it.
func (s *Sim) FailRedirector(i int) {
	if i >= 0 && i < len(s.Redirectors) {
		s.failed[i] = true
	}
}

// RestartRedirector boots redirector i back up from its durable state (a
// cold start without EnablePersistence), the virtual-time twin of a crashed
// process re-exec'ing. If failure detection had removed it, the plane is
// first rebuilt to include it again and to leave out every redirector still
// down, and every live member is re-placed.
func (s *Sim) RestartRedirector(i int) {
	if i < 0 || i >= len(s.Redirectors) || !s.failed[i] {
		return
	}
	id := combining.NodeID(i)
	s.failed[i] = false
	if _, present := s.topo.Parent[id]; !present {
		// The rebuilt tree leaves out every redirector that is down, also
		// one failure detection has not pruned yet.
		for j := range s.Redirectors {
			if s.failed[j] {
				s.plane = s.plane.Remove(combining.NodeID(j))
			}
		}
		s.plane = s.plane.Restore(id)
		s.repair()
	}
	if err := s.boot(i); err != nil {
		panic(err.Error())
	}
	s.lastReconfig = s.Clock.Now() // grace: fresh edges are quiet for a while
}

// repair installs the current plane's placements on every live member.
func (s *Sim) repair() {
	s.topo = s.plane.Topology()
	for i, rn := range s.Redirectors {
		id := combining.NodeID(i)
		if p, ok := s.topo.Parent[id]; ok && !s.failed[i] {
			rn.Tree().Reconfigure(p, s.topo.Children[id])
		}
	}
	s.Reconfigurations++
}

// detectFailures removes tree members whose neighbors have observed
// silence longer than the failure timeout. Detection uses only what live
// nodes locally observed: parents miss child reports, children miss parent
// broadcasts. It is one fleet-wide membership view, where each node process
// runs its own treenet.PlaneReparenter.
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
		silent := func(nb combining.NodeID) bool {
			lh, heard := rn.Tree().LastHeard(nb)
			return !heard || now-lh > s.failureTimeout
		}
		for _, child := range s.topo.Children[id] {
			if silent(child) {
				suspect = int(child)
			}
		}
		if p := s.topo.Parent[id]; p >= 0 && silent(p) {
			suspect = int(p)
		}
	}
	if suspect < 0 {
		return
	}
	if _, present := s.topo.Parent[combining.NodeID(suspect)]; !present {
		return // already removed
	}
	s.plane = s.plane.Remove(combining.NodeID(suspect))
	s.repair()
	s.lastReconfig = now
}

// UpdateCapacities re-interprets the agreements against new capacities
// (requests/second, indexed by principal) on every live member's engine at
// the same instant, and members booted later start from them. It returns the
// last member's new generation. With Capacities it makes the simulation the
// engine a health.Reinterpreter drives.
func (s *Sim) UpdateCapacities(caps []float64) (core.Version, error) {
	var v core.Version
	for i, rn := range s.Redirectors {
		if s.failed[i] {
			continue
		}
		var err error
		if v, err = rn.Engine().UpdateCapacities(caps); err != nil {
			return v, err
		}
	}
	s.caps = slices.Clone(caps)
	return v, nil
}

// Capacities returns the capacity vector the fleet boots with: the last
// UpdateCapacities, or the configured system's.
func (s *Sim) Capacities() []float64 {
	if s.caps != nil {
		return slices.Clone(s.caps)
	}
	return s.engine.System.Capacities()
}

// Submit implements workload.Sink: admit the request on the member's
// admission plane and forward it to the least-loaded server of the chosen
// owner. A refused offer (full backlog) counts as a denial so the client
// retries.
func (rn *RNode) Submit(req workload.Request) bool {
	s := rn.sim
	if s.failed[rn.id] {
		return false // dead redirector: connection refused
	}
	cost := 1.0
	if s.meanBytes > 0 && req.Size > 0 {
		cost = float64(req.Size) / s.meanBytes
	}
	d := rn.Admission().AdmitCost(agreement.Principal(req.Principal), -1, cost)
	if !d.Admitted {
		return false
	}
	if srv := s.pickServer(d.Owner); srv == nil || !srv.Offer(cluster.Request{
		Principal: req.Principal,
		ID:        req.ID,
		Cost:      cost,
		IssuedAt:  req.IssuedAt,
	}) {
		return false
	}
	s.Admit.Add(s.Clock.Now(), req.Principal, 1)
	return true
}

// pickServer chooses the owner's least-backlogged live server (crashed
// servers — see CrashServer — take no new work).
func (s *Sim) pickServer(owner agreement.Principal) *cluster.Server {
	var best *cluster.Server
	for _, srv := range s.Servers[owner] {
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
// completion and admission sample, the auditor's conformance counters, the
// tree reconfiguration count — and the caller's extra values into one
// FNV-1a hash: two runs are bit-identical iff their digests match.
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
	a := s.Auditor
	for i := 0; i < s.Recorder.NumSeries(); i++ {
		put(uint64(a.UnderMC(i)))
		put(uint64(a.OverUB(i)))
	}
	put(uint64(a.Windows()))
	put(uint64(a.Conservative()))
	put(uint64(a.MixedVersion()))
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
		if st != nil {
			if err := st.Close(); err != nil && first == nil {
				first = err
			}
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
