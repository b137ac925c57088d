// Package node is the enforcement node both redirector front-ends run on.
// The paper's Layer-4 and Layer-7 redirectors (§4) are two packet/HTTP
// skins over one mechanism — window estimate → combining tree → schedule →
// credits — and Node is that mechanism: it owns the core redirector and the
// sharded admission plane, the combining forest with its tree transport and
// failure detector, the epoch-gated configuration rollout, durable recovery
// and rejoin, the control-plane and lease wiring, the observability surface,
// the backend health plane, and the ticker-driven window boundary.
//
// A front-end embeds *Node, builds it with New, hands Start its per-window
// hook, and keeps only what is its own: listeners and connection handling.
// On the request path it uses Begin, Admission().AdmitTraced, StampAdmit,
// NextBackend and BackendUp — none of which takes the node mutex.
package node

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/topology"
	"repro/internal/treenet"
)

// Config parameterizes a Node. Apart from Layer, Extra and Histograms
// every field is one both l4.Config and l7.RedirectorConfig carry under the
// same name; each front-end copies them over in one place (the front-end
// structs stay flat because callers build them with keyed literals).
type Config struct {
	// Layer names the front-end ("l4", "l7") in error messages.
	Layer string
	// Engine is the shared enforcement engine; it must not be nil.
	Engine *core.Engine
	// ID distinguishes redirectors of the same engine.
	ID int
	// Backends maps owner principals to backend targets; the health plane
	// probes them and re-interprets capacity per owner.
	Backends map[agreement.Principal][]string
	// Tree, if non-nil, joins a combining tree of redirectors; when nil the
	// node feeds its own estimate back as the global view.
	Tree *treenet.Spec
	// AdmissionShards sets the admission plane's credit shard count
	// (0 selects GOMAXPROCS; see internal/admission).
	AdmissionShards int
	// TraceDepth is the window-trace ring capacity (0 selects
	// obs.DefaultRingDepth).
	TraceDepth int
	// Trace, if non-nil, enables request-span tracing.
	Trace *obs.TraceConfig
	// Flight, if non-nil, arms the SLO flight recorder. Requires Trace.
	Flight *obs.FlightConfig
	// Health, if non-nil, enables active backend health checking and
	// capacity re-interpretation.
	Health *health.Options
	// Ctrl attaches the dynamic agreement control plane to the admin
	// surface; CtrlLead is its rollout gate lead in tree epochs.
	Ctrl     bool
	CtrlLead int
	// Persist, if non-nil, arms durable recovery: one record is appended
	// every window, so a crash loses at most the in-flight one. The caller
	// owns the store's lifecycle; Close checkpoints but does not close it.
	Persist *persist.Store
	// Extra writes the front-end's own series ahead of the shared
	// admission/health/tree series on /v1/metrics; Histograms are its
	// latency distributions.
	Extra      func(w io.Writer)
	Histograms []obs.NamedHistogram
}

// Node is one enforcement node. Its exported methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	start time.Time

	// mu guards the window-boundary state only (core redirector, combining
	// forest, estimate and persist buffers). The request path never takes
	// it: admission goes through the sharded plane, backend choice through
	// atomic round-robin cursors.
	mu     sync.Mutex
	red    *core.Redirector
	tree   *combining.Forest
	estBuf []float64 // reused local-estimate buffer

	adm   *admission.Plane
	rr    []atomic.Uint32 // round-robin cursor per owner principal
	names []string        // principal index → name, for span tags

	hop       *combining.HopMetrics
	transport *treenet.Transport
	wiring    treenet.Wiring // Detector nil without failure detection, Plane nil on a flat layout without it

	checker *health.Checker
	reint   *health.Reinterpreter

	obsv    *obs.Observer
	handler *obs.Handler
	plane   *ctrlplane.Plane
	tracer  *obs.Tracer
	flight  *obs.FlightRecorder

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Durable-state scratch (window boundary only, under mu): export
	// buffers and the append count that paces log compaction.
	persistM   [][]float64
	persistT   []float64
	persistE   []float64
	persistSeq int
}

// New builds a node: tree membership, crash recovery and rejoin, the
// admission plane, control plane, health plane and the observability
// handler. The window loop does not run until Start, but the node admits
// from the moment New returns: window 0 is a blind window (see
// core.Engine.NewRedirector), plus the carried credit of a restored node.
func New(cfg Config) (*Node, error) {
	eng := cfg.Engine
	n := &Node{
		cfg:   cfg,
		start: time.Now(),
		red:   eng.NewRedirector(cfg.ID),
		rr:    make([]atomic.Uint32, eng.NumPrincipals()),
		names: eng.PrincipalNames(),
		done:  make(chan struct{}),
	}
	if cfg.Trace != nil {
		n.tracer = obs.NewTracer(*cfg.Trace, cfg.ID)
	}
	// Join the tree and restore durable state under mu: the transport accepts
	// from the moment it listens — a restarted node's parent may already be
	// redialling with a queued broadcast — so inbound frames must wait until
	// the forest exists, the durable position is restored and the rejoin is
	// announced. The admission plane comes last: it publishes window 0 from
	// the redirector's credit, which the restore re-arms.
	var resumeSet *agreement.Set
	var err error
	n.mu.Lock()
	if cfg.Tree != nil {
		err = n.joinTreeLocked()
	}
	if err == nil && cfg.Persist != nil {
		resumeSet, err = n.recoverLocked()
	}
	if err == nil {
		n.adm, err = admission.New(admission.Config{
			Redirector: n.red, Engine: eng, Shards: cfg.AdmissionShards,
		})
	}
	n.mu.Unlock()
	if err == nil && cfg.Ctrl {
		n.plane, err = n.newControlPlane(resumeSet)
	}
	if err != nil {
		// Not under mu: Close waits for transport readers, and a reader may
		// be waiting for mu inside onTreeMessage.
		if n.transport != nil {
			n.transport.Close()
		}
		return nil, err
	}
	n.wireObservability()
	return n, nil
}

// joinTreeLocked starts the tree transport and builds the combining forest
// over it.
func (n *Node) joinTreeLocked() error {
	spec, eng := n.cfg.Tree, n.cfg.Engine
	addr := spec.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	wiring, err := spec.Resolve()
	if err != nil {
		return err
	}
	n.wiring = wiring
	n.transport, err = treenet.Listen(spec.NodeID, addr, n.onTreeMessage)
	if err != nil {
		return err
	}
	for id, peerAddr := range spec.Peers {
		n.transport.SetPeer(id, peerAddr)
	}
	// Principal sharding: under the component policy each disjoint
	// agreement component runs its own tree (independent epochs) over the
	// shared plane; otherwise one tree carries the full vector.
	var comps [][]int
	if top := spec.Topology; top != nil {
		if top.Sharding == topology.ShardComponent {
			for _, c := range eng.System().Components() {
				ms := make([]int, len(c))
				for i, p := range c {
					ms[i] = int(p)
				}
				comps = append(comps, ms)
			}
		}
		if d := top.Normalize().Delta; d.Enabled() {
			n.transport.EnableDelta(d.Threshold, d.ResyncEvery)
		}
	}
	n.hop = combining.NewHopMetrics()
	n.tree, err = combining.NewForest(combining.ForestConfig{
		ID: spec.NodeID, Parent: wiring.Parent, Children: wiring.Children,
		NumPrincipals: eng.NumPrincipals(), Components: comps,
		Send: n.transport.TreeSend, Now: n.elapsed, Hop: n.hop,
	})
	if err != nil {
		return err
	}
	// Configuration updates arriving from the parent stage a new scheduling
	// generation on the local engine behind the sender's epoch gate; the
	// window boundary swaps once this node's epoch crosses it. Runs on the
	// transport goroutine under mu (OnMessage).
	n.tree.SetConfigHandler(func(cu *combining.ConfigUpdate) {
		set, derr := agreement.DecodeSet(cu.Payload)
		if derr != nil {
			eng.Logger().Error("bad config payload", "version", cu.Version, "err", derr)
			return
		}
		if _, serr := eng.StageSet(set, cu.GateEpoch); serr != nil {
			eng.Logger().Error("stage agreement set", "version", cu.Version, "err", serr)
			return
		}
		// Every set the tree delivers becomes durable before the gate can
		// arrive: a crash after this point recovers the newest entitlements
		// instead of rejoining blind.
		n.saveSet(set)
	})
	return nil
}

// recoverLocked restores the durable window position, carried credit,
// demand estimate and newest agreement set before the admission plane
// publishes window 0 and before the first window or tree tick, then
// announces a rejoin so the parent unblocks this node's
// (rewound) epoch and streams back the current global + configuration. It
// returns the recovered agreement set (nil on a cold start), which the
// control plane resumes its version numbering from.
func (n *Node) recoverLocked() (*agreement.Set, error) {
	st, eng := n.cfg.Persist, n.cfg.Engine
	resumeSet, err := st.LoadNewestSet()
	if err != nil {
		return nil, fmt.Errorf("%s: recover agreement set: %w", n.cfg.Layer, err)
	}
	if resumeSet != nil {
		// Gate 0: a recovered set the fleet already converged on commits
		// locally at the next window boundary, no quorum round needed.
		if _, serr := eng.StageSet(resumeSet, 0); serr != nil {
			eng.Logger().Error("restage recovered set", "version", resumeSet.Version, "err", serr)
			resumeSet = nil
		}
	}
	// Restore even without a window record: it re-arms window 0 against the
	// recovered set's entitlements.
	ws, ok := st.LastWindow()
	n.red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
	if !ok {
		return resumeSet, nil
	}
	n.red.SetRollout(ws.Epoch, ws.SetVersion)
	if n.tree != nil {
		var cu *combining.ConfigUpdate
		if resumeSet != nil {
			cu = n.configUpdate(resumeSet, ws.Gate)
		}
		n.tree.Reset(ws.Epoch, cu)
		n.tree.AnnounceRejoin()
	}
	return resumeSet, nil
}

// saveSet makes an agreement set durable (a no-op without a store).
// Persistence errors are logged, never fatal: enforcement continues with a
// wider crash-loss bound.
func (n *Node) saveSet(set *agreement.Set) {
	if st := n.cfg.Persist; st != nil {
		if err := st.SaveSet(set); err != nil {
			n.cfg.Engine.Logger().Error("persist agreement set", "version", set.Version, "err", err)
		}
	}
}

// configUpdate wraps an agreement set for the tree's downward broadcasts
// (nil, logged, when the set does not encode).
func (n *Node) configUpdate(set *agreement.Set, gate int) *combining.ConfigUpdate {
	data, err := set.Encode()
	if err != nil {
		n.cfg.Engine.Logger().Error("encode agreement set", "version", set.Version, "err", err)
		return nil
	}
	return &combining.ConfigUpdate{Version: set.Version, GateEpoch: gate, Payload: data}
}

// newControlPlane attaches the dynamic agreement control plane. A restarted
// host resumes version numbering from the recovered snapshot, so its next
// mutation is not discarded fleet-wide as stale.
func (n *Node) newControlPlane(resume *agreement.Set) (*ctrlplane.Plane, error) {
	eng := n.cfg.Engine
	logger := eng.Logger()
	opt := ctrlplane.Options{Lead: n.cfg.CtrlLead, Logger: logger, Resume: resume}
	if st := n.cfg.Persist; st != nil {
		// Leases ride the same durable store: the table is saved after
		// every lease mutation and recovered on restart, so long-lived
		// reservations survive a crash with bounded loss.
		opt.SaveLeases = func(t *budget.Table) {
			if err := st.SaveLeases(t); err != nil {
				logger.Error("persist lease table", "version", t.Version, "err", err)
			}
		}
		var err error
		if opt.ResumeLeases, err = st.LoadNewestLeases(); err != nil {
			logger.Error("load lease table", "err", err)
		}
		opt.Publish = func(set *agreement.Set, gate int) { n.saveSet(set) }
	}
	if tree := n.tree; tree != nil {
		opt.Epoch = func() int {
			n.mu.Lock()
			defer n.mu.Unlock()
			return tree.Epoch()
		}
		opt.Publish = func(set *agreement.Set, gate int) {
			// Durable before distributed: a root crash between publish and
			// fleet convergence must not lose the renegotiation.
			n.saveSet(set)
			if cu := n.configUpdate(set, gate); cu != nil {
				n.mu.Lock()
				tree.SetConfig(cu)
				n.mu.Unlock()
			}
		}
	}
	return ctrlplane.New(eng.System(), eng, opt)
}

// wireObservability builds the window observer, the health plane, the
// flight recorder and the admin handler. The observer's tree snapshot runs
// inside the window boundary under mu, so it reads the forest directly.
func (n *Node) wireObservability() {
	cfg, eng := n.cfg, n.cfg.Engine
	n.obsv = eng.NewObserver(cfg.ID, nil, cfg.TraceDepth)
	if tree := n.tree; tree != nil {
		n.obsv.SetTreeInfo(func() obs.TreeInfo {
			reports, broadcasts, sent := tree.MessageCounts()
			return obs.TreeInfo{
				Epoch:       tree.Epoch(),
				GlobalEpoch: tree.GlobalEpoch(),
				MsgsIn:      reports + broadcasts,
				MsgsOut:     sent,
			}
		})
	}
	if cfg.Health != nil {
		owners := make(map[string]agreement.Principal)
		for p, bs := range cfg.Backends {
			for _, b := range bs {
				owners[b] = p
			}
		}
		n.reint = health.NewReinterpreter(eng, owners)
		n.checker = health.New(*cfg.Health, health.TCPProber(cfg.Health.Timeout))
		n.checker.OnTransition(n.reint.HandleTransition)
		n.checker.Watch(n.reint.Targets()...)
		n.obsv.SetHealthInfo(n.reint.Degraded)
		n.checker.Start()
	}
	// Under mu: attaching opens window 0's record, which snapshots the tree
	// that transport goroutines are already feeding.
	n.mu.Lock()
	n.red.SetObserver(n.obsv)
	n.mu.Unlock()
	if n.tracer != nil && cfg.Flight != nil {
		fl := *cfg.Flight
		if fl.Logger == nil {
			fl.Logger = eng.Logger().With("flight")
		}
		n.flight = obs.NewFlightRecorder(fl)
		n.flight.BindTracer(n.tracer)
		n.flight.BindWindows(n.obsv.Ring())
		n.flight.BindAuditor(n.obsv.Auditor())
		n.flight.SetCounters(n.adm.CountersSnapshot)
	}

	hcfg := obs.HandlerConfig{
		Observers: []*obs.Observer{n.obsv},
		Auditor:   n.obsv.Auditor(),
		Solver:    eng.Stats(),
		Mode:      eng.Mode().String(),
		Window:    eng.Window(),
		// The front-end's series, then the shared ones. Everything folds
		// atomics at scrape time; a scrape never contends with admission.
		Extra: func(w io.Writer) {
			if cfg.Extra != nil {
				cfg.Extra(w)
			}
			admission.WriteMetrics(w, n.adm)
			health.WriteMetrics(w, n.checker, n.reint)
			treenet.WriteMetrics(w, n.transport, n.wiring.Detector)
			combining.WriteHopMetrics(w, n.hop)
		},
		Histograms: cfg.Histograms,
		Tracer:     n.tracer,
		Flight:     n.flight,
		Topology:   n.topologyInfo, // nil (404) without a tree
		Config: func() obs.ConfigInfo {
			info := eng.Rollout()
			return obs.ConfigInfo{
				Active:     uint64(info.Active),
				Staged:     uint64(info.Staged),
				SetVersion: info.SetVersion,
				GateEpoch:  info.GateEpoch,
				Rollouts:   info.Rollouts,
			}
		},
	}
	if n.plane != nil {
		hcfg.Control = n.plane.Handler()
	}
	n.handler = obs.NewHandler(hcfg)
}

func (n *Node) elapsed() time.Duration { return time.Since(n.start) }

// Start runs the window loop: one boundary per engine window, each followed
// by onWindow with the boundary's scheduling error (nil on success; on
// failure last window's credits stay in place). The hook runs on the loop
// goroutine outside mu, so it may call any Node method except Close.
func (n *Node) Start(onWindow func(startErr error)) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.cfg.Engine.Window())
		defer ticker.Stop()
		for {
			select {
			case <-n.done:
				return
			case <-ticker.C:
				onWindow(n.boundary())
			}
		}
	}()
}

// Close stops the node in one order for both layers: stop and join the
// window loop (no boundary runs, and no hook is called, after Close
// returns), stop the health checker and the tree transport, then
// compact the durable record log so the next boot replays one record, not
// the whole run. It returns the first error. Safe before Start and to call
// more than once.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		if n.checker != nil {
			n.checker.Stop()
		}
		if n.transport != nil {
			err = n.transport.Close()
		}
		if n.cfg.Persist != nil {
			if cerr := n.cfg.Persist.Checkpoint(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Begin opens a request span tagged with p's name; nil (and free) when the
// request is not sampled or tracing is off.
func (n *Node) Begin(p agreement.Principal) *obs.Span {
	return n.tracer.Begin(n.principalName(p))
}

// principalName maps a principal to its span tag.
func (n *Node) principalName(p agreement.Principal) string {
	if int(p) >= 0 && int(p) < len(n.names) {
		return n.names[p]
	}
	return ""
}

// Admission exposes the sharded admission plane: front-ends admit on it
// directly (AdmitTraced) and read its counters; the window boundary is the
// node's.
func (n *Node) Admission() *admission.Plane { return n.adm }

// StampAdmit records an AdmitTraced outcome on a span (nil-safe).
func StampAdmit(sp *obs.Span, det admission.AdmitDetail) {
	sp.StampAdmit(spanVerdict(det.Outcome), det.Shard)
}

// spanVerdict maps an admission outcome to its span verdict.
func spanVerdict(out admission.Outcome) obs.Verdict {
	switch out {
	case admission.OutcomeAdmit:
		return obs.VerdictAdmit
	case admission.OutcomeSteal:
		return obs.VerdictSteal
	case admission.OutcomeDry:
		return obs.VerdictDry
	default:
		return obs.VerdictReject
	}
}

// NextBackend advances owner's round-robin cursor and returns its previous
// position; the front-end reduces it modulo its backend count.
func (n *Node) NextBackend(owner agreement.Principal) int {
	return int(n.rr[owner].Add(1) - 1)
}

// BackendUp reports whether the health plane considers target usable
// (always true without health checking).
func (n *Node) BackendUp(target string) bool {
	return n.checker == nil || n.checker.Up(target)
}

// ReportFailure feeds a failed backend exchange or dial to the health
// checker (a no-op without health checking).
func (n *Node) ReportFailure(target string) {
	if n.checker != nil {
		n.checker.ReportFailure(target, n.elapsed())
	}
}

// WindowStats snapshots the window loop's position: windows started,
// windows scheduled conservatively, and whether a global view has arrived.
func (n *Node) WindowStats() (windows, conservative int, hasGlobal bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.red.Windows, n.red.Conservative, n.red.HasGlobal()
}

// TreeAddr returns the tree transport address ("" without a tree).
func (n *Node) TreeAddr() string {
	if n.transport == nil {
		return ""
	}
	return n.transport.Addr()
}

// SetTreePeer registers a peer address after construction (fleet harnesses
// wire nodes once every ephemeral tree port is known).
func (n *Node) SetTreePeer(id combining.NodeID, addr string) {
	if n.transport != nil {
		n.transport.SetPeer(id, addr)
	}
}

// TreeStats snapshots the tree transport's health and delta-compression
// counters (all zero without a tree).
func (n *Node) TreeStats() treenet.Stats {
	if n.transport == nil {
		return treenet.Stats{}
	}
	return n.transport.Stats()
}

// BindNode binds a topology node id to the raw backend target currently
// serving it in the health plane, so chaos harnesses can address members
// by stable id across restarts and re-parenting (see
// health.Reinterpreter.BindNode). Errors without health checking.
func (n *Node) BindNode(node int, target string) error {
	if n.reint == nil {
		return fmt.Errorf("%s: health checking disabled, no node registry", n.cfg.Layer)
	}
	return n.reint.BindNode(node, target)
}

// NodeTarget resolves a bound topology node id to its current raw target
// ("" when unbound or health checking is off).
func (n *Node) NodeTarget(node int) (string, bool) {
	if n.reint == nil {
		return "", false
	}
	return n.reint.NodeTarget(node)
}

// Observer exposes the window-trace observer (auditor counters, trace ring).
func (n *Node) Observer() *obs.Observer { return n.obsv }

// Tracer exposes the request-span tracer (nil unless Trace was configured).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Flight exposes the SLO flight recorder (nil unless Flight was configured).
func (n *Node) Flight() *obs.FlightRecorder { return n.flight }

// Plane exposes the dynamic agreement control plane (nil unless Ctrl was
// set); its HTTP surface is part of ObsHandler.
func (n *Node) Plane() *ctrlplane.Plane { return n.plane }

// ObsHandler exposes the versioned admin/observability endpoints
// (/v1/metrics, /v1/debug/windows, pprof, ...) for mounting on the
// front-end's own mux or a dedicated admin listener.
func (n *Node) ObsHandler() *obs.Handler { return n.handler }
