// Package node is the enforcement node both redirector front-ends run on.
// The paper's Layer-4 and Layer-7 redirectors (§4) are two packet/HTTP
// skins over one mechanism — window estimate → combining tree → schedule →
// credits — and it lives here in two layers:
//
//   - Member is that mechanism without a socket or a wall clock: the core
//     redirector and the sharded admission plane, the combining forest and
//     the two-phase window boundary, the epoch-gated configuration rollout,
//     durable recovery and rejoin, the control-plane and lease wiring, and
//     the window observer. The simulator (internal/sim) runs one Member per
//     redirector over simnet and vclock.
//   - Node wraps a Member for a real process: the treenet transport and its
//     failure detector, the backend health plane, request tracing and the
//     flight recorder, the admin handler, and the ticker that runs both
//     boundary phases back to back.
//
// A front-end embeds *Node, builds it with New, hands Start its per-window
// hook, and keeps only what is its own: listeners and connection handling.
// On the request path it uses Begin, Admission().AdmitTraced, StampAdmit,
// NextBackend and BackendUp — none of which takes the member mutex.
package node

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
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
	// Engine is the node's own enforcement engine (one per node); it must
	// not be nil.
	Engine *core.Engine
	// ID is the redirector's identity: its combining-tree node id.
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
	m     *Member
	// booted is closed once m is set (or the boot failed): the transport
	// accepts from the moment it listens, and inbound frames wait for it.
	booted chan struct{}

	rr    []atomic.Uint32 // round-robin cursor per owner principal
	names []string        // principal index → name, for span tags

	transport *treenet.Transport
	wiring    treenet.Wiring // Detector nil without failure detection, Plane nil on a flat layout without it

	checker *health.Checker
	reint   *health.Reinterpreter

	handler *obs.Handler
	tracer  *obs.Tracer
	flight  *obs.FlightRecorder

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a node: tree transport, the member (tree membership, crash
// recovery and rejoin, the admission plane, control plane), the health plane
// and the observability handler. The window loop does not run until Start,
// but the node admits from the moment New returns: window 0 is a blind
// window (see core.Engine.NewRedirector), plus the carried credit of a
// restored node.
func New(cfg Config) (*Node, error) {
	eng := cfg.Engine
	n := &Node{
		cfg:    cfg,
		start:  time.Now(),
		booted: make(chan struct{}),
		rr:     make([]atomic.Uint32, eng.NumPrincipals()),
		names:  eng.PrincipalNames(),
		done:   make(chan struct{}),
	}
	if cfg.Trace != nil {
		n.tracer = obs.NewTracer(*cfg.Trace, cfg.ID)
	}
	var place *Placement
	var send func(int) combining.SendFunc
	var err error
	if cfg.Tree != nil {
		place, err = n.listen()
		send = n.transport.TreeSend
	}
	if err == nil {
		n.m, err = NewMember(cfg, place, send, n.elapsed, nil)
	}
	close(n.booted)
	if err == nil && cfg.Ctrl {
		_, err = n.m.EnableControlPlane(cfg.CtrlLead)
	}
	if err != nil {
		if n.transport != nil {
			n.transport.Close()
		}
		return nil, err
	}
	n.wireObservability()
	return n, nil
}

// listen starts the tree transport and returns this node's placement in the
// resolved plane.
func (n *Node) listen() (*Placement, error) {
	spec, eng := n.cfg.Tree, n.cfg.Engine
	addr := spec.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	wiring, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	n.wiring = wiring
	n.transport, err = treenet.Listen(spec.NodeID, addr, n.onTreeMessage)
	if err != nil {
		return nil, err
	}
	for id, peerAddr := range spec.Peers {
		n.transport.SetPeer(id, peerAddr)
	}
	place := &Placement{ID: spec.NodeID, Parent: wiring.Parent, Children: wiring.Children}
	// Principal sharding: under the component policy each disjoint
	// agreement component runs its own tree (independent epochs) over the
	// shared plane; otherwise one tree carries the full vector.
	if top := spec.Topology; top != nil {
		if top.Sharding == topology.ShardComponent {
			for _, c := range eng.System().Components() {
				ms := make([]int, len(c))
				for i, p := range c {
					ms[i] = int(p)
				}
				place.Components = append(place.Components, ms)
			}
		}
		if d := top.Normalize().Delta; d.Enabled() {
			n.transport.EnableDelta(d.Threshold, d.ResyncEvery)
		}
	}
	return place, nil
}

// onTreeMessage is the transport's handler (connection goroutines).
func (n *Node) onTreeMessage(tree int, from combining.NodeID, msg interface{}) {
	<-n.booted
	if n.m != nil { // nil: the boot failed and New is closing the transport
		n.m.OnMessage(tree, from, msg)
	}
}

// boundary runs one window boundary under the member's mutex: failure
// detection → the member's Tick and StartWindow → tracer window. It returns
// StartWindow's scheduling error.
func (n *Node) boundary() error {
	m := n.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tree != nil && n.wiring.Detector != nil {
		// Failure detection first: a silent neighbor is pruned and this
		// epoch's report already goes to the new parent.
		n.wiring.Detector.Check(m.tree, n.elapsed())
	}
	m.tickLocked()
	err := m.startWindowLocked()
	n.tracer.StartWindow(uint64(m.red.Windows), uint64(n.cfg.Engine.Version()))
	return err
}

// wireObservability builds the health plane, the flight recorder and the
// admin handler around the member's window observer.
func (n *Node) wireObservability() {
	cfg, eng, obsv := n.cfg, n.cfg.Engine, n.m.obsv
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
		obsv.SetHealthInfo(n.reint.Degraded)
		n.checker.Start()
	}
	if n.tracer != nil && cfg.Flight != nil {
		fl := *cfg.Flight
		if fl.Logger == nil {
			fl.Logger = eng.Logger().With("flight")
		}
		n.flight = obs.NewFlightRecorder(fl)
		n.flight.BindTracer(n.tracer)
		n.flight.BindWindows(obsv.Ring())
		n.flight.BindAuditor(obsv.Auditor())
		n.flight.SetCounters(n.m.adm.CountersSnapshot)
	}

	hcfg := obs.HandlerConfig{
		Observers: []*obs.Observer{obsv},
		Auditor:   obsv.Auditor(),
		Solver:    eng.Stats(),
		Mode:      eng.Mode().String(),
		Window:    eng.Window(),
		// The front-end's series, then the shared ones. Everything folds
		// atomics at scrape time; a scrape never contends with admission.
		Extra: func(w io.Writer) {
			if cfg.Extra != nil {
				cfg.Extra(w)
			}
			admission.WriteMetrics(w, n.m.adm)
			health.WriteMetrics(w, n.checker, n.reint)
			treenet.WriteMetrics(w, n.transport, n.wiring.Detector)
			combining.WriteHopMetrics(w, n.m.hop)
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
	if n.m.ctrl != nil {
		hcfg.Control = n.m.ctrl.Handler()
	}
	n.handler = obs.NewHandler(hcfg)
}

func (n *Node) elapsed() time.Duration { return time.Since(n.start) }

// Start runs the window loop: one boundary per engine window, each followed
// by onWindow with the boundary's scheduling error (nil on success; on
// failure last window's credits stay in place). The hook runs on the loop
// goroutine outside the member mutex, so it may call any Node method except
// Close.
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

// Admission exposes the member's sharded admission plane: front-ends admit
// on it directly (AdmitTraced) and read its counters.
func (n *Node) Admission() *admission.Plane { return n.m.adm }

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
	return n.m.WindowStats()
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
func (n *Node) Observer() *obs.Observer { return n.m.obsv }

// Tracer exposes the request-span tracer (nil unless Trace was configured).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Flight exposes the SLO flight recorder (nil unless Flight was configured).
func (n *Node) Flight() *obs.FlightRecorder { return n.flight }

// Plane exposes the dynamic agreement control plane (nil unless Ctrl was
// set); its HTTP surface is part of ObsHandler.
func (n *Node) Plane() *ctrlplane.Plane { return n.m.ctrl }

// ObsHandler exposes the versioned admin/observability endpoints
// (/v1/metrics, /v1/debug/windows, pprof, ...) for mounting on the
// front-end's own mux or a dedicated admin listener.
func (n *Node) ObsHandler() *obs.Handler { return n.handler }
