package l7

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"strconv"
	"strings"
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

// DefaultRetryBudget is the per-window cap on proxy-mode failover retries
// when RedirectorConfig.RetryBudget is zero: enough to ride out a backend
// dying mid-window, small enough that a dead fleet cannot turn every
// admitted request into a retry storm.
const DefaultRetryBudget = 8

// persistCheckpointEvery is how many durable window appends accumulate
// before the record log is compacted to its newest record.
const persistCheckpointEvery = 256

// TreeConfig wires a redirector into a combining tree of redirector
// processes. Peers maps node ids to treenet addresses.
type TreeConfig = treenet.Spec

// RedirectorConfig parameterizes a Layer-7 redirector.
type RedirectorConfig struct {
	Engine *core.Engine
	// ID distinguishes redirectors of the same engine.
	ID int
	// Addr is the HTTP bind address (use "127.0.0.1:0" for tests).
	Addr string
	// Orgs maps the first URL path segment under /svc/ to a principal,
	// e.g. {"acme": A}. Requests for unknown orgs get 404.
	Orgs map[string]agreement.Principal
	// Backends maps owner principals to backend base URLs.
	Backends map[agreement.Principal][]string
	// Tree, if non-nil, connects this redirector to its peers; when nil the
	// redirector coordinates with nobody (single-node enforcement) and
	// feeds its own estimate back as the global view.
	Tree *TreeConfig
	// Proxy selects single-round-trip operation: instead of answering with
	// a 302, the redirector forwards admitted requests to the backend
	// itself and relays the response. This is the SOAP-redirector variant
	// §4.1 mentions to avoid HTTP's doubled round trips; over-quota
	// requests get 503 + Retry-After instead of a self-redirect.
	Proxy bool
	// TraceDepth is the window-trace ring capacity served at /debug/windows
	// (0 selects obs.DefaultRingDepth).
	TraceDepth int
	// Health, if non-nil, enables active backend health checking: down
	// backends are skipped by backend choice, proxy-mode requests fail over
	// to another backend of the same owner, and every down/up transition
	// re-interprets the agreements against the surviving capacity
	// (Engine.UpdateCapacities, the paper's §2.2 made automatic).
	Health *health.Options
	// Ctrl, if true, attaches the dynamic agreement control plane to this
	// redirector's admin surface (/v1/agreements, /v1/principals/...).
	// With a tree, accepted mutations are epoch-gated and piggybacked on
	// this node's downward broadcasts — enable Ctrl on the tree root only.
	// Without a tree, mutations commit at the next window boundary.
	Ctrl bool
	// CtrlLead is the rollout gate lead in tree epochs (<=0 selects
	// ctrlplane.DefaultLead). Ignored unless Ctrl is set.
	CtrlLead int
	// AdmissionShards sets the admission plane's credit shard count
	// (0 selects GOMAXPROCS; see internal/admission).
	AdmissionShards int
	// Trace, if non-nil, enables request-span tracing: per-request phase
	// timestamps (admit, backend choice, first byte, close) recorded with
	// zero allocations, head-sampled plus slowest-K-per-window, served at
	// /v1/debug/trace; span IDs are attached to the request-latency
	// histogram buckets as exemplars.
	Trace *obs.TraceConfig
	// Flight, if non-nil, arms the SLO flight recorder: an under-floor
	// settled window or a span breaching Flight.SLO freezes a bounded
	// capture served at /v1/debug/flight. Requires Trace.
	Flight *obs.FlightConfig
	// Persist, if non-nil, arms the durable-state plane (internal/persist):
	// at boot the redirector restores its window position, carried credit,
	// demand estimate and newest agreement set from the store, announces a
	// tree rejoin from the durable epoch, and resumes appending one window
	// record per PersistEvery windows. The caller owns the store's
	// lifecycle; Close checkpoints but does not close it.
	Persist *persist.Store
	// PersistEvery is the durable append cadence in windows (<=1 appends
	// every window — the tightest crash-loss bound). Ignored without
	// Persist.
	PersistEvery int
	// RetryBudget caps proxy-mode failover retries per window (0 selects
	// DefaultRetryBudget, negative disables failover): once a window's
	// budget is spent, a failed backend exchange fails fast instead of
	// being retried elsewhere, and rsa_l7_retry_budget_exhausted_total
	// counts the cutoffs.
	RetryBudget int
}

// Redirector is the Layer-7 switch: an HTTP server answering every request
// for /svc/<org>/... with a 302 — either to a backend of the owner chosen
// by the scheduler, or to itself when the principal is over quota this
// window (the implicit-queue self-redirect of §4.1).
type Redirector struct {
	cfg     RedirectorConfig
	srv     *http.Server
	mux     *http.ServeMux // admin/obs routes, and /svc/ paths needing cleaning
	ln      net.Listener
	selfURL string
	start   time.Time

	// mu guards the window-boundary state only (core redirector, combining
	// tree, estimate buffer). The request path never takes it: admission
	// goes through the sharded admission plane, backend choice through an
	// atomic round-robin cursor.
	mu     sync.Mutex
	red    *core.Redirector
	tree   *combining.Forest
	hop    *combining.HopMetrics
	estBuf []float64 // reused local-estimate buffer (under mu)

	adm      *admission.Plane
	rr       []atomic.Uint32 // round-robin cursor per owner principal
	relay    *relay
	backends [][]*upstream // owner principal → its backends' pools

	obsv         *obs.Observer
	handler      *obs.Handler
	plane        *ctrlplane.Plane
	lat          *obs.Histogram // per-request handling latency
	tracer       *obs.Tracer
	flight       *obs.FlightRecorder
	names        []string       // principal index → name, for span tags
	warnFailover *obs.RateLimit // proxy-failover warning gate

	checker *health.Checker
	reint   *health.Reinterpreter

	transport *treenet.Transport
	reparent  treenet.Detector
	topoPlane func() *topology.Plane // nil on a flat layout
	ticker    *time.Ticker
	done      chan struct{}
	closeOnce sync.Once

	// Durable-state scratch (window loop only, under mu): export buffers,
	// append cadence, and the newest set version already saved.
	persistM     [][]float64
	persistT     []float64
	persistE     []float64
	persistSince int
	persistSeq   int
	savedSet     uint64

	// Proxy failover budget: refilled at each window boundary, drawn by
	// failover attempts on the request path.
	retryTokens    atomic.Int64
	retryExhausted atomic.Uint64
}

// NewRedirector starts a Layer-7 redirector.
func NewRedirector(cfg RedirectorConfig) (*Redirector, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("l7: nil engine")
	}
	if len(cfg.Orgs) == 0 || len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("l7: need org and backend maps")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("l7: listen %s: %w", cfg.Addr, err)
	}
	r := &Redirector{
		cfg:     cfg,
		ln:      ln,
		selfURL: "http://" + ln.Addr().String(),
		start:   time.Now(),
		red:     cfg.Engine.NewRedirector(cfg.ID),
		rr:      make([]atomic.Uint32, cfg.Engine.NumPrincipals()),
		done:    make(chan struct{}),
	}
	r.adm, err = admission.New(admission.Config{
		Redirector: r.red, Engine: cfg.Engine, Shards: cfg.AdmissionShards,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}

	r.names = cfg.Engine.PrincipalNames()
	r.warnFailover = obs.NewRateLimit(5*time.Second, 1)
	if cfg.Trace != nil {
		r.tracer = obs.NewTracer(*cfg.Trace, cfg.ID)
	}

	// Backend pools: every base URL is parsed once, here; the proxy path
	// relays over per-backend keep-alive connections (upstream.go) with dial
	// and response-header deadlines, so a dead backend costs a bounded error.
	// With tracing on, dials feed the tracer's dial-phase histogram.
	r.relay = &relay{tracer: r.tracer}
	r.backends = make([][]*upstream, cfg.Engine.NumPrincipals())
	for p, bs := range cfg.Backends {
		if int(p) < 0 || int(p) >= len(r.backends) {
			continue
		}
		for _, b := range bs {
			u, uerr := r.relay.pool(b)
			if uerr != nil {
				ln.Close()
				return nil, uerr
			}
			r.backends[p] = append(r.backends[p], u)
		}
	}

	if cfg.Tree != nil {
		addr := cfg.Tree.ListenAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		wiring, werr := cfg.Tree.Resolve()
		if werr != nil {
			ln.Close()
			return nil, werr
		}
		r.transport, err = treenet.Listen(cfg.Tree.NodeID, addr, r.onTreeMessage)
		if err != nil {
			ln.Close()
			return nil, err
		}
		for id, peerAddr := range cfg.Tree.Peers {
			r.transport.SetPeer(id, peerAddr)
		}
		r.reparent = wiring.Detector
		r.topoPlane = wiring.Plane
		// Principal sharding: under the component policy each disjoint
		// agreement component runs its own tree (independent epochs) over
		// the shared plane; otherwise one tree carries the full vector.
		var comps [][]int
		if top := cfg.Tree.Topology; top != nil {
			if top.Sharding == topology.ShardComponent {
				for _, c := range cfg.Engine.System().Components() {
					ms := make([]int, len(c))
					for i, p := range c {
						ms[i] = int(p)
					}
					comps = append(comps, ms)
				}
			}
			if d := top.Normalize().Delta; d.Enabled() {
				r.transport.EnableDelta(d.Threshold, d.ResyncEvery)
			}
		}
		r.hop = combining.NewHopMetrics()
		r.tree, err = combining.NewForest(combining.ForestConfig{
			ID: cfg.Tree.NodeID, Parent: wiring.Parent, Children: wiring.Children,
			NumPrincipals: cfg.Engine.NumPrincipals(), Components: comps,
			Send: r.transport.TreeSend, Now: r.elapsed, Hop: r.hop,
		})
		if err != nil {
			ln.Close()
			r.transport.Close()
			return nil, err
		}
		// Configuration updates arriving from the parent stage a new
		// scheduling generation on the local engine behind the sender's
		// epoch gate; the window loop swaps once this node's epoch crosses
		// it. Runs on the transport goroutine under r.mu (OnMessage).
		r.tree.SetConfigHandler(func(cu *combining.ConfigUpdate) {
			set, derr := agreement.DecodeSet(cu.Payload)
			if derr != nil {
				cfg.Engine.Logger().Error("bad config payload", "version", cu.Version, "err", derr)
				return
			}
			if _, serr := cfg.Engine.StageSet(set, cu.GateEpoch); serr != nil {
				cfg.Engine.Logger().Error("stage agreement set", "version", cu.Version, "err", serr)
				return
			}
			// Every set the tree delivers becomes durable before the gate
			// can arrive: a crash after this point recovers the newest
			// entitlements instead of rejoining blind.
			if cfg.Persist != nil {
				if perr := cfg.Persist.SaveSet(set); perr != nil {
					cfg.Engine.Logger().Error("persist agreement set", "version", cu.Version, "err", perr)
				}
			}
		})
	}

	// Crash recovery: restore the durable window position, carried credit,
	// demand estimate and newest agreement set before the first window or
	// tree tick, then announce a rejoin so the parent unblocks this node's
	// (rewound) epoch and streams back the current global + configuration.
	var resumeSet *agreement.Set
	if cfg.Persist != nil {
		resumeSet, err = cfg.Persist.LoadNewestSet()
		if err != nil {
			ln.Close()
			if r.transport != nil {
				r.transport.Close()
			}
			return nil, fmt.Errorf("l7: recover agreement set: %w", err)
		}
		if resumeSet != nil {
			// Gate 0: a recovered set the fleet already converged on commits
			// locally at the next window boundary, no quorum round needed.
			if _, serr := cfg.Engine.StageSet(resumeSet, 0); serr != nil {
				cfg.Engine.Logger().Error("restage recovered set", "version", resumeSet.Version, "err", serr)
				resumeSet = nil
			} else {
				r.savedSet = resumeSet.Version
			}
		}
		if ws, ok := cfg.Persist.LastWindow(); ok {
			r.red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
			r.red.SetRollout(ws.Epoch, ws.SetVersion)
			if r.tree != nil {
				var cu *combining.ConfigUpdate
				if resumeSet != nil {
					if data, perr := resumeSet.Encode(); perr == nil {
						cu = &combining.ConfigUpdate{
							Version: resumeSet.Version, GateEpoch: ws.Gate, Payload: data,
						}
					}
				}
				r.tree.Reset(ws.Epoch, cu)
				r.tree.AnnounceRejoin()
			}
		}
	}

	if cfg.Ctrl {
		// A restarted control-plane host resumes version numbering from the
		// recovered snapshot, so its next mutation is not discarded
		// fleet-wide as stale.
		opt := ctrlplane.Options{Lead: cfg.CtrlLead, Logger: cfg.Engine.Logger(), Resume: resumeSet}
		if cfg.Persist != nil {
			// Leases ride the same durable store: the table is saved after
			// every lease mutation and recovered on restart, so long-lived
			// reservations survive a crash with bounded loss.
			store := cfg.Persist
			logger := cfg.Engine.Logger()
			opt.SaveLeases = func(t *budget.Table) {
				if perr := store.SaveLeases(t); perr != nil {
					logger.Error("persist lease table", "version", t.Version, "err", perr)
				}
			}
			if lt, perr := store.LoadNewestLeases(); perr == nil {
				opt.ResumeLeases = lt
			} else {
				logger.Error("load lease table", "err", perr)
			}
		}
		if r.tree != nil {
			tree := r.tree
			opt.Epoch = func() int {
				r.mu.Lock()
				defer r.mu.Unlock()
				return tree.Epoch()
			}
			opt.Publish = func(set *agreement.Set, gate int) {
				// Durable before distributed: a root crash between publish
				// and fleet convergence must not lose the renegotiation.
				if cfg.Persist != nil {
					if perr := cfg.Persist.SaveSet(set); perr != nil {
						cfg.Engine.Logger().Error("persist agreement set", "version", set.Version, "err", perr)
					}
				}
				data, perr := set.Encode()
				if perr != nil {
					cfg.Engine.Logger().Error("encode agreement set", "version", set.Version, "err", perr)
					return
				}
				r.mu.Lock()
				tree.SetConfig(&combining.ConfigUpdate{Version: set.Version, GateEpoch: gate, Payload: data})
				r.mu.Unlock()
			}
		} else if cfg.Persist != nil {
			opt.Publish = func(set *agreement.Set, gate int) {
				if perr := cfg.Persist.SaveSet(set); perr != nil {
					cfg.Engine.Logger().Error("persist agreement set", "version", set.Version, "err", perr)
				}
			}
		}
		r.plane, err = ctrlplane.New(cfg.Engine.System(), cfg.Engine, opt)
		if err != nil {
			ln.Close()
			if r.transport != nil {
				r.transport.Close()
			}
			return nil, err
		}
	}

	// Window tracing + exposition: one observer per redirector, scraped from
	// the same mux that serves traffic. The tree snapshot runs inside the
	// window loop under r.mu, so reading the node directly is safe.
	r.obsv = cfg.Engine.NewObserver(cfg.ID, nil, cfg.TraceDepth)
	if r.tree != nil {
		tree := r.tree
		r.obsv.SetTreeInfo(func() obs.TreeInfo {
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
		r.reint = health.NewReinterpreter(cfg.Engine, owners)
		r.checker = health.New(*cfg.Health, health.TCPProber(cfg.Health.Timeout))
		r.checker.OnTransition(r.reint.HandleTransition)
		r.checker.Watch(r.reint.Targets()...)
		r.obsv.SetHealthInfo(r.reint.Degraded)
		r.checker.Start()
	}

	r.red.SetObserver(r.obsv)
	r.lat = obs.NewHistogram()
	hcfg := obs.HandlerConfig{
		Observers: []*obs.Observer{r.obsv},
		Auditor:   r.obsv.Auditor(),
		Solver:    cfg.Engine.Stats(),
		Mode:      cfg.Engine.Mode().String(),
		Window:    cfg.Engine.Window(),
		Extra:     r.extraMetrics,
		Histograms: []obs.NamedHistogram{{
			Name: "rsa_l7_request_seconds",
			Help: "Layer-7 request handling latency (admission + redirect or full proxy exchange).",
			Hist: r.lat,
		}},
		Config: func() obs.ConfigInfo {
			info := cfg.Engine.Rollout()
			return obs.ConfigInfo{
				Active:     uint64(info.Active),
				Staged:     uint64(info.Staged),
				SetVersion: info.SetVersion,
				GateEpoch:  info.GateEpoch,
				Rollouts:   info.Rollouts,
			}
		},
	}
	if r.plane != nil {
		hcfg.Control = r.plane.Handler()
	}
	if r.tree != nil {
		hcfg.Topology = r.topologyInfo
	}
	if r.tracer != nil {
		if cfg.Flight != nil {
			fl := *cfg.Flight
			if fl.Logger == nil {
				fl.Logger = cfg.Engine.Logger().With("flight")
			}
			r.flight = obs.NewFlightRecorder(fl)
			r.flight.BindTracer(r.tracer)
			r.flight.BindWindows(r.obsv.Ring())
			r.flight.BindAuditor(r.obsv.Auditor())
			r.flight.SetCounters(r.adm.CountersSnapshot)
		}
		hcfg.Tracer = r.tracer
		hcfg.Flight = r.flight
	}
	r.handler = obs.NewHandler(hcfg)

	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/svc/", r.handle)
	r.mux.HandleFunc("/stats", r.handleStats)
	r.handler.Register(r.mux)
	r.srv = &http.Server{Handler: http.HandlerFunc(r.route)}
	go func() { _ = r.srv.Serve(ln) }()

	r.retryTokens.Store(int64(r.retryBudget()))
	r.ticker = time.NewTicker(cfg.Engine.Window())
	go r.windowLoop()
	return r, nil
}

// URL returns the redirector's base URL.
func (r *Redirector) URL() string { return r.selfURL }

// TreeAddr returns the tree transport address ("" without a tree).
func (r *Redirector) TreeAddr() string {
	if r.transport == nil {
		return ""
	}
	return r.transport.Addr()
}

// SetTreePeer registers a peer address after construction (fleet harnesses
// wire nodes once every ephemeral tree port is known).
func (r *Redirector) SetTreePeer(id combining.NodeID, addr string) {
	if r.transport != nil {
		r.transport.SetPeer(id, addr)
	}
}

// TreeStats snapshots the tree transport's health and delta-compression
// counters (all zero without a tree).
func (r *Redirector) TreeStats() treenet.Stats {
	if r.transport == nil {
		return treenet.Stats{}
	}
	return r.transport.Stats()
}

// BindNode binds a topology node id to the raw backend target currently
// serving it in the health plane, so chaos harnesses can address members
// by stable id across restarts and re-parenting (see
// health.Reinterpreter.BindNode). Errors without health checking.
func (r *Redirector) BindNode(node int, target string) error {
	if r.reint == nil {
		return fmt.Errorf("l7: health checking disabled, no node registry")
	}
	return r.reint.BindNode(node, target)
}

// NodeTarget resolves a bound topology node id to its current raw target
// ("" when unbound or health checking is off).
func (r *Redirector) NodeTarget(node int) (string, bool) {
	if r.reint == nil {
		return "", false
	}
	return r.reint.NodeTarget(node)
}

func (r *Redirector) elapsed() time.Duration { return time.Since(r.start) }

// topologyInfo snapshots the combining plane for GET /v1/topology. On a
// hierarchical layout it reports every member's current placement from the
// (possibly repaired) compiled plane; on a flat layout it reports this
// node's own neighborhood — the authoritative local view either way.
func (r *Redirector) topologyInfo() *obs.TopologyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tree == nil {
		return nil
	}
	self := r.tree.ID()
	info := &obs.TopologyInfo{Self: int(self)}
	if r.topoPlane != nil {
		plane := r.topoPlane()
		info.Root = int(plane.Root())
		info.Levels = plane.Levels()
		for _, id := range plane.Members() {
			node := obs.TopologyNode{ID: int(id), Parent: -1, Alive: plane.Alive(id)}
			if pl, ok := plane.Placement(id); ok {
				node.Region, node.Parent = pl.Region, int(pl.Parent)
				node.Level, node.SubRoot = pl.Level, pl.SubRoot
			}
			info.Nodes = append(info.Nodes, node)
		}
	} else {
		// Flat layout: this node only knows its own placement (and, with a
		// detector, which neighbors it pruned).
		parent, children := r.cfg.Tree.Parent, r.cfg.Tree.Children
		if r.reparent != nil {
			parent, children = r.reparent.Parent(), r.reparent.Children()
		}
		info.Levels = 2
		if parent < 0 {
			info.Root = int(self)
		} else {
			info.Root = int(parent)
		}
		removed := make(map[combining.NodeID]bool)
		if r.reparent != nil {
			for _, id := range r.reparent.Removed() {
				removed[id] = true
			}
		}
		level := 0
		if parent >= 0 {
			level = 1
			info.Nodes = append(info.Nodes, obs.TopologyNode{
				ID: int(parent), Region: "flat", Parent: -1, Alive: !removed[parent],
			})
		}
		info.Nodes = append(info.Nodes, obs.TopologyNode{
			ID: int(self), Region: "flat", Parent: int(parent), Level: level, Alive: true,
		})
		for _, c := range children {
			info.Nodes = append(info.Nodes, obs.TopologyNode{
				ID: int(c), Region: "flat", Parent: int(self), Level: level + 1, Alive: !removed[c],
			})
		}
	}
	names := r.names
	for t := 0; t < r.tree.Trees(); t++ {
		comp := obs.TopologyComponent{
			Tree:        t,
			Epoch:       r.tree.Tree(t).Epoch(),
			GlobalEpoch: r.tree.Tree(t).GlobalEpoch(),
		}
		for _, p := range r.tree.Component(t) {
			if p >= 0 && p < len(names) {
				comp.Principals = append(comp.Principals, names[p])
			}
		}
		info.Components = append(info.Components, comp)
	}
	if r.transport != nil {
		st := r.transport.Stats()
		info.DeltaBytesSaved = st.Delta.BytesSaved
		info.DeltaEntriesSuppressed = st.Delta.EntriesSuppressed
		info.DeltaEnabled = r.cfg.Tree.Topology != nil && r.cfg.Tree.Topology.Delta.Enabled()
	}
	return info
}

func (r *Redirector) onTreeMessage(tree int, from combining.NodeID, msg interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tree.OnMessage(tree, from, msg)
	if _, ok := msg.(combining.Broadcast); ok {
		r.pushGlobalLocked()
		// Pre-solve the plan the next window boundary will need while we
		// are already off the request path; the boundary's solve becomes a
		// plan-cache hit and never stalls admissions.
		r.red.Presolve(r.elapsed())
	}
}

// pushGlobalLocked publishes the settled aggregates to the engine: the
// flat single-tree path keeps the uniform SetGlobal semantics, sharded
// forests stamp each agreement component with its own tree's timestamp.
func (r *Redirector) pushGlobalLocked() {
	if r.tree.Trees() == 1 {
		if agg, at, ok := r.tree.ComponentGlobal(0); ok {
			r.red.SetGlobal(agg.Sum, at)
		}
		return
	}
	for t := 0; t < r.tree.Trees(); t++ {
		if agg, at, ok := r.tree.ComponentGlobal(t); ok {
			r.red.SetGlobalComponent(r.tree.Component(t), agg.Sum, at)
		}
	}
}

func (r *Redirector) windowLoop() {
	for {
		select {
		case <-r.done:
			return
		case <-r.ticker.C:
			r.mu.Lock()
			r.estBuf = r.red.LocalEstimateInto(r.estBuf)
			if r.tree != nil {
				if r.reparent != nil {
					// Failure detection first: a silent neighbor is pruned
					// and this epoch's report already goes to the new parent.
					r.reparent.Check(r.tree, r.elapsed())
				}
				r.tree.SetLocal(r.estBuf)
				r.tree.Tick()
				if r.tree.IsRoot() {
					r.pushGlobalLocked()
				}
			} else {
				// Single redirector: its own estimate is the global truth.
				r.red.SetGlobal(r.estBuf, r.elapsed())
			}
			var epoch, gate int
			var known uint64
			if r.tree != nil {
				// Rollout view for the epoch gate: this node's epoch and
				// the newest agreement-set version the tree delivered.
				epoch = r.tree.Epoch()
				if ge := r.tree.GlobalEpoch(); ge > epoch {
					epoch = ge
				}
				if cu := r.tree.Config(); cu != nil {
					known, gate = cu.Version, cu.GateEpoch
				}
				r.red.SetRollout(epoch, known)
			}
			// The plane folds the shards' arrival/admission counters,
			// schedules the next window, and flips the credit pool —
			// in-flight admits keep draining the old pool until the new
			// one is published, so the boundary never stalls them.
			// Scheduling failures leave last window's credits in place;
			// enforcement degrades gracefully.
			_ = r.adm.StartWindow(r.elapsed())
			r.persistWindowLocked(epoch, known, gate)
			r.tracer.StartWindow(uint64(r.red.Windows), uint64(r.cfg.Engine.Version()))
			r.mu.Unlock()
			// Refill the proxy failover budget for the new window.
			r.retryTokens.Store(int64(r.retryBudget()))
		}
	}
}

// retryBudget resolves the configured per-window failover budget.
func (r *Redirector) retryBudget() int {
	switch {
	case r.cfg.RetryBudget > 0:
		return r.cfg.RetryBudget
	case r.cfg.RetryBudget < 0:
		return 0
	default:
		return DefaultRetryBudget
	}
}

// persistWindowLocked appends the just-started window's durable record —
// carried credit, demand estimate, window sequence, rollout position — to
// the store, compacting the record log every persistCheckpointEvery
// appends. Runs at the window boundary under r.mu; a no-op without a
// store. Persistence errors are logged, never fatal: enforcement continues
// with a wider crash-loss bound.
func (r *Redirector) persistWindowLocked(epoch int, known uint64, gate int) {
	st := r.cfg.Persist
	if st == nil {
		return
	}
	r.persistSince++
	every := r.cfg.PersistEvery
	if every <= 1 {
		every = 1
	}
	if r.persistSince < every {
		return
	}
	r.persistSince = 0
	n := r.cfg.Engine.NumPrincipals()
	if r.persistT == nil {
		r.persistT = make([]float64, n)
		r.persistM = make([][]float64, n)
		for i := range r.persistM {
			r.persistM[i] = make([]float64, n)
		}
	}
	r.red.ExportCredits(r.persistM, r.persistT)
	r.persistE = r.red.ExportEstimate(r.persistE)
	ws := persist.WindowState{
		WindowSeq:  r.red.Windows,
		Epoch:      epoch,
		SetVersion: known,
		Gate:       gate,
		Estimate:   r.persistE,
	}
	if r.cfg.Engine.Mode() == core.Provider {
		ws.CreditTotal = r.persistT
	} else {
		ws.Credit = r.persistM
	}
	if err := st.AppendWindow(ws); err != nil {
		r.cfg.Engine.Logger().Error("persist window record", "window", ws.WindowSeq, "err", err)
		return
	}
	r.persistSeq++
	if r.persistSeq%persistCheckpointEvery == 0 {
		if err := st.Checkpoint(); err != nil {
			r.cfg.Engine.Logger().Error("persist checkpoint", "err", err)
		}
	}
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

// principalName maps a principal to its span tag.
func (r *Redirector) principalName(p agreement.Principal) string {
	if int(p) >= 0 && int(p) < len(r.names) {
		return r.names[p]
	}
	return ""
}

// route is the server's handler: service traffic goes straight to handle,
// everything else through the mux — admin and observability routes, and the
// rare /svc/ path that path.Clean would change (an empty, "." or ".."
// segment), which the mux answers with a redirect to its cleaned form.
func (r *Redirector) route(w http.ResponseWriter, req *http.Request) {
	if p := req.URL.Path; strings.HasPrefix(p, "/svc/") && path.Clean(p) == strings.TrimSuffix(p, "/") {
		r.handle(w, req)
		return
	}
	r.mux.ServeHTTP(w, req)
}

// handle answers /svc/<org>/<rest> with a redirect (or, in proxy mode, the
// proxied backend response). When tracing is enabled the request may carry
// a pre-allocated span (nil-safe stamps, zero allocations); the finished
// span's ID is attached to the latency histogram bucket as an exemplar.
func (r *Redirector) handle(w http.ResponseWriter, req *http.Request) {
	handleStart := time.Now()
	var sp *obs.Span
	defer func() { r.lat.ObserveExemplar(time.Since(handleStart), sp.Finish()) }()
	rest := strings.TrimPrefix(req.URL.Path, "/svc/")
	org, tail, _ := strings.Cut(rest, "/")
	p, ok := r.cfg.Orgs[org]
	if !ok {
		http.NotFound(w, req)
		return
	}

	// Lock-free request path: one sharded-plane admission, one atomic
	// round-robin backend choice.
	sp = r.tracer.Begin(r.principalName(p))
	d, det := r.adm.AdmitTraced(p, -1, 1)
	sp.StampAdmit(spanVerdict(det.Outcome), det.Shard)
	var target *upstream
	if d.Admitted {
		target = r.chooseBackend(d.Owner, nil)
		sp.StampBackend()
	}

	switch {
	case target == nil:
		r.refuse(w, req)
	case r.cfg.Proxy:
		r.proxy(w, req, d.Owner, target, tail, sp)
	default:
		http.Redirect(w, req, target.location(tail, req.URL.RawQuery), http.StatusFound)
	}
}

// The refusal replies are fixed, so their header values are built once and
// shared by every response (net/http only reads them).
var (
	refusalBody    = []byte("over quota this window\n")
	refusalLength  = []string{strconv.Itoa(len(refusalBody))}
	refusalType    = []string{"text/plain; charset=utf-8"}
	refusalNoSniff = []string{"nosniff"}
	retryAfterNow  = []string{"0"}
)

// refuse tells the client to come back: 503 in proxy mode (the
// single-round-trip variant), otherwise a 302 to this redirector itself
// (implicit queuing). Both carry Retry-After: 0.
func (r *Redirector) refuse(w http.ResponseWriter, req *http.Request) {
	h := w.Header()
	h["Retry-After"] = retryAfterNow
	h["Content-Type"] = refusalType
	h["X-Content-Type-Options"] = refusalNoSniff
	h["Content-Length"] = refusalLength
	if r.cfg.Proxy {
		w.WriteHeader(http.StatusServiceUnavailable)
	} else {
		h["Location"] = []string{r.selfURL + req.URL.RequestURI()}
		w.WriteHeader(http.StatusFound)
	}
	_, _ = w.Write(refusalBody)
}

// chooseBackend round-robins over the owner's backends, skipping ones the
// health checker holds down and skip (the backend a failover is escaping).
// Returns nil when no usable backend exists. Safe without the redirector
// mutex: the cursor is atomic and the checker locks internally.
func (r *Redirector) chooseBackend(owner agreement.Principal, skip *upstream) *upstream {
	backends := r.backends[owner]
	for range backends {
		b := backends[int(r.rr[owner].Add(1)-1)%len(backends)]
		if b != skip && (r.checker == nil || r.checker.Up(b.target)) {
			return b
		}
	}
	return nil
}

// proxy relays the request to a backend of owner and the response to the
// client — one client round trip instead of two. A failed backend exchange
// is reported to the health checker and, when the request can be replayed
// (no body, or one small enough to have been buffered), retried once
// against another backend of the same owner (bounded failover, not a retry
// storm).
func (r *Redirector) proxy(w http.ResponseWriter, req *http.Request, owner agreement.Principal, target *upstream, tail string, sp *obs.Span) {
	body, err := takeBody(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer body.release()
	var lastErr error
	for attempt := 0; attempt < 2 && target != nil; attempt++ {
		committed, err := r.relay.exchange(target, w, req, tail, &body, sp)
		if err == nil {
			return
		}
		lastErr = err
		var ce clientError
		if errors.As(err, &ce) {
			break
		}
		if r.checker != nil {
			r.checker.ReportFailure(target.target, r.elapsed())
		}
		if committed {
			// The head is out and the body fell short: cut the client's
			// connection so it cannot mistake the fragment for the whole.
			panic(http.ErrAbortHandler)
		}
		if !body.replayable() {
			break
		}
		// Failover is budgeted per window: a dying fleet must not turn
		// every admitted request into a second backend exchange.
		if r.retryTokens.Add(-1) < 0 {
			r.retryExhausted.Add(1)
			break
		}
		r.cfg.Engine.Logger().With("l7").WarnRate(r.warnFailover,
			"proxy exchange failed; failing over",
			"backend", target.target, "err", err)
		target = r.chooseBackend(owner, target)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no usable backend")
	}
	http.Error(w, lastErr.Error(), http.StatusBadGateway)
}

// RetryBudgetExhausted reports how many proxy failovers were suppressed
// because the window's retry budget was already spent.
func (r *Redirector) RetryBudgetExhausted() uint64 { return r.retryExhausted.Load() }

// Stats reports admission counters, folded from the plane's shards.
func (r *Redirector) Stats() (admitted, rejected int) {
	a, j := r.adm.Counts()
	return int(a), int(j)
}

// Observer exposes the window-trace observer (auditor counters, trace ring).
func (r *Redirector) Observer() *obs.Observer { return r.obsv }

// Tracer exposes the request-span tracer (nil unless Trace was configured).
func (r *Redirector) Tracer() *obs.Tracer { return r.tracer }

// Flight exposes the SLO flight recorder (nil unless Flight was configured).
func (r *Redirector) Flight() *obs.FlightRecorder { return r.flight }

// Plane exposes the dynamic agreement control plane (nil unless Ctrl was
// set). Its HTTP surface is already mounted under /v1 on the redirector's
// own mux.
func (r *Redirector) Plane() *ctrlplane.Plane { return r.plane }

// ObsHandler exposes the observability handler, already mounted on the
// redirector's own mux; cmd front-ends can additionally serve it on a
// dedicated admin listener.
func (r *Redirector) ObsHandler() *obs.Handler { return r.handler }

// extraMetrics appends the Layer-7 admission counters plus the health and
// tree-transport series to /metrics.
func (r *Redirector) extraMetrics(w io.Writer) {
	admitted, rejected := r.Stats()
	obs.WriteMetric(w, "rsa_l7_admitted_total", "counter",
		"Requests admitted and redirected (or proxied) to a backend.", float64(admitted))
	obs.WriteMetric(w, "rsa_l7_rejected_total", "counter",
		"Requests self-redirected or rejected for lack of window credit.", float64(rejected))
	obs.WriteMetric(w, "rsa_l7_retry_budget_exhausted_total", "counter",
		"Proxy failovers suppressed because the window's retry budget was spent.",
		float64(r.retryExhausted.Load()))
	obs.WriteMetric(w, "rsa_l7_upstream_dials_total", "counter",
		"Backend connections the proxy relay dialled.", float64(r.relay.dials.Load()))
	obs.WriteMetric(w, "rsa_l7_upstream_reuses_total", "counter",
		"Proxy exchanges that started on a pooled keep-alive backend connection.", float64(r.relay.reuses.Load()))
	obs.WriteMetric(w, "rsa_l7_upstream_stale_retries_total", "counter",
		"Pooled backend connections found closed by the backend and replaced by a fresh dial.", float64(r.relay.staleRetries.Load()))
	obs.WriteMetric(w, "rsa_l7_upstream_idle_conns", "gauge",
		"Keep-alive backend connections idle in the proxy relay's pools.", float64(r.relay.idleConns()))
	admission.WriteMetrics(w, r.adm)
	health.WriteMetrics(w, r.checker, r.reint)
	treenet.WriteMetrics(w, r.transport, r.reparent)
	combining.WriteHopMetrics(w, r.hop)
}

// statsPayload is the JSON shape served at /stats.
type statsPayload struct {
	ID           int    `json:"id"`
	Mode         string `json:"mode"`
	WindowMS     int64  `json:"window_ms"`
	Admitted     int    `json:"admitted"`
	Rejected     int    `json:"rejected"`
	Windows      int    `json:"windows"`
	Conservative int    `json:"conservative_windows"`
	HasGlobal    bool   `json:"has_global"`
}

// handleStats serves operational counters for monitoring.
func (r *Redirector) handleStats(w http.ResponseWriter, req *http.Request) {
	admitted, rejected := r.Stats()
	r.mu.Lock()
	p := statsPayload{
		ID:           r.cfg.ID,
		Mode:         r.cfg.Engine.Mode().String(),
		WindowMS:     r.cfg.Engine.Window().Milliseconds(),
		Admitted:     admitted,
		Rejected:     rejected,
		Windows:      r.red.Windows,
		Conservative: r.red.Conservative,
		HasGlobal:    r.red.HasGlobal(),
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Close stops the redirector.
func (r *Redirector) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.done)
		r.ticker.Stop()
		if r.checker != nil {
			r.checker.Stop()
		}
		err = r.srv.Close()
		if r.transport != nil {
			if cerr := r.transport.Close(); err == nil {
				err = cerr
			}
		}
		r.relay.close()
		// Compact the durable record log on the way out so the next boot
		// replays one record, not the whole run. The caller owns (and
		// closes) the store itself.
		if r.cfg.Persist != nil {
			if cerr := r.cfg.Persist.Checkpoint(); err == nil {
				err = cerr
			}
		}
	})
	return err
}
