package l7

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

// DefaultRetryBudget is the per-window cap on proxy-mode failover retries
// when RedirectorConfig.RetryBudget is zero: enough to ride out a backend
// dying mid-window, small enough that a dead fleet cannot turn every
// admitted request into a retry storm.
const DefaultRetryBudget = 8

// TreeConfig wires a redirector into a combining tree of redirector
// processes. Peers maps node ids to treenet addresses.
type TreeConfig = treenet.Spec

// RedirectorConfig parameterizes a Layer-7 redirector.
type RedirectorConfig struct {
	Engine *core.Engine
	// ID is the redirector's identity: its combining-tree node id.
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
	// TraceDepth is the window-trace ring capacity served at
	// /v1/debug/windows (0 selects obs.DefaultRingDepth).
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
	// tree rejoin from the durable epoch, and resumes appending one record
	// per window. The caller owns the store's lifecycle; Close checkpoints
	// but does not close it.
	Persist *persist.Store
	// RetryBudget caps proxy-mode failover retries per window (0 selects
	// DefaultRetryBudget, negative disables failover): once a window's
	// budget is spent, a failed backend exchange fails fast instead of
	// being retried elsewhere, and rsa_l7_retry_budget_exhausted_total
	// counts the cutoffs.
	RetryBudget int
}

// Redirector is the Layer-7 switch: an HTTP/1.1 server answering every
// request for /svc/<org>/... with a 302 — either to a backend of the owner
// chosen by the scheduler, or to itself when the principal is over quota
// this window (the implicit-queue self-redirect of §4.1) — or, in proxy
// mode, with the backend's response or a 503.
type Redirector struct {
	// Node is the shared enforcement node: admission, window loop, tree,
	// rollout, recovery and the admin surface (internal/node).
	*node.Node

	cfg     RedirectorConfig
	srv     *server        // the HTTP/1.1 listener loop (inbound.go)
	mux     *http.ServeMux // admin/obs routes, and /svc/ paths needing cleaning
	selfURL string

	relay        *relay
	backends     [][]*upstream  // owner principal → its backends' pools
	lat          *obs.Histogram // per-request handling latency
	warnFailover *obs.RateLimit // proxy-failover warning gate

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
	// Backend pools: every base URL is parsed once, here; the proxy path
	// relays over per-backend keep-alive connections (upstream.go) with dial
	// and response-header deadlines, so a dead backend costs a bounded error.
	r := &Redirector{
		cfg:          cfg,
		relay:        &relay{},
		backends:     make([][]*upstream, cfg.Engine.NumPrincipals()),
		lat:          obs.NewHistogram(),
		warnFailover: obs.NewRateLimit(5*time.Second, 1),
	}
	for p, bs := range cfg.Backends {
		if int(p) < 0 || int(p) >= len(r.backends) {
			continue
		}
		for _, b := range bs {
			u, err := r.relay.pool(b)
			if err != nil {
				return nil, err
			}
			r.backends[p] = append(r.backends[p], u)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("l7: listen %s: %w", cfg.Addr, err)
	}
	r.selfURL = "http://" + ln.Addr().String()

	r.Node, err = node.New(node.Config{
		Layer: "l7", Engine: cfg.Engine, ID: cfg.ID, Backends: cfg.Backends,
		Tree: cfg.Tree, AdmissionShards: cfg.AdmissionShards,
		TraceDepth: cfg.TraceDepth, Trace: cfg.Trace, Flight: cfg.Flight,
		Health: cfg.Health, Ctrl: cfg.Ctrl, CtrlLead: cfg.CtrlLead,
		Persist: cfg.Persist, Extra: r.extraMetrics,
		Histograms: []obs.NamedHistogram{{
			Name: "rsa_l7_request_seconds",
			Help: "Layer-7 request handling latency (admission + redirect or full proxy exchange).",
			Hist: r.lat,
		}},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	// With tracing on, dials feed the tracer's dial-phase histogram.
	r.relay.tracer = r.Tracer()

	// The observability endpoints are scraped from the same mux that serves
	// traffic.
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/stats", r.handleStats)
	r.ObsHandler().Register(r.mux)
	r.srv = newServer(r, ln, (*inConn).admit)
	go r.srv.serve()

	r.retryTokens.Store(int64(r.retryBudget()))
	// Each window boundary refills the proxy failover budget.
	r.Start(func(error) { r.retryTokens.Store(int64(r.retryBudget())) })
	return r, nil
}

// URL returns the redirector's base URL.
func (r *Redirector) URL() string { return r.selfURL }

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

// chooseBackend round-robins over the owner's backends, skipping ones the
// health checker holds down and skip (the backend a failover is escaping).
// Returns nil when no usable backend exists. Safe without the node mutex:
// the cursor is atomic and the checker locks internally.
func (r *Redirector) chooseBackend(owner agreement.Principal, skip *upstream) *upstream {
	backends := r.backends[owner]
	for range backends {
		b := backends[r.NextBackend(owner)%len(backends)]
		if b != skip && r.BackendUp(b.target) {
			return b
		}
	}
	return nil
}

// proxy relays c's request to a backend of owner and the response to the
// client — one client round trip instead of two. A failed backend exchange
// is reported to the health checker and, when the request can be replayed
// (no body, or one small enough to have been buffered), retried once
// against another backend of the same owner (bounded failover, not a retry
// storm).
func (r *Redirector) proxy(c *inConn, owner agreement.Principal, target *upstream, tail []byte, sp *obs.Span) {
	body, err := takeBody(&c.body, c.req.bodyLength())
	if err != nil {
		c.writeBadGateway(err)
		return
	}
	defer body.release()
	var lastErr error
	for attempt := 0; attempt < 2 && target != nil; attempt++ {
		committed, err := r.relay.exchange(target, c, tail, &body, sp)
		if err == nil {
			return
		}
		lastErr = err
		var ce clientError
		if errors.As(err, &ce) {
			break
		}
		r.ReportFailure(target.target)
		if committed {
			// The head is out and the body fell short: end the client's
			// connection so it cannot mistake the fragment for the whole.
			c.closeAfter = true
			return
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
	c.writeBadGateway(lastErr)
}

// RetryBudgetExhausted reports how many proxy failovers were suppressed
// because the window's retry budget was already spent.
func (r *Redirector) RetryBudgetExhausted() uint64 { return r.retryExhausted.Load() }

// Stats reports admission counters, folded from the plane's shards.
func (r *Redirector) Stats() (admitted, rejected int) {
	a, j := r.Admission().Counts()
	return int(a), int(j)
}

// extraMetrics writes the Layer-7 counters to /v1/metrics; the node appends
// the shared admission, health and tree-transport series.
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
	windows, conservative, hasGlobal := r.WindowStats()
	p := statsPayload{
		ID:           r.cfg.ID,
		Mode:         r.cfg.Engine.Mode().String(),
		WindowMS:     r.cfg.Engine.Window().Milliseconds(),
		Admitted:     admitted,
		Rejected:     rejected,
		Windows:      windows,
		Conservative: conservative,
		HasGlobal:    hasGlobal,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Close stops the HTTP server and its connections, then the node (window
// loop joined, transport closed, durable log checkpointed), and returns the
// first error.
func (r *Redirector) Close() error {
	err := r.srv.close()
	if cerr := r.Node.Close(); err == nil {
		err = cerr
	}
	r.relay.close()
	return err
}
