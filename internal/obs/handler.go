package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// HandlerConfig parameterizes NewHandler. Every field is optional: series
// whose source is nil are simply omitted, so a backend process can serve
// just pprof plus its Extra counters while a redirector serves the full set.
type HandlerConfig struct {
	// Observers supply trace rings for /v1/debug/windows (one per admission
	// point in this process).
	Observers []*Observer
	// Auditor supplies the conformance counters.
	Auditor *Auditor
	// Solver supplies the engine's LP fast-path telemetry.
	Solver *metrics.SolverStats
	// Mode and Window label the rsa_redirector_info series.
	Mode   string
	Window time.Duration
	// Extra, when non-nil, appends additional Prometheus-text series (the
	// layer-specific counters: HTTP admits, parked connections, ...).
	Extra func(w io.Writer)
	// Histograms are latency distributions exported in the Prometheus
	// histogram format (per-layer request latency, loadgen distributions).
	Histograms []NamedHistogram

	// Tracer, when non-nil, serves request spans on /v1/debug/trace and
	// exports the rsa_trace_* counters.
	Tracer *Tracer
	// Flight, when non-nil, serves flight captures on /v1/debug/flight and
	// exports rsa_flight_captures_total.
	Flight *FlightRecorder

	// Control, when non-nil, is mounted under /v1/agreements,
	// /v1/principals and /v1/leases — the dynamic agreement control
	// plane's admin API
	// (internal/ctrlplane.Handler).
	Control http.Handler
	// Config, when non-nil, supplies the engine's configuration-version
	// state for the rsa_config_* series.
	Config func() ConfigInfo
	// Topology, when non-nil, serves the combining-plane snapshot on
	// GET /v1/topology (nil return → 404, no plane configured).
	Topology func() *TopologyInfo
}

// NamedHistogram pairs a latency Histogram with the series name and help
// text it is exported under on /v1/metrics.
type NamedHistogram struct {
	Name string
	Help string
	Hist *Histogram
}

// ConfigInfo is the configuration-version snapshot exported by /v1/metrics
// (mirrors core.RolloutInfo without importing core).
type ConfigInfo struct {
	// Active and Staged are the engine generations (staged 0 when no
	// rollout is in flight); SetVersion is the newest agreement-set version
	// accepted; GateEpoch the tree epoch a staged generation waits on.
	Active     uint64
	Staged     uint64
	SetVersion uint64
	GateEpoch  int
	// Rollouts counts fully converged epoch-gated rollouts.
	Rollouts uint64
}

// Handler serves the versioned admin/observability API:
//
//	/v1/metrics          Prometheus text exposition
//	/v1/debug/windows    JSON array of the last N window trace records (?n=)
//	/v1/debug/trace      JSON request spans, slowest first (?principal=, ?min_ms=, ?n=)
//	/v1/debug/flight     JSON flight-recorder captures, newest first (?n=)
//	/v1/topology         combining-plane snapshot (when configured)
//	/v1/agreements       dynamic agreement control plane (when configured)
//	/v1/principals/...   principal join/leave (when configured)
//	/v1/leases           lease grant/renew/shrink/revoke (when configured)
//	/debug/pprof/...     net/http/pprof
//
// Mount the handler on an existing mux with Register, or serve it directly
// (it implements http.Handler) on a dedicated admin listener.
type Handler struct {
	cfg HandlerConfig
	mux *http.ServeMux
}

// NewHandler builds a handler.
func NewHandler(cfg HandlerConfig) *Handler {
	h := &Handler{cfg: cfg, mux: http.NewServeMux()}
	h.Register(h.mux)
	return h
}

// ServeHTTP serves the observability endpoints from the handler's own mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Register mounts the endpoints on mux (for front-ends that already run an
// HTTP server, like the Layer-7 redirector).
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/metrics", h.serveMetrics)
	mux.HandleFunc("/v1/debug/windows", h.serveWindows)
	if h.cfg.Tracer != nil {
		mux.HandleFunc("/v1/debug/trace", h.serveTrace)
	}
	if h.cfg.Flight != nil {
		mux.HandleFunc("/v1/debug/flight", h.serveFlight)
	}
	if h.cfg.Topology != nil {
		mux.HandleFunc("/v1/topology", h.serveTopology)
	}
	if h.cfg.Control != nil {
		mux.Handle("/v1/agreements", h.cfg.Control)
		mux.Handle("/v1/agreements/", h.cfg.Control)
		mux.Handle("/v1/principals/", h.cfg.Control)
		mux.Handle("/v1/leases", h.cfg.Control)
		mux.Handle("/v1/leases/", h.cfg.Control)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// promMetric emits one un-labeled series with its HELP/TYPE preamble.
func promMetric(w io.Writer, name, kind, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		name, help, name, kind, name, formatFloat(v))
}

// promHeader emits just the HELP/TYPE preamble (for labeled families).
func promHeader(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// promLabeled emits one sample with a principal label.
func promLabeled(w io.Writer, name, principal string, v float64) {
	fmt.Fprintf(w, "%s{principal=%q} %s\n", name, principal, formatFloat(v))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetric emits one un-labeled Prometheus-text series with its HELP/TYPE
// preamble — the helper Extra callbacks use to append layer-specific
// counters (Layer-7 admits, Layer-4 parked connections, backend serves).
func WriteMetric(w io.Writer, name, kind, help string, v float64) {
	promMetric(w, name, kind, help, v)
}

// WriteMetricHeader emits just the HELP/TYPE preamble of a labeled family;
// follow it with WriteLabeled samples.
func WriteMetricHeader(w io.Writer, name, kind, help string) {
	promHeader(w, name, kind, help)
}

// WriteLabeled emits one sample of a labeled family with a single label
// (e.g. target="http://...", principal="A").
func WriteLabeled(w io.Writer, name, label, value string, v float64) {
	fmt.Fprintf(w, "%s{%s=%q} %s\n", name, label, value, formatFloat(v))
}

func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if h.cfg.Mode != "" || h.cfg.Window > 0 {
		promHeader(w, "rsa_redirector_info", "gauge", "Static redirector configuration.")
		fmt.Fprintf(w, "rsa_redirector_info{mode=%q,window_ms=%q} 1\n",
			h.cfg.Mode, strconv.FormatInt(h.cfg.Window.Milliseconds(), 10))
	}
	if a := h.cfg.Auditor; a != nil {
		promMetric(w, "rsa_windows_total", "counter",
			"Scheduling windows audited.", float64(a.Windows()))
		promMetric(w, "rsa_windows_conservative_total", "counter",
			"Windows run in the blind 1/R mandatory-claim fallback (missing or stale global view).",
			float64(a.Conservative()))
		promMetric(w, "rsa_windows_no_global_total", "counter",
			"Windows run before any combining-tree aggregate arrived.", float64(a.NoGlobal()))
		promMetric(w, "rsa_window_solve_errors_total", "counter",
			"Windows whose LP solve failed (previous credits kept).", float64(a.SolveErrors()))
		promMetric(w, "rsa_window_cache_hits_total", "counter",
			"Windows planned from the shared plan cache.", float64(a.CacheHits()))
		promMetric(w, "rsa_windows_degraded_total", "counter",
			"Windows scheduled on reduced, health-re-interpreted capacity (a backend was down).",
			float64(a.Degraded()))
		promMetric(w, "rsa_windows_mixed_version_total", "counter",
			"Same-numbered windows observed under different configuration versions (must stay 0).",
			float64(a.MixedVersion()))

		names := a.Names()
		promHeader(w, "rsa_windows_under_mc_total", "counter",
			"Windows in which the principal was served below its mandatory entitlement share despite demand.")
		for i, name := range names {
			promLabeled(w, "rsa_windows_under_mc_total", name, float64(a.UnderMC(i)))
		}
		promHeader(w, "rsa_windows_over_ub_total", "counter",
			"Windows in which the principal was admitted above its mandatory+optional ceiling.")
		for i, name := range names {
			promLabeled(w, "rsa_windows_over_ub_total", name, float64(a.OverUB(i)))
		}
		promHeader(w, "rsa_served_requests_total", "counter",
			"Admitted request volume per principal (average-request cost units).")
		for i, name := range names {
			promLabeled(w, "rsa_served_requests_total", name, a.Served(i))
		}
		promHeader(w, "rsa_arrived_requests_total", "counter",
			"Observed demand per principal (average-request cost units).")
		for i, name := range names {
			promLabeled(w, "rsa_arrived_requests_total", name, a.Arrived(i))
		}
	}
	if s := h.cfg.Solver; s != nil {
		promMetric(w, "rsa_solver_solves_total", "counter",
			"LP solves performed.", float64(s.Solves()))
		promMetric(w, "rsa_solver_cache_hits_total", "counter",
			"Plan-cache hits.", float64(s.CacheHits()))
		promMetric(w, "rsa_solver_cache_misses_total", "counter",
			"Plan-cache misses.", float64(s.CacheMisses()))
		promMetric(w, "rsa_solver_floor_fallbacks_total", "counter",
			"Windows re-solved (or scaled) without mandatory floors because entitlements exceed capacity.",
			float64(s.FloorFallbacks()))
		promMetric(w, "rsa_solver_solve_seconds_mean", "gauge",
			"Mean LP solve latency.", s.MeanSolve().Seconds())
		promMetric(w, "rsa_solver_solve_seconds_max", "gauge",
			"Max LP solve latency.", s.MaxSolve().Seconds())
	}
	if h.cfg.Config != nil {
		ci := h.cfg.Config()
		promMetric(w, "rsa_config_version", "gauge",
			"Active engine configuration generation.", float64(ci.Active))
		promMetric(w, "rsa_config_staged_version", "gauge",
			"Configuration generation staged behind the rollout epoch gate (0 when none).",
			float64(ci.Staged))
		promMetric(w, "rsa_config_set_version", "gauge",
			"Newest agreement-set version accepted from the control plane.", float64(ci.SetVersion))
		promMetric(w, "rsa_config_gate_epoch", "gauge",
			"Combining-tree epoch the staged generation is gated on (0 when none).",
			float64(ci.GateEpoch))
		promMetric(w, "rsa_config_rollouts_total", "counter",
			"Epoch-gated configuration rollouts fully converged.", float64(ci.Rollouts))
	}
	if tr := h.cfg.Tracer; tr != nil {
		begun, kept, dropped := tr.Counts()
		promMetric(w, "rsa_trace_spans_begun_total", "counter",
			"Request spans opened by the tracer.", float64(begun))
		promMetric(w, "rsa_trace_spans_kept_total", "counter",
			"Request spans committed to the span ring (head- or tail-sampled).", float64(kept))
		promMetric(w, "rsa_trace_spans_dropped_total", "counter",
			"Request spans dropped on in-flight pool exhaustion.", float64(dropped))
		admit, park, dial, proxy := tr.PhaseHistograms()
		WriteHistogram(w, "rsa_trace_phase_admit_seconds",
			"Accept-to-admission-verdict latency of traced requests.", admit)
		WriteHistogram(w, "rsa_trace_phase_park_seconds",
			"Total parked duration of traced requests that parked.", park)
		WriteHistogram(w, "rsa_trace_phase_dial_seconds",
			"Backend dial latency of traced requests.", dial)
		WriteHistogram(w, "rsa_trace_phase_proxy_seconds",
			"Backend-selection-to-close latency of traced requests.", proxy)
	}
	if fl := h.cfg.Flight; fl != nil {
		promMetric(w, "rsa_flight_captures_total", "counter",
			"Flight-recorder captures frozen (under-floor or SLO-breach triggers).",
			float64(fl.Triggers()))
	}
	for _, nh := range h.cfg.Histograms {
		WriteHistogram(w, nh.Name, nh.Help, nh.Hist)
	}
	if h.cfg.Extra != nil {
		h.cfg.Extra(w)
	}
}

// serveTrace returns spans from the tracer's ring as JSON, slowest first.
// ?principal= keeps one principal's spans, ?min_ms= drops spans faster than
// the threshold, ?n= bounds the result (default 64).
func (h *Handler) serveTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 64
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	var minTotal int64
	if s := q.Get("min_ms"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			http.Error(w, "min_ms must be a non-negative number", http.StatusBadRequest)
			return
		}
		minTotal = int64(v * float64(time.Millisecond))
	}
	principal := q.Get("principal")

	ring := h.cfg.Tracer.Ring()
	spans := ring.Snapshot(ring.Depth())
	filtered := spans[:0]
	for _, sp := range spans {
		if principal != "" && sp.Principal != principal {
			continue
		}
		if sp.TotalNanos < minTotal {
			continue
		}
		filtered = append(filtered, sp)
	}
	sort.SliceStable(filtered, func(i, j int) bool {
		return filtered[i].TotalNanos > filtered[j].TotalNanos
	})
	if len(filtered) > n {
		filtered = filtered[:n]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{Spans: filtered}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveFlight returns retained flight captures as JSON, newest first
// (?n= bounds the count).
func (h *Handler) serveFlight(w http.ResponseWriter, r *http.Request) {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	caps := h.cfg.Flight.Captures(n)
	if caps == nil {
		caps = []*Capture{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Captures []*Capture `json:"captures"`
	}{Captures: caps}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveWindows returns the last N trace records across all observers as
// JSON, ordered by (window, redirector). ?n= bounds the per-observer count
// (default 64).
func (h *Handler) serveWindows(w http.ResponseWriter, r *http.Request) {
	n := 64
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	var records []Record
	for _, o := range h.cfg.Observers {
		if o != nil {
			records = append(records, o.Ring().Snapshot(n)...)
		}
	}
	sort.SliceStable(records, func(i, j int) bool {
		if records[i].Window != records[j].Window {
			return records[i].Window < records[j].Window
		}
		return records[i].Redirector < records[j].Redirector
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Records []Record `json:"records"`
	}{Records: records}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve starts a standalone admin listener for the handler (the optional
// side-channel for front-ends without their own HTTP server, like the
// Layer-4 redirector). It returns the bound address; the server stops when
// stop is closed.
func Serve(addr string, h http.Handler, stop <-chan struct{}) (string, error) {
	srv := &http.Server{Addr: addr, Handler: h}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }()
	if stop != nil {
		go func() {
			<-stop
			_ = srv.Close()
		}()
	}
	return ln.Addr().String(), nil
}
