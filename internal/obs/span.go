package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict classifies how a request span ended at the admission layer.
type Verdict uint8

// Span verdicts. Admit/Steal are the two admission fast/slow paths of the
// sharded plane; Dry is the saturated-principal short-circuit reject; Park,
// Expire and Drop describe the Layer-4 pending-queue outcomes (a span parked
// and later admitted keeps the admit verdict and carries its park time in
// ParkNanos/Reparks instead).
const (
	VerdictNone Verdict = iota
	VerdictAdmit
	VerdictSteal
	VerdictReject
	VerdictDry
	VerdictPark
	VerdictExpire
	VerdictDrop
)

// String names the verdict for JSON and log output.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictSteal:
		return "admit-steal"
	case VerdictReject:
		return "reject"
	case VerdictDry:
		return "reject-dry"
	case VerdictPark:
		return "park"
	case VerdictExpire:
		return "expire"
	case VerdictDrop:
		return "drop"
	default:
		return "none"
	}
}

// MarshalJSON renders the verdict as its string name.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON parses a verdict name back into its enum value, so span
// JSON round-trips (flight captures re-read from disk, client tooling).
func (v *Verdict) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for c := VerdictNone; c <= VerdictDrop; c++ {
		if c.String() == s {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown span verdict %q", s)
}

// Span is one request's phase timeline through a redirector: accept,
// admission verdict, optional parking, backend selection, dial, first byte,
// close. All *Nanos fields except ParkNanos are offsets from StartUnixNanos
// (0 = phase never reached); ParkNanos is the total time the request spent
// parked in a pending queue, accumulated across Reparks park episodes.
// Spans are pre-allocated by a Tracer and recorded with zero heap
// allocations; all exported fields are plain values so a committed span
// marshals to JSON directly.
type Span struct {
	// ID is the span's trace reference (its span-ring ticket), assigned
	// when the span is committed; 0 for spans sampled out. Histogram
	// exemplars carry the same reference.
	ID uint64 `json:"id"`
	// Redirector, Window and ConfigVersion tag the span with the admission
	// point, its window sequence number, and the agreement-set version the
	// window was scheduled against (the window record's ConfigVersion).
	Redirector    int    `json:"redirector"`
	Window        uint64 `json:"window"`
	ConfigVersion uint64 `json:"config_version"`
	// Principal is the requesting principal's name; Shard the admission
	// shard that decided the request (-1 before the verdict).
	Principal string `json:"principal"`
	Shard     int    `json:"shard"`
	// Verdict is the admission outcome; Reparks counts pending-queue park
	// episodes (Layer-4 only).
	Verdict Verdict `json:"verdict"`
	Reparks int     `json:"reparks"`

	// StartUnixNanos is the wall-clock accept time.
	StartUnixNanos int64 `json:"start_unix_ns"`
	// AdmitNanos: admission verdict returned (covers plan/pool swap retries).
	AdmitNanos int64 `json:"admit_ns"`
	// ParkNanos: total parked duration (not an offset; see above).
	ParkNanos int64 `json:"park_ns"`
	// BackendNanos: backend selected.
	BackendNanos int64 `json:"backend_ns"`
	// DialNanos: backend connection established (Layer-4).
	DialNanos int64 `json:"dial_ns"`
	// FirstByteNanos: first response byte from the backend.
	FirstByteNanos int64 `json:"first_byte_ns"`
	// TotalNanos: span closed (set by Finish).
	TotalNanos int64 `json:"total_ns"`

	tr    *Tracer
	slot  uint32
	begin time.Time
}

func (s *Span) sinceStart() int64 { return int64(time.Since(s.begin)) }

// StampAdmit records the admission verdict, the deciding shard, and the
// time the decision took. Nil-safe; zero allocations.
func (s *Span) StampAdmit(v Verdict, shard int) {
	if s == nil {
		return
	}
	s.AdmitNanos = s.sinceStart()
	s.Verdict = v
	s.Shard = shard
}

// SetVerdict overrides the span's verdict (park → expire/drop transitions).
// Nil-safe.
func (s *Span) SetVerdict(v Verdict) {
	if s == nil {
		return
	}
	s.Verdict = v
}

// AddPark accumulates one completed park episode. Nil-safe.
func (s *Span) AddPark(d time.Duration) {
	if s == nil {
		return
	}
	s.ParkNanos += Nanos(d)
	s.Reparks++
}

// StampBackend records the backend-selection time. Nil-safe.
func (s *Span) StampBackend() {
	if s == nil {
		return
	}
	s.BackendNanos = s.sinceStart()
}

// StampDial records the backend dial completing. Nil-safe.
func (s *Span) StampDial() {
	if s == nil {
		return
	}
	s.DialNanos = s.sinceStart()
}

// StampFirstByte records the first backend response byte. Nil-safe.
func (s *Span) StampFirstByte() {
	if s == nil {
		return
	}
	s.FirstByteNanos = s.sinceStart()
}

// Finish closes the span: the total duration is computed, the per-phase
// histograms are fed, the sampling decision is made (1-in-N head sampling
// OR slowest-K-per-window tail keep), and a kept span is committed to the
// span ring. It returns the committed span's trace reference (0 when the
// span was sampled out) for histogram exemplars. The span is recycled and
// must not be touched afterwards. Nil-safe; zero heap allocations.
func (s *Span) Finish() uint64 {
	if s == nil {
		return 0
	}
	tr := s.tr
	d := time.Since(s.begin)
	s.TotalNanos = int64(d)
	tr.observePhases(s)

	keep := false
	if n := tr.cfg.SampleEvery; n > 0 && tr.tick.Add(1)%uint64(n) == 0 {
		keep = true
	}
	if tr.tailOffer(s.TotalNanos) {
		keep = true
	}
	var id uint64
	if keep {
		id = tr.ring.Append(s)
		s.ID = id
		tr.kept.Add(1)
	}
	if fl := tr.flight; fl != nil {
		fl.noteSpan(s, d)
	}
	tr.pool[s.slot].busy.Store(0)
	return id
}

// TraceConfig parameterizes a Tracer. The tracer is enabled when either
// sampling dimension is on; a zero config builds a disabled tracer whose
// Begin returns nil.
type TraceConfig struct {
	// SampleEvery keeps 1 in N finished spans (head sampling); 0 disables.
	SampleEvery int
	// SlowestK always keeps the K slowest spans of each window regardless
	// of head sampling (tail sampling); 0 disables.
	SlowestK int
	// Depth is the span-ring capacity (default 512).
	Depth int
}

// DefaultSpanRingDepth is the span-ring capacity used when none is
// configured.
const DefaultSpanRingDepth = 512

// spanPoolSize bounds concurrently in-flight spans per tracer. Begin
// returns nil (a counted drop) beyond it — tracing stays best-effort
// rather than allocating on the hot path.
const spanPoolSize = 1024

type spanSlot struct {
	busy atomic.Uint32
	sp   Span
	_    [64 - 4]byte // keep adjacent slots' busy flags off one cache line
}

// Tracer hands out pre-allocated request spans and owns their ring. All
// methods are safe for unbounded concurrency; the record path (Begin,
// stamps, Finish) performs zero heap allocations — BenchmarkSpanOverhead
// guards this. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	cfg        TraceConfig
	redirector int
	ring       *Ring[Span]
	pool       []spanSlot
	next       atomic.Uint32

	window     atomic.Uint64
	cfgVersion atomic.Uint64

	tick atomic.Uint64 // head-sampling counter

	tailMu     sync.Mutex
	tailTop    []int64 // sorted ascending, ≤ SlowestK entries, reset per window
	tailThresh atomic.Int64

	begun   atomic.Uint64
	kept    atomic.Uint64
	dropped atomic.Uint64

	phaseAdmit *Histogram
	phasePark  *Histogram
	phaseDial  *Histogram
	phaseProxy *Histogram

	flight *FlightRecorder
}

// NewTracer builds a tracer for one redirector. A config with both sampling
// dimensions off yields a tracer whose Begin always returns nil (zero
// per-request cost beyond one predicted branch).
func NewTracer(cfg TraceConfig, redirector int) *Tracer {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultSpanRingDepth
	}
	tr := &Tracer{
		cfg:        cfg,
		redirector: redirector,
		ring:       newRing(cfg.Depth, putSpan, getSpan),
		pool:       make([]spanSlot, spanPoolSize),
		phaseAdmit: NewHistogram(),
		phasePark:  NewHistogram(),
		phaseDial:  NewHistogram(),
		phaseProxy: NewHistogram(),
	}
	if cfg.SlowestK > 0 {
		tr.tailTop = make([]int64, 0, cfg.SlowestK)
	}
	return tr
}

// Enabled reports whether Begin hands out spans at all.
func (tr *Tracer) Enabled() bool {
	return tr != nil && (tr.cfg.SampleEvery > 0 || tr.cfg.SlowestK > 0)
}

// StartWindow tags subsequent spans with the new window sequence number and
// the agreement-set version it was scheduled against, and resets the
// slowest-K tail keeper. Call it from the window loop, after the admission
// plane's own StartWindow.
func (tr *Tracer) StartWindow(window, configVersion uint64) {
	if tr == nil {
		return
	}
	tr.window.Store(window)
	tr.cfgVersion.Store(configVersion)
	if tr.cfg.SlowestK > 0 {
		tr.tailMu.Lock()
		tr.tailTop = tr.tailTop[:0]
		tr.tailThresh.Store(0)
		tr.tailMu.Unlock()
	}
}

// Begin opens a span for one request from the named principal. It returns
// nil — and every stamp on nil is a no-op — when tracing is disabled or the
// in-flight pool is exhausted (a counted drop, never a stall). Zero heap
// allocations.
func (tr *Tracer) Begin(principal string) *Span {
	if !tr.Enabled() {
		return nil
	}
	for probe := 0; probe < 4; probe++ {
		idx := (tr.next.Add(1) - 1) % spanPoolSize
		sl := &tr.pool[idx]
		if sl.busy.CompareAndSwap(0, 1) {
			tr.begun.Add(1)
			now := time.Now()
			sl.sp = Span{
				Redirector:     tr.redirector,
				Window:         tr.window.Load(),
				ConfigVersion:  tr.cfgVersion.Load(),
				Principal:      principal,
				Shard:          -1,
				StartUnixNanos: now.UnixNano(),
				tr:             tr,
				slot:           idx,
				begin:          now,
			}
			return &sl.sp
		}
	}
	tr.dropped.Add(1)
	return nil
}

// tailOffer reports whether a finished span of the given duration belongs
// to the current window's slowest-K set. The fast path is one atomic load
// against the K-th slowest threshold; only genuine tail candidates take the
// mutex.
func (tr *Tracer) tailOffer(d int64) bool {
	k := tr.cfg.SlowestK
	if k <= 0 {
		return false
	}
	if th := tr.tailThresh.Load(); th != 0 && d <= th {
		return false
	}
	tr.tailMu.Lock()
	defer tr.tailMu.Unlock()
	top := tr.tailTop
	if len(top) >= k {
		if d <= top[0] {
			return false
		}
		top = top[1:] // evict the fastest of the kept tail
	}
	// Insert d keeping the slice sorted ascending (K is small).
	i := len(top)
	top = append(top, 0)
	for i > 0 && top[i-1] > d {
		top[i] = top[i-1]
		i--
	}
	top[i] = d
	copy(tr.tailTop[:cap(tr.tailTop)], top)
	tr.tailTop = tr.tailTop[:len(top)]
	if len(top) >= k {
		tr.tailThresh.Store(tr.tailTop[0])
	}
	return true
}

// observePhases feeds the per-phase duration histograms from a finished
// span: admit (accept → verdict), park (total parked), dial (backend
// selected → connected, Layer-4), proxy (backend selected → close).
func (tr *Tracer) observePhases(s *Span) {
	if s.AdmitNanos > 0 {
		tr.phaseAdmit.Observe(time.Duration(s.AdmitNanos))
	}
	if s.ParkNanos > 0 {
		tr.phasePark.Observe(time.Duration(s.ParkNanos))
	}
	if s.DialNanos > 0 && s.BackendNanos > 0 {
		tr.phaseDial.Observe(time.Duration(s.DialNanos - s.BackendNanos))
	}
	if s.BackendNanos > 0 {
		tr.phaseProxy.Observe(time.Duration(s.TotalNanos - s.BackendNanos))
	}
}

// ObserveDial records a backend dial latency directly (Layer-7 transports
// dial inside the HTTP client where no span is in scope). Nil-safe.
func (tr *Tracer) ObserveDial(d time.Duration) {
	if tr == nil {
		return
	}
	tr.phaseDial.Observe(d)
}

// PhaseHistograms exposes the per-phase duration distributions (admit,
// park, dial, proxy) for fleet aggregation and scrapes. Nil receivers
// return all-nil histograms.
func (tr *Tracer) PhaseHistograms() (admit, park, dial, proxy *Histogram) {
	if tr == nil {
		return nil, nil, nil, nil
	}
	return tr.phaseAdmit, tr.phasePark, tr.phaseDial, tr.phaseProxy
}

// Ring exposes the span ring (snapshots for /v1/debug/trace and flight
// captures). Nil for a nil tracer.
func (tr *Tracer) Ring() *Ring[Span] {
	if tr == nil {
		return nil
	}
	return tr.ring
}

// Counts reports the tracer's lifetime totals: spans begun, spans kept
// (committed to the ring), and spans dropped on pool exhaustion.
func (tr *Tracer) Counts() (begun, kept, dropped uint64) {
	if tr == nil {
		return 0, 0, 0
	}
	return tr.begun.Load(), tr.kept.Load(), tr.dropped.Load()
}

// putSpan commits a span into its ring slot; the commit ticket is its ID.
func putSpan(dst, src *Span, ticket uint64) {
	*dst = *src
	dst.ID = ticket
}

// getSpan copies a committed span out, detached from its tracer.
func getSpan(src *Span) Span {
	c := *src
	c.tr = nil
	return c
}
