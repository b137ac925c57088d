package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightConfig parameterizes a FlightRecorder.
type FlightConfig struct {
	// Max bounds retained captures (oldest evicted; default 4).
	Max int
	// Spans bounds the slowest spans frozen per capture (default 64).
	Spans int
	// Windows bounds the window trace records frozen per capture
	// (default 32).
	Windows int
	// SLO, when positive, arms the latency trigger: any finished span
	// slower than SLO fires a capture (at most one per window).
	SLO time.Duration
	// Dir, when non-empty, additionally writes each capture to
	// flight-<seq>-<reason>.json under it.
	Dir string
	// Logger, when non-nil, gets one warn line per capture.
	Logger *slog.Logger
}

// Capture is one frozen flight-recorder snapshot: the spans and window
// records surrounding an SLO breach or a settled under-floor window, plus
// the admission-plane counters at freeze time.
type Capture struct {
	// Seq numbers captures per recorder, starting at 1.
	Seq uint64 `json:"seq"`
	// AtUnixNanos is the freeze wall-clock time.
	AtUnixNanos int64 `json:"at_unix_ns"`
	// Reason is "under_floor" or "slo_breach".
	Reason string `json:"reason"`
	// Window is the window sequence that tripped the trigger.
	Window uint64 `json:"window"`
	// Principal names the under-floor principal or the breaching span's
	// principal.
	Principal string `json:"principal,omitempty"`
	// Trigger is the breaching span, when the trigger was a span.
	Trigger *Span `json:"trigger,omitempty"`
	// Spans holds the slowest spans in the ring at freeze time,
	// slowest first.
	Spans []Span `json:"spans"`
	// Windows holds the most recent window trace records at freeze time.
	Windows []Record `json:"windows"`
	// Counters snapshots the bound counter sources (admission shard
	// counters and the like).
	Counters map[string]float64 `json:"counters,omitempty"`
}

// FlightRecorder freezes bounded forensic snapshots when the system misses
// its marks: a settled window that under-serves a floor, or a request span
// breaching the configured SLO. Triggers fire at most once per window so a
// bad window can't flood the capture buffer. All methods are safe for
// concurrent use; a nil *FlightRecorder is valid and inert.
type FlightRecorder struct {
	cfg FlightConfig

	tracer   *Tracer
	windows  []*Ring[Record]
	counters func() map[string]float64

	lastWindow atomic.Uint64 // highest window a capture fired for, +1
	seq        atomic.Uint64
	triggers   atomic.Uint64

	mu       sync.Mutex
	captures []*Capture
}

// NewFlightRecorder builds a recorder; bind data sources with BindTracer,
// BindWindows, BindAuditor and SetCounters before traffic starts.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Max <= 0 {
		cfg.Max = 4
	}
	if cfg.Spans <= 0 {
		cfg.Spans = 64
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 32
	}
	return &FlightRecorder{cfg: cfg}
}

// BindTracer attaches the span source and arms the SLO trigger on its
// Finish path.
func (f *FlightRecorder) BindTracer(tr *Tracer) {
	if f == nil || tr == nil {
		return
	}
	f.tracer = tr
	tr.flight = f
}

// BindWindows attaches the window trace rings whose recent records each
// capture freezes.
func (f *FlightRecorder) BindWindows(rings ...*Ring[Record]) {
	if f == nil {
		return
	}
	for _, r := range rings {
		if r != nil {
			f.windows = append(f.windows, r)
		}
	}
}

// BindAuditor arms the under-floor trigger: a settled window (global state
// present, non-conservative) that under-serves a principal's effective
// floor freezes a capture.
func (f *FlightRecorder) BindAuditor(a *Auditor) {
	if f == nil || a == nil {
		return
	}
	a.setOnUnderFloor(func(rec *Record, principal int) {
		if !rec.HaveGlobal || rec.Conservative {
			return
		}
		name := fmt.Sprintf("p%d", principal)
		if principal >= 0 && principal < len(a.names) {
			name = a.names[principal]
		}
		f.Trigger("under_floor", rec.Window, name, nil)
	})
}

// SetCounters installs the counter snapshot source included in each
// capture (typically the admission plane's per-shard counters).
func (f *FlightRecorder) SetCounters(fn func() map[string]float64) {
	if f == nil {
		return
	}
	f.counters = fn
}

// noteSpan is the Tracer.Finish hook: it fires the SLO trigger for spans
// slower than the configured threshold.
func (f *FlightRecorder) noteSpan(s *Span, d time.Duration) {
	if f.cfg.SLO <= 0 || d < f.cfg.SLO {
		return
	}
	c := getSpan(s)
	f.Trigger("slo_breach", s.Window, s.Principal, &c)
}

// Trigger freezes a capture for the given window unless one already fired
// for it (exactly-once-per-window, enforced with a CAS loop so concurrent
// triggers on the same window collapse to one capture). It reports whether
// a capture was taken. Exposed for tests and operator tooling.
func (f *FlightRecorder) Trigger(reason string, window uint64, principal string, trigger *Span) bool {
	if f == nil {
		return false
	}
	for {
		last := f.lastWindow.Load()
		if window+1 <= last {
			return false
		}
		if f.lastWindow.CompareAndSwap(last, window+1) {
			break
		}
	}
	f.triggers.Add(1)
	f.capture(reason, window, principal, trigger)
	return true
}

// Triggers reports how many captures have fired.
func (f *FlightRecorder) Triggers() uint64 {
	if f == nil {
		return 0
	}
	return f.triggers.Load()
}

func (f *FlightRecorder) capture(reason string, window uint64, principal string, trigger *Span) {
	cap := &Capture{
		Seq:         f.seq.Add(1),
		AtUnixNanos: time.Now().UnixNano(),
		Reason:      reason,
		Window:      window,
		Principal:   principal,
		Trigger:     trigger,
	}
	if tr := f.tracer; tr != nil {
		spans := tr.Ring().Snapshot(tr.Ring().Depth())
		sort.Slice(spans, func(i, j int) bool { return spans[i].TotalNanos > spans[j].TotalNanos })
		if len(spans) > f.cfg.Spans {
			spans = spans[:f.cfg.Spans]
		}
		cap.Spans = spans
	}
	for _, r := range f.windows {
		cap.Windows = append(cap.Windows, r.Snapshot(f.cfg.Windows)...)
	}
	if f.counters != nil {
		cap.Counters = f.counters()
	}

	f.mu.Lock()
	f.captures = append(f.captures, cap)
	if len(f.captures) > f.cfg.Max {
		f.captures = f.captures[len(f.captures)-f.cfg.Max:]
	}
	f.mu.Unlock()

	if f.cfg.Logger != nil {
		f.cfg.Logger.Warn("flight capture frozen",
			"seq", cap.Seq, "reason", reason, "window", window, "principal", principal,
			"spans", len(cap.Spans), "windows", len(cap.Windows))
	}
	if f.cfg.Dir != "" {
		f.persist(cap)
	}
}

func (f *FlightRecorder) persist(c *Capture) error {
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		if f.cfg.Logger != nil {
			f.cfg.Logger.Error("flight capture dir", "err", err)
		}
		return err
	}
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("flight-%d-%s.json", c.Seq, c.Reason))
	b, err := json.MarshalIndent(c, "", "  ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil && f.cfg.Logger != nil {
		f.cfg.Logger.Error("flight capture persist", "path", path, "err", err)
	}
	return err
}

// Flush writes every retained capture to the configured Dir and reports how
// many landed on disk. File names are derived from each capture's sequence
// number, so a flush is idempotent: captures already written at freeze time
// are rewritten in place, not duplicated. Intended for graceful shutdown —
// a SIGTERM handler calls Flush so forensic state armed in memory survives
// the process. A nil recorder, an empty Dir, or zero captures flush 0.
func (f *FlightRecorder) Flush() int {
	if f == nil || f.cfg.Dir == "" {
		return 0
	}
	f.mu.Lock()
	caps := make([]*Capture, len(f.captures))
	copy(caps, f.captures)
	f.mu.Unlock()
	written := 0
	for _, c := range caps {
		if f.persist(c) == nil {
			written++
		}
	}
	return written
}

// Captures returns up to max retained captures, newest first (all when
// max ≤ 0).
func (f *FlightRecorder) Captures(max int) []*Capture {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Capture, 0, len(f.captures))
	for i := len(f.captures) - 1; i >= 0; i-- {
		out = append(out, f.captures[i])
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
