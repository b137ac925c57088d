// Package obs is the enforcement observability layer: it turns the paper's
// per-window enforcement decisions — which every redirector takes silently
// against possibly-stale global state — into inspectable artifacts.
//
// Three pieces compose:
//
//   - Window tracing: core.Redirector fills one fixed-size Record per
//     scheduling window (queue snapshots, global-view age, conservative
//     fallback, combining-tree progress, LP solve status, granted credits
//     and the admissions actually made) and commits it to a pre-allocated
//     Ring — the one ring type, which a Tracer's request spans share. The
//     record path performs zero heap allocations, so tracing can stay on
//     under production load (BenchmarkWindowTraceOverhead guards this).
//   - SLA conformance auditing: an Auditor folds committed records into
//     per-principal counters of windows served below the mandatory
//     entitlement share (under-enforcement) and above the mandatory+optional
//     ceiling (over-admission), plus staleness-fallback and solve-failure
//     tallies — the paper's §3.1 guarantee as a scrapeable invariant.
//   - Exposition: Handler serves Prometheus-text /v1/metrics, JSON
//     /v1/debug/windows (the last N trace records) and net/http/pprof, mounted
//     on the Layer-7 redirector's mux and on the optional admin listener of
//     cmd/redirector and cmd/backend. NewLogger configures log/slog's text
//     handler for the repo's leveled logfmt events.
//
// An Observer bundles the three for one redirector. Every per-principal
// counter a single redirector exports is that redirector's local share of
// the global invariant; summing the series across redirectors (for example
// with PromQL sum by (principal)) recovers the aggregate guarantee.
package obs

import (
	"fmt"
	"time"
)

// Record is one per-window trace record. A record describes one completed
// scheduling window: the inputs the redirector scheduled with (filled when
// the window opens) and the outcome (filled when the next window closes it).
// All slices are indexed by principal and pre-allocated; durations are
// nanosecond integers so records marshal to JSON without losing resolution.
type Record struct {
	// Redirector is the admission point that ran the window.
	Redirector int `json:"redirector"`
	// Window is the redirector's window sequence number. Window 0 is the
	// blind window a redirector runs from construction (or restart) to its
	// first boundary; scheduled windows count from 1, or on from the
	// restored sequence after a restart.
	Window uint64 `json:"window"`
	// AtNanos is the redirector-relative time the window opened.
	AtNanos int64 `json:"at_ns"`

	// Conservative reports that the window ran in the blind 1/R
	// mandatory-claim fallback (no global view, or one older than the
	// configured staleness bound).
	Conservative bool `json:"conservative"`
	// HaveGlobal reports whether any global aggregate had been received.
	HaveGlobal bool `json:"have_global"`
	// GlobalAgeNanos is how old the global view was when the window opened
	// (0 when none was held).
	GlobalAgeNanos int64 `json:"global_age_ns"`

	// TreeEpoch/TreeGlobalEpoch are the combining-tree's local epoch and the
	// epoch of the last global broadcast applied; the message counters are
	// cumulative since the node started. All zero without a tree.
	TreeEpoch       int    `json:"tree_epoch"`
	TreeGlobalEpoch int    `json:"tree_global_epoch"`
	TreeMsgsIn      uint64 `json:"tree_msgs_in"`
	TreeMsgsOut     uint64 `json:"tree_msgs_out"`

	// Degraded reports the window was scheduled while the health checker held
	// at least one backend down — entitlements were computed from reduced,
	// re-interpreted capacities (§2.2).
	Degraded bool `json:"degraded"`

	// CacheHit reports the window plan came from the engine's plan
	// cache; SolveNanos is the wall-clock latency of acquiring the plan
	// (lookup or LP solve). SolveErr marks a window whose solve failed, so
	// the previous window's credits stayed in force.
	CacheHit   bool  `json:"cache_hit"`
	SolveNanos int64 `json:"solve_ns"`
	SolveErr   bool  `json:"solve_err"`

	// ConfigVersion is the agreement-set version (see
	// core.Engine.LastSetVersion) of the generation the window was scheduled
	// against, 0 for the boot configuration — the rollout audit trail for
	// runtime renegotiations. Engines enforcing the same set record the same
	// version whatever their local generation counts.
	ConfigVersion uint64 `json:"config_version"`

	// Local is the EWMA demand estimate the window scheduled with; Global is
	// the global queue aggregate used (zero when conservative).
	Local  []float64 `json:"local"`
	Global []float64 `json:"global"`
	// Granted is the admission credit issued per principal for this window
	// (excluding the ≤1 request carried over from the previous window).
	Granted []float64 `json:"granted"`
	// Floor and Ceil are this redirector's local share of the per-window
	// enforcement bounds: Floor is the mandatory entitlement share MC_i
	// (scaled by the local demand fraction, or 1/R when conservative), Ceil
	// the mandatory+optional ceiling share. The Auditor clips Floor to the
	// demand actually observed before judging under-enforcement.
	Floor []float64 `json:"floor"`
	Ceil  []float64 `json:"ceil"`
	// Arrived and Served are the outcome: submissions received and
	// admissions made during the window, in average-request cost units.
	Arrived []float64 `json:"arrived"`
	Served  []float64 `json:"served"`
	// Cells is the most credit cells any principal's credit was spread over
	// this window: the owners holding some of it in community mode, one in
	// provider mode. Admission spends a cell in whole requests, so each may
	// leave up to one request's fraction for the carry to move on.
	Cells int `json:"cells"`
}

// recordVectors is how many principal-wide vectors a Record carries.
const recordVectors = 7

// NewRecord pre-allocates a record for n principals.
func NewRecord(n int) *Record {
	r := &Record{}
	r.carve(make([]float64, recordVectors*n), n)
	return r
}

// carve points r's vectors at consecutive n-long pieces of flat, each capped
// at its length, and returns what is left of flat.
func (r *Record) carve(flat []float64, n int) []float64 {
	for _, v := range [recordVectors]*[]float64{&r.Local, &r.Global, &r.Granted, &r.Floor, &r.Ceil, &r.Arrived, &r.Served} {
		*v, flat = flat[:n:n], flat[n:]
	}
	return flat
}

// putRecord deep-copies src into a ring slot's record, whose vectors are
// pre-sized for the same number of principals. No allocations.
func putRecord(dst, src *Record, _ uint64) {
	local, global := dst.Local, dst.Global
	granted, floor, ceil := dst.Granted, dst.Floor, dst.Ceil
	arrived, served := dst.Arrived, dst.Served
	*dst = *src
	dst.Local = append(local[:0], src.Local...)
	dst.Global = append(global[:0], src.Global...)
	dst.Granted = append(granted[:0], src.Granted...)
	dst.Floor = append(floor[:0], src.Floor...)
	dst.Ceil = append(ceil[:0], src.Ceil...)
	dst.Arrived = append(arrived[:0], src.Arrived...)
	dst.Served = append(served[:0], src.Served...)
}

// getRecord copies a ring slot's record out into vectors of its own.
func getRecord(src *Record) Record {
	dst := NewRecord(len(src.Local))
	putRecord(dst, src, 0)
	return *dst
}

// TreeInfo is a snapshot of combining-tree progress for trace records.
type TreeInfo struct {
	Epoch       int
	GlobalEpoch int
	MsgsIn      uint64
	MsgsOut     uint64
}

// ObserverConfig parameterizes NewObserver.
type ObserverConfig struct {
	// Redirector stamps every record with the admission point's id.
	Redirector int
	// Names labels the principals (defaults to P0, P1, ...); its length
	// fixes the per-record vector width.
	Names []string
	// Principals overrides the vector width when Names is nil.
	Principals int
	// RingDepth is how many trace records are retained (default 256).
	RingDepth int
	// Auditor, when non-nil, is shared with other observers (one auditor per
	// engine aggregates all admission points of a process); nil builds a
	// private one.
	Auditor *Auditor
}

// DefaultRingDepth is the trace-ring capacity used when none is configured:
// at the paper's 100 ms windows it retains the last ~25 s of decisions.
const DefaultRingDepth = 256

// Observer bundles the trace ring and the conformance auditor for one
// redirector. Commit is safe to call concurrently with ring snapshots and
// metric scrapes; each Observer expects a single committing writer (its
// redirector's window loop).
type Observer struct {
	id         int
	n          int
	ring       *Ring[Record]
	auditor    *Auditor
	treeInfo   func() TreeInfo
	healthInfo func() bool
}

// NewObserver builds an observer.
func NewObserver(cfg ObserverConfig) *Observer {
	n := len(cfg.Names)
	if n == 0 {
		n = cfg.Principals
	}
	names := cfg.Names
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("P%d", i)
		}
	}
	depth := cfg.RingDepth
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	aud := cfg.Auditor
	if aud == nil {
		aud = NewAuditor(names)
	}
	return &Observer{
		id:      cfg.Redirector,
		n:       n,
		ring:    NewRing(depth, n),
		auditor: aud,
	}
}

// Redirector returns the admission-point id records are stamped with.
func (o *Observer) Redirector() int { return o.id }

// NumPrincipals returns the per-record vector width.
func (o *Observer) NumPrincipals() int { return o.n }

// Ring exposes the trace ring (snapshots for /v1/debug/windows and tests).
func (o *Observer) Ring() *Ring[Record] { return o.ring }

// Auditor exposes the conformance auditor.
func (o *Observer) Auditor() *Auditor { return o.auditor }

// SetTreeInfo installs a combining-tree snapshot callback, invoked once per
// committed window from the redirector's window loop. The callback runs
// under whatever lock serializes that loop; implementations read the tree
// node directly.
func (o *Observer) SetTreeInfo(fn func() TreeInfo) { o.treeInfo = fn }

// SetHealthInfo installs a degraded-state callback, invoked once per window
// alongside the tree snapshot. It reports whether any backend is currently
// held down by the health checker; windows scheduled in that state carry the
// Degraded flag.
func (o *Observer) SetHealthInfo(fn func() bool) { o.healthInfo = fn }

// NewRecord allocates a record sized for this observer's principals, stamped
// with its redirector id. Redirectors allocate one and reuse it every
// window.
func (o *Observer) NewRecord() *Record {
	rec := NewRecord(o.n)
	rec.Redirector = o.id
	return rec
}

// FillTree stamps rec with the current combining-tree snapshot (no-op
// without a callback). Zero allocations.
func (o *Observer) FillTree(rec *Record) {
	if o.treeInfo == nil {
		return
	}
	ti := o.treeInfo()
	rec.TreeEpoch = ti.Epoch
	rec.TreeGlobalEpoch = ti.GlobalEpoch
	rec.TreeMsgsIn = ti.MsgsIn
	rec.TreeMsgsOut = ti.MsgsOut
}

// FillHealth stamps rec with the current degraded flag (no-op without a
// callback). Zero allocations.
func (o *Observer) FillHealth(rec *Record) {
	if o.healthInfo == nil {
		return
	}
	rec.Degraded = o.healthInfo()
}

// Commit publishes one completed window: the record is appended to the ring
// and folded into the auditor. rec remains owned by the caller and may be
// reused immediately. Zero allocations.
func (o *Observer) Commit(rec *Record) {
	o.ring.Append(rec)
	o.auditor.Observe(rec)
}

// Nanos converts a duration for a record or span field, clamping a negative
// one to 0.
func Nanos(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(d)
}
