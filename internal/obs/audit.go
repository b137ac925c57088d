package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// auditTol absorbs floating-point dust when comparing served volume against
// entitlement bounds.
const auditTol = 1e-6

// carrySlack is the ≤1 request of unused credit §4.1's scheme carries across
// windows, per credit cell: a window may legitimately admit up to one request
// beyond its fresh grant, or one fewer per cell than a fractional share.
const carrySlack = 1.0

// Auditor folds committed window records into the paper's enforcement
// invariant: every window, each principal must be served at least its
// mandatory entitlement share (clipped to observed demand) and at most its
// mandatory+optional ceiling, both within the whole request per credit cell
// the carry moves between windows. All counters are atomic; one auditor is
// typically shared by every redirector of a process. A nil *Auditor is a
// valid no-op receiver.
//
// The per-principal verdicts are local to the auditing redirector: Floor and
// Ceil in each record are that redirector's share of the global bounds, so a
// fleet-wide invariant check sums the exported counters across redirectors.
type Auditor struct {
	names []string

	windows      atomic.Int64
	conservative atomic.Int64 // staleness / blind fallback windows
	noGlobal     atomic.Int64 // windows with no global view at all
	solveErrors  atomic.Int64 // windows left on stale credits by LP failure
	cacheHits    atomic.Int64 // windows whose plan came from the shared cache
	degraded     atomic.Int64 // windows scheduled on reduced (re-interpreted) capacity

	underMC []atomic.Int64 // windows served below the mandatory share
	overUB  []atomic.Int64 // windows admitted above the MC+OC ceiling
	served  []atomicFloat64
	arrived []atomicFloat64

	// versionSlots detects mixed-version windows during configuration
	// rollouts: slot w%128 holds window<<16 | version&0xffff for the newest
	// window number observed in it. Two redirectors committing the same
	// window number under different agreement-set versions bump
	// mixedVersion — the epoch-gate invariant ("no window mixes old and new
	// entitlements") as a scrapeable counter. Version 0 is the boot
	// configuration, a version like any other. Window 0 is each redirector's
	// own boot window, aligned with no other redirector's, so it is not
	// compared and the zero slot never aliases a real observation.
	versionSlots [versionSlotCount]atomic.Uint64
	mixedVersion atomic.Int64

	// onUnderFloor, when set, is called for each under-floor verdict with
	// the offending record and principal index (flight-recorder trigger).
	onUnderFloor atomic.Pointer[func(rec *Record, principal int)]
}

// versionSlotCount is the mixed-version detector's ring size; it only needs
// to cover the windows simultaneously in flight across redirectors.
const versionSlotCount = 128

// NewAuditor builds an auditor labeling principals with names.
func NewAuditor(names []string) *Auditor {
	n := len(names)
	return &Auditor{
		names:   append([]string(nil), names...),
		underMC: make([]atomic.Int64, n),
		overUB:  make([]atomic.Int64, n),
		served:  make([]atomicFloat64, n),
		arrived: make([]atomicFloat64, n),
	}
}

// Names returns the principal labels.
func (a *Auditor) Names() []string {
	if a == nil {
		return nil
	}
	return a.names
}

// Observe folds one completed window record into the counters. Zero
// allocations; safe for concurrent use.
func (a *Auditor) Observe(rec *Record) {
	if a == nil {
		return
	}
	a.windows.Add(1)
	if rec.Conservative {
		a.conservative.Add(1)
	}
	if !rec.HaveGlobal {
		a.noGlobal.Add(1)
	}
	if rec.SolveErr {
		a.solveErrors.Add(1)
	}
	if rec.CacheHit {
		a.cacheHits.Add(1)
	}
	if rec.Degraded {
		a.degraded.Add(1)
	}
	if rec.Window > 0 {
		slot := &a.versionSlots[rec.Window%versionSlotCount]
		packed := rec.Window<<16 | (rec.ConfigVersion & 0xffff)
		for {
			old := slot.Load()
			if old>>16 > rec.Window {
				break // a newer window already owns the slot
			}
			if old>>16 == rec.Window {
				if old&0xffff != packed&0xffff {
					a.mixedVersion.Add(1)
				}
				break
			}
			if slot.CompareAndSwap(old, packed) {
				break
			}
		}
	}
	n := len(a.underMC)
	if len(rec.Served) < n {
		n = len(rec.Served)
	}
	for i := 0; i < n; i++ {
		served, demand := rec.Served[i], rec.Arrived[i]
		a.served[i].Add(served)
		a.arrived[i].Add(demand)
		// Under-enforcement: the window admitted less than min(Floor,
		// Arrived) — its floor share, or every request when fewer arrived —
		// by more than the carry leaves room for. Requests are whole and a
		// share is not: a grant of 13.6 in one cell admits 13, and one spread
		// over several owners' cells up to one fewer per cell.
		floor := rec.Floor[i]
		if demand < floor {
			floor = demand
		}
		if served+carrySlack*float64(max(1, rec.Cells))+auditTol < floor {
			a.underMC[i].Add(1)
			if fn := a.onUnderFloor.Load(); fn != nil {
				(*fn)(rec, i)
			}
		}
		// Over-admission: the window admitted beyond the agreement ceiling
		// plus the one-request credit carry the scheme permits.
		if rec.Ceil[i] < math.MaxFloat64 && served > rec.Ceil[i]+carrySlack+auditTol {
			a.overUB[i].Add(1)
		}
	}
}

// setOnUnderFloor installs the under-floor verdict hook (nil clears it).
func (a *Auditor) setOnUnderFloor(fn func(rec *Record, principal int)) {
	if a == nil {
		return
	}
	if fn == nil {
		a.onUnderFloor.Store(nil)
		return
	}
	a.onUnderFloor.Store(&fn)
}

// Windows reports how many windows have been audited.
func (a *Auditor) Windows() int64 {
	if a == nil {
		return 0
	}
	return a.windows.Load()
}

// Conservative reports windows run in the blind 1/R mandatory fallback.
func (a *Auditor) Conservative() int64 {
	if a == nil {
		return 0
	}
	return a.conservative.Load()
}

// NoGlobal reports windows run before any global aggregate arrived.
func (a *Auditor) NoGlobal() int64 {
	if a == nil {
		return 0
	}
	return a.noGlobal.Load()
}

// SolveErrors reports windows whose LP solve failed (stale credits reused).
func (a *Auditor) SolveErrors() int64 {
	if a == nil {
		return 0
	}
	return a.solveErrors.Load()
}

// CacheHits reports windows planned from the shared plan cache.
func (a *Auditor) CacheHits() int64 {
	if a == nil {
		return 0
	}
	return a.cacheHits.Load()
}

// Degraded reports windows scheduled while the health checker held at least
// one backend down (entitlements recomputed from reduced capacity).
func (a *Auditor) Degraded() int64 {
	if a == nil {
		return 0
	}
	return a.degraded.Load()
}

// MixedVersion reports how many times two redirectors ran the same window
// number against different agreement-set versions — zero whenever the
// epoch-gated rollout swapped every admission point atomically at a window
// boundary.
func (a *Auditor) MixedVersion() int64 {
	if a == nil {
		return 0
	}
	return a.mixedVersion.Load()
}

// UnderMC reports windows in which principal i was served below its
// mandatory share despite sufficient demand.
func (a *Auditor) UnderMC(i int) int64 {
	if a == nil || i < 0 || i >= len(a.underMC) {
		return 0
	}
	return a.underMC[i].Load()
}

// OverUB reports windows in which principal i was admitted above its
// mandatory+optional ceiling (beyond the one-request carry).
func (a *Auditor) OverUB(i int) int64 {
	if a == nil || i < 0 || i >= len(a.overUB) {
		return 0
	}
	return a.overUB[i].Load()
}

// Served reports the cumulative admitted volume for principal i.
func (a *Auditor) Served(i int) float64 {
	if a == nil || i < 0 || i >= len(a.served) {
		return 0
	}
	return a.served[i].Load()
}

// Arrived reports the cumulative observed demand for principal i.
func (a *Auditor) Arrived(i int) float64 {
	if a == nil || i < 0 || i >= len(a.arrived) {
		return 0
	}
	return a.arrived[i].Load()
}

// String renders a one-line operator summary.
func (a *Auditor) String() string {
	if a == nil {
		return "auditor: disabled"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "audited %d windows (%d conservative, %d solve errors):",
		a.Windows(), a.Conservative(), a.SolveErrors())
	for i, name := range a.names {
		fmt.Fprintf(&sb, " %s under=%d over=%d", name, a.UnderMC(i), a.OverUB(i))
	}
	return sb.String()
}

// atomicFloat64 is an atomic float accumulator (CAS on the bit pattern).
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}
