// Package core implements the paper's agreement-enforcement engine: the
// piece each redirector runs to decide, window by window, which incoming
// requests to forward to which servers so that the aggregate system honors
// the resource sharing agreements.
//
// An Engine captures the static side — the agreement graph folded into
// entitlements (internal/agreement) and the scheduling model
// (internal/sched) — for one admission point, and stamps out its Redirector:
// each admission point runs its own engine, as in the paper each redirector
// enforces its own windows. The Redirector implements the credit scheme of
// §4.1 (implicit queuing): at every window boundary it solves the LP on
// *global* queue estimates, scales the plan to its local share (§3.2), and
// converts the result into per-principal credits that admit or
// self-redirect individual requests with O(1) work per request.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Mode selects the optimization context of §3.1.2.
type Mode int

const (
	// Community minimizes the maximum response time across participants
	// (max–min served fraction).
	Community Mode = iota
	// Provider maximizes a service provider's income.
	Provider
)

// String names the mode.
func (m Mode) String() string {
	if m == Community {
		return "community"
	}
	return "provider"
}

// ErrConfig reports invalid engine configuration.
var ErrConfig = errors.New("core: invalid config")

// Config parameterizes an Engine.
type Config struct {
	Mode   Mode
	System *agreement.System
	// Window is the scheduling time window; the paper uses 100 ms.
	Window time.Duration
	// NumRedirectors is how many admission points share enforcement; a
	// redirector lacking global information conservatively claims only
	// 1/NumRedirectors of each mandatory entitlement (§5.1, Figure 8).
	NumRedirectors int
	// Staleness bounds how old global queue information may be before a
	// redirector falls back to conservative mode; 0 means never (the paper
	// tolerates arbitrarily lagged estimates once received).
	Staleness time.Duration

	// ProviderPrincipal is the owner of the servers in Provider mode.
	ProviderPrincipal agreement.Principal
	// Prices maps customers to the per-request price beyond their
	// mandatory level (Provider mode); missing customers default to 1.
	Prices map[agreement.Principal]float64

	// LocalityCaps optionally bounds, per owner, the requests one
	// redirector may push per window (Community mode, §3.1.2 extension).
	LocalityCaps []float64

	// AggressiveWhenBlind makes a redirector without global information
	// claim each principal's FULL mandatory entitlement instead of the
	// 1/NumRedirectors share. Exists for the ablation that shows why the
	// paper's conservative rule matters: with a principal's demand split
	// across blind redirectors, aggressive claiming admits multiples of
	// the mandatory rate and overloads servers. Never enable in production.
	AggressiveWhenBlind bool

	// Logger receives enforcement-degradation events (floor fallbacks,
	// conservative windows) from the engine and its schedulers. Nil falls
	// back to the process-wide obs.Default logger.
	Logger *slog.Logger
}

// Version numbers the engine's immutable scheduling generations. Every
// accepted mutation — capacity re-interpretation, agreement renegotiation, a
// control-plane set rollout — produces the next Version; a window is
// scheduled entirely against one generation, never a mix.
type Version uint64

// Engine holds the precomputed enforcement state of one admission point.
// Entitlements fold the agreement graph once; capacity changes re-scale
// them cheaply via UpdateCapacities (the paper's dynamic interpretation of
// agreements, §2.2). The mutex makes scheduler swaps safe against
// concurrently running redirector windows in the socket front-ends.
//
// # Mutator contract
//
// UpdateCapacities and StageSet share one locked rebuild path: each
// validates its input, derives a complete new
// generation (entitlements, scheduler, plan caches, lease credit) under
// e.mu, and either commits it atomically or rolls the configuration back,
// returning the Version now active. They are safe to call concurrently with
// each other and with running redirector windows: a window that raced the
// mutation finishes on the generation it snapshotted, and the next
// StartWindow picks up the new one. Plan caches are created fresh exactly
// once per generation, so a plan computed against old entitlements can never
// satisfy a lookup after the swap.
type Engine struct {
	cfg     Config
	n       int
	windowS float64
	flows   *agreement.Flows
	stats   *metrics.SolverStats // fast-path telemetry (never nil)

	mu  sync.RWMutex
	cur schedState // active generation (version == e.version)
	// staged, when non-nil, is the next generation waiting behind the epoch
	// gate of a control-plane rollout (see StageSet/stateFor).
	staged    *stagedGen
	version   Version // active generation number
	lastBuilt Version // monotonic generation counter (staged included)
	lastSet   uint64  // newest agreement.Set version accepted
	// lease is the per-window lease credit of the newest accepted set (nil
	// while no lease is active), shared by every generation built from it.
	lease []float64
	// served and redID record the one admission point this engine serves
	// (NewRedirector): a staged generation promotes when it crosses.
	served   bool
	redID    int
	rollouts uint64 // epoch-gated rollouts completed

	// rolloutGate is 0 whenever no rollout is in flight — the steady-state
	// fast path: stateFor does one atomic load and falls through to the
	// plain RLock snapshot, keeping the window hot path unchanged.
	rolloutGate atomic.Int64
}

// stagedGen is a generation staged behind an epoch gate: it is promoted to
// cur when the engine's redirector reaches gateEpoch having acknowledged the
// set version the generation was built from.
type stagedGen struct {
	state     schedState
	gateEpoch int
}

// RolloutInfo is a snapshot of the engine's version state for the admin API
// and /metrics.
type RolloutInfo struct {
	// Active is the generation windows currently schedule against; Staged
	// is the generation waiting behind the epoch gate (0 when none).
	Active Version `json:"active"`
	Staged Version `json:"staged,omitempty"`
	// SetVersion is the newest agreement-set version accepted; GateEpoch the
	// tree epoch the staged generation is gated on.
	SetVersion uint64 `json:"set_version"`
	GateEpoch  int    `json:"gate_epoch,omitempty"`
	// Rollouts counts staged generations promoted since start.
	Rollouts uint64 `json:"rollouts"`
}

// NewEngine validates cfg, folds the agreement graph, and builds the window
// scheduler.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.System == nil || cfg.System.NumPrincipals() == 0 {
		return nil, fmt.Errorf("%w: nil or empty system", ErrConfig)
	}
	if cfg.Window <= 0 {
		cfg.Window = 100 * time.Millisecond
	}
	if cfg.NumRedirectors <= 0 {
		cfg.NumRedirectors = 1
	}
	n := cfg.System.NumPrincipals()
	if cfg.Mode != Community && cfg.Mode != Provider {
		return nil, fmt.Errorf("%w: unknown mode %d", ErrConfig, int(cfg.Mode))
	}
	if cfg.Mode == Provider {
		if p := cfg.ProviderPrincipal; int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("%w: provider principal %d out of range", ErrConfig, int(p))
		}
	}
	if cfg.Mode == Community && cfg.LocalityCaps != nil && len(cfg.LocalityCaps) != n {
		return nil, fmt.Errorf("%w: locality caps length %d, want %d", ErrConfig, len(cfg.LocalityCaps), n)
	}

	flows, err := cfg.System.Flows()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		n:       n,
		windowS: cfg.Window.Seconds(),
		flows:   flows,
		stats:   &metrics.SolverStats{},
	}
	st, err := e.buildState(flows, cfg.System.Capacities())
	if err != nil {
		return nil, err
	}
	e.commitLocked(flows, st)
	return e, nil
}

// buildState derives a complete new scheduling generation — entitlements,
// scheduler, fresh plan caches — from flows and the given capacity vector
// (requests/second), stamped with the newest accepted set's version and
// lease credit. Nothing visible to redirectors changes until the caller
// commits or stages the result. Callers hold e.mu or own e exclusively.
func (e *Engine) buildState(flows *agreement.Flows, capacities []float64) (schedState, error) {
	st := schedState{setVersion: e.lastSet, lease: e.lease}
	access, err := flows.ScaledAccess(capacities, e.windowS)
	if err != nil {
		return st, err
	}

	switch e.cfg.Mode {
	case Community:
		capWin := make([]float64, e.n)
		for i := 0; i < e.n; i++ {
			capWin[i] = capacities[i] * e.windowS
		}
		var loc []float64
		if e.cfg.LocalityCaps != nil {
			loc = make([]float64, e.n)
			for i, c := range e.cfg.LocalityCaps {
				loc[i] = c * e.windowS
			}
		}
		community, err := sched.NewCommunity(access, capWin, loc)
		if err != nil {
			return st, err
		}
		rowCap := make([]float64, e.n)
		for k := range rowCap {
			rowCap[k] = capWin[k]
			if loc != nil {
				rowCap[k] = min(rowCap[k], loc[k])
			}
		}
		st.access, st.community, st.rowCap = access, community, rowCap
	case Provider:
		p := e.cfg.ProviderPrincipal
		customers := make([]agreement.Principal, 0, e.n-1)
		mc, oc, prices := make([]float64, 0, e.n-1), make([]float64, 0, e.n-1), make([]float64, 0, e.n-1)
		for i := 0; i < e.n; i++ {
			if agreement.Principal(i) == p {
				continue
			}
			customers = append(customers, agreement.Principal(i))
			mc = append(mc, access.MC[i])
			oc = append(oc, access.OC[i])
			price := 1.0
			if v, ok := e.cfg.Prices[agreement.Principal(i)]; ok {
				price = v
			}
			prices = append(prices, price)
		}
		provTotal := capacities[p] * e.windowS
		provider, err := sched.NewProvider(mc, oc, prices, provTotal)
		if err != nil {
			return st, err
		}
		st.access, st.customers, st.provTotal, st.provider = access, customers, provTotal, provider
	}
	e.wireState(&st)
	return st, nil
}

// wireState wires telemetry into a freshly built generation and gives it its
// own plan caches: plans computed against another generation's entitlements
// must never satisfy a lookup (each Version invalidates the cache exactly
// once, at build time). Callers hold e.mu or own e exclusively.
func (e *Engine) wireState(st *schedState) {
	e.lastBuilt++
	st.version = e.lastBuilt
	if st.community != nil {
		st.community.SetStats(e.stats)
		st.community.SetLogger(e.Logger())
	}
	if st.provider != nil {
		st.provider.SetStats(e.stats)
		st.provider.SetLogger(e.Logger())
	}
	switch e.cfg.Mode {
	case Community:
		st.plans = sched.NewPlanCache(e.stats, (*sched.Plan).CopyFrom)
	case Provider:
		st.provPlans = sched.NewPlanCache(e.stats, (*sched.ProviderPlan).CopyFrom)
		st.provQueues = make([]float64, len(st.customers))
	}
}

// commitLocked installs a built generation as the active one, cancelling any
// staged rollout (the direct mutation supersedes it). Callers hold e.mu or
// own e exclusively.
func (e *Engine) commitLocked(flows *agreement.Flows, st schedState) {
	e.flows = flows
	e.cur = st
	e.version = st.version
	e.staged = nil
	e.rolloutGate.Store(0)
}

// UpdateCapacities re-interprets the agreements against new physical
// resource levels (requests/second, indexed by principal) without
// re-enumerating agreement paths — the paper's §2.2 dynamic-interpretation
// property — and returns the Version now active. The system object is kept
// in sync; on error both it and the schedulers are left as they were. See
// the Engine mutator contract: safe to call while redirectors are running
// (health checkers do, from their probe goroutines); the next StartWindow
// uses the new entitlements.
func (e *Engine) UpdateCapacities(capacities []float64) (Version, error) {
	// The whole update runs under e.mu: health checkers call this from their
	// probe goroutines, concurrently with window scheduling and each other.
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(capacities) != e.n {
		return e.version, fmt.Errorf("%w: %d capacities for %d principals", ErrConfig, len(capacities), e.n)
	}
	old := e.cfg.System.Capacities()
	for i, v := range capacities {
		if err := e.cfg.System.SetCapacity(agreement.Principal(i), v); err != nil {
			for j := 0; j < i; j++ {
				_ = e.cfg.System.SetCapacity(agreement.Principal(j), old[j])
			}
			return e.version, err
		}
	}
	st, err := e.buildState(e.flows, capacities)
	if err != nil {
		for i := range old {
			_ = e.cfg.System.SetCapacity(agreement.Principal(i), old[i])
		}
		return e.version, err
	}
	e.commitLocked(e.flows, st)
	return e.version, nil
}

// Capacities returns a copy of the current physical capacity vector,
// indexed by principal. Health-driven re-interpretation captures this as the
// nominal baseline before scaling owners by their surviving backends.
func (e *Engine) Capacities() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.System.Capacities()
}

// System returns the engine's agreement system. Mutating it directly
// bypasses the mutator contract: change capacities through
// UpdateCapacities and agreements through StageSet (or a ctrlplane.Plane,
// which validates on a private clone first).
func (e *Engine) System() *agreement.System { return e.cfg.System }

// StageSet applies a versioned agreement set (a control-plane snapshot),
// leases included, and stages the resulting generation behind gateEpoch: the
// redirector keeps scheduling on the active generation until its
// combining-tree epoch reaches the gate AND it has learned of the set
// (Redirector.SetRollout), then swaps at its next window boundary and the
// generation is promoted. gateEpoch <= 0 — or an engine with no redirector —
// commits immediately. Sets at or below the newest accepted version are
// ignored (idempotent re-delivery). Returns the staged (or committed)
// Version. See the Engine mutator contract; the incremental refold covers
// exactly the owners the set changed.
func (e *Engine) StageSet(set *agreement.Set, gateEpoch int) (Version, error) {
	if set == nil {
		return e.Version(), fmt.Errorf("%w: nil agreement set", ErrConfig)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if set.Version <= e.lastSet {
		return e.version, nil
	}
	undo := e.cfg.System.Snapshot(0)
	dirty, err := e.cfg.System.ApplySet(set)
	if err != nil {
		return e.version, err // ApplySet is all-or-nothing
	}
	flows, err := e.cfg.System.RefoldFrom(e.flows, dirty)
	if err != nil {
		_, _ = e.cfg.System.ApplySet(undo)
		return e.version, err
	}
	st, err := e.buildState(flows, e.cfg.System.Capacities())
	if err != nil {
		_, _ = e.cfg.System.ApplySet(undo)
		return e.version, err
	}
	st.setVersion, st.lease = set.Version, e.leaseCredits(set.Leases)
	e.lastSet, e.lease = st.setVersion, st.lease
	if gateEpoch <= 0 || !e.served {
		e.commitLocked(flows, st)
		return e.version, nil
	}
	e.flows = flows
	e.staged = &stagedGen{state: st, gateEpoch: gateEpoch}
	e.rolloutGate.Store(int64(gateEpoch))
	return st.version, nil
}

// Version returns the active generation number.
func (e *Engine) Version() Version {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// LastSetVersion returns the newest agreement-set version accepted by
// StageSet (0 before any).
func (e *Engine) LastSetVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lastSet
}

// Rollout snapshots the version/rollout state for the admin API and metrics.
func (e *Engine) Rollout() RolloutInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	info := RolloutInfo{Active: e.version, SetVersion: e.lastSet, Rollouts: e.rollouts}
	if e.staged != nil {
		info.Staged = e.staged.state.version
		info.GateEpoch = e.staged.gateEpoch
	}
	return info
}

// schedState is the immutable per-window view a redirector schedules
// against. The caches travel with the schedulers they memoize, so a window
// racing a rebuild stores its plan in the cache generation that matches the
// scheduler it solved with.
type schedState struct {
	version Version
	// setVersion is the agreement-set version the generation was built from
	// (0: the boot configuration) — what window records carry, so equal
	// sets compare equal across engines.
	setVersion uint64
	// lease is the dedicated per-window credit of the set's leases, in
	// requests/window: holder×owner cells flattened as [holder*n+owner] in
	// Community mode, one total per holder in Provider mode. Nil while no
	// lease is active.
	lease     []float64
	access    *agreement.Access
	community *sched.Community
	provider  *sched.Provider
	customers []agreement.Principal
	provTotal float64
	// rowCap[k] is owner k's capacity row in the community program (its
	// server capacity, under the locality cap when one is set), in
	// requests/window: what the split measures a plan's slack against.
	rowCap    []float64
	plans     *sched.PlanCache[sched.Plan]
	provPlans *sched.PlanCache[sched.ProviderPlan]
	// provQueues is the provider solve's customer-indexed queue scratch,
	// written only under provPlans' lock.
	provQueues []float64
}

// snapshot returns the current scheduling state under the read lock.
func (e *Engine) snapshot() schedState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur
}

// stateFor resolves the generation the redirector's next window schedules
// against. epoch is its current combining-tree epoch (the max of local and
// global-broadcast epochs) and known the newest agreement-set version it has
// seen from the tree. On the steady-state hot path — no rollout in flight —
// this is one atomic load on top of the plain snapshot. During a rollout, a
// redirector whose epoch and known version have both reached the staged gate
// promotes the staged generation; one past the gate epoch that has NOT
// learned of the new set is stale, and the second result tells it to fall
// back to the conservative claim rather than enforce superseded
// entitlements.
func (e *Engine) stateFor(epoch int, known uint64) (schedState, bool) {
	if e.rolloutGate.Load() == 0 {
		return e.snapshot(), false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sg := e.staged
	if sg == nil {
		return e.cur, false
	}
	if epoch < sg.gateEpoch {
		return e.cur, false // rollout not due yet at this admission point
	}
	if known < sg.state.setVersion {
		return e.cur, true // past the gate without the set: conservative
	}
	e.rollouts++
	e.commitLocked(e.flows, sg.state)
	return e.cur, false
}

// communityPlan copies the window plan for the global queue vector n into
// dst (nil: only warm the cache), serving it from the generation's plan
// cache: an aggregate that has not moved (to the cache quantum) since an
// earlier window reuses that window's solve. It reports whether the plan was
// already cached (trace records expose it per window).
func (e *Engine) communityPlan(st schedState, n []float64, dst *sched.Plan) (bool, error) {
	return st.plans.Do(n, dst, func(plan *sched.Plan) error {
		return st.community.ScheduleInto(n, plan)
	})
}

// providerPlan is communityPlan's Provider-mode counterpart; the cache key
// is the full global vector, the solve maps it onto customer indices.
func (e *Engine) providerPlan(st schedState, n []float64, dst *sched.ProviderPlan) (bool, error) {
	return st.provPlans.Do(n, dst, func(plan *sched.ProviderPlan) error {
		for ci, p := range st.customers {
			st.provQueues[ci] = n[p]
		}
		return st.provider.ScheduleInto(st.provQueues, plan)
	})
}

// Stats exposes the engine's fast-path telemetry: plan-cache hit and
// miss counts, LP solve count and latency, and mandatory-floor fallbacks.
func (e *Engine) Stats() *metrics.SolverStats { return e.stats }

// Logger returns the engine's structured logger (never nil).
func (e *Engine) Logger() *slog.Logger {
	if e.cfg.Logger != nil {
		return e.cfg.Logger
	}
	return obs.Default()
}

// PrincipalNames returns the system's principal names in index order — the
// labels observability series are keyed by.
func (e *Engine) PrincipalNames() []string {
	names := make([]string, e.n)
	for i := range names {
		names[i] = e.cfg.System.Name(agreement.Principal(i))
	}
	return names
}

// NewObserver builds a window-trace observer for redirector id, labeled with
// the engine's principals. Auditor (nil: build a private one) and ringDepth
// (<=0: obs.DefaultRingDepth) parameterize sharing and retention; install
// the result with Redirector.SetObserver.
func (e *Engine) NewObserver(id int, auditor *obs.Auditor, ringDepth int) *obs.Observer {
	return obs.NewObserver(obs.ObserverConfig{
		Redirector: id,
		Names:      e.PrincipalNames(),
		RingDepth:  ringDepth,
		Auditor:    auditor,
	})
}

// NumPrincipals reports the number of principals in the system.
func (e *Engine) NumPrincipals() int { return e.n }

// Window returns the scheduling window.
func (e *Engine) Window() time.Duration { return e.cfg.Window }

// Mode returns the optimization context.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// ProviderPrincipal returns the owner of the servers in Provider mode
// (meaningless in Community mode).
func (e *Engine) ProviderPrincipal() agreement.Principal { return e.cfg.ProviderPrincipal }

// Access exposes the per-window entitlements (MI/OI/MC/OC scaled to the
// window) for inspection and tests.
func (e *Engine) Access() *agreement.Access {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur.access
}

// leaseCredits lays a set's (validated) leases out as a generation's
// per-window lease credit (see schedState.lease): nil without a lease, so
// the common lease-free set allocates nothing.
func (e *Engine) leaseCredits(leases []agreement.SetLease) []float64 {
	if len(leases) == 0 {
		return nil
	}
	size := e.n
	if e.cfg.Mode == Community {
		size *= e.n
	}
	lc := make([]float64, size)
	for _, l := range leases {
		cell := int(l.Holder)
		if e.cfg.Mode == Community {
			cell = cell*e.n + int(l.Owner)
		}
		lc[cell] += l.Rate * e.windowS
	}
	return lc
}

// LeaseCredits reports the active generation's lease-credit rates in
// requests/second (summed over owners per holder), or nil when no lease is
// active.
func (e *Engine) LeaseCredits() []float64 {
	lc := e.snapshot().lease
	if lc == nil {
		return nil
	}
	out := make([]float64, e.n)
	for cell, v := range lc {
		h := cell
		if e.cfg.Mode == Community {
			h = cell / e.n
		}
		out[h] += v / e.windowS
	}
	return out
}

// Customers returns, in LP order, the customer principals of a Provider
// engine (nil for Community engines).
func (e *Engine) Customers() []agreement.Principal {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]agreement.Principal(nil), e.cur.customers...)
}

// DescribeEntitlements renders the folded per-principal entitlements in
// requests/second — the operator-facing summary cmd/redirector logs at
// startup so a deployment's effective guarantees are visible at a glance.
func (e *Engine) DescribeEntitlements() string {
	e.mu.RLock()
	access := e.cur.access
	e.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "entitlements (%s mode, %v windows):\n", e.cfg.Mode, e.cfg.Window)
	for i := 0; i < e.n; i++ {
		name := e.cfg.System.Name(agreement.Principal(i))
		fmt.Fprintf(&sb, "  %-12s mandatory %8.1f req/s, optional %8.1f req/s\n",
			name, access.MC[i]/e.windowS, access.OC[i]/e.windowS)
	}
	return sb.String()
}
