package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Redirector is one admission point. It is not safe for concurrent use;
// callers (the simulation loop, or the network front-ends which serialize
// through a mutex) own it.
type Redirector struct {
	e  *Engine
	id int

	arrivals []float64 // submissions observed in the current window
	estimate []float64 // EWMA of per-window demand ("estimated queue length")

	global   []float64 // latest global queue aggregate (requests/window)
	globalAt time.Duration
	haveGlob bool

	// Per-principal aggregate freshness: with principal sharding, each
	// agreement component's tree delivers its aggregate independently, so
	// principals age out of date at different times (SetGlobalComponent).
	globalAtP  []time.Duration
	globalHasP []bool
	freshBuf   []bool // scratch for the per-window freshness mask

	// rolloutEpoch/rolloutKnown feed the engine's epoch gate: the combining
	// tree epoch this redirector has reached and the newest agreement-set
	// version it has learned of (see SetRollout and Engine.stateFor).
	rolloutEpoch int
	rolloutKnown uint64

	nbuf []float64 // scratch for the per-window global n_i vector

	// Scratch for the credit split's slack top-up (topUpCommunity and
	// topUpProvider): frac[i] is this window's local share of principal i's
	// planned grant (-1 for a stale principal), cells one capacity row.
	frac  []float64
	cells []slackCell

	// plan/provPlan receive this window's copy of the cached plan (the one
	// matching the engine's mode is used).
	plan     sched.Plan
	provPlan sched.ProviderPlan

	// credits[p][k]: remaining admissions for principal p toward owner k's
	// servers this window (Community). Provider mode uses creditsTotal only.
	credits      [][]float64
	creditsTotal []float64

	// admittedP[p]: admissions made for principal p in the current window,
	// in average-request cost units (window trace records).
	admittedP []float64

	// Window tracing: pending is the reusable record describing the open
	// window; it is completed (Arrived/Served) and committed when the next
	// StartWindow closes it. Nil obsv disables tracing entirely.
	obsv        *obs.Observer
	pending     *obs.Record
	pendingOpen bool

	// boot is window 0 — construction to the first StartWindow — as armed:
	// its grant, floor and ceiling, kept so an observer attached before any
	// boundary can trace it. Nil once the first boundary has run.
	boot *obs.Record

	// Window telemetry.
	Admitted     int
	Rejected     int
	Windows      int
	Conservative int // windows run in conservative fallback
	// Partial counts mixed windows: at least one agreement component had a
	// fresh aggregate (planned normally) while another was stale and fell
	// back to its conservative share.
	Partial int
}

// NewRedirector stamps out the admission state of the one redirector node
// the engine serves; a staged configuration is promoted when it crosses the
// rollout gate. It panics when the engine already serves a different id —
// an engine is never shared between admission points — while a restarted
// redirector re-registering under its old id gets fresh state.
//
// The redirector serves from the moment it exists: window 0, the span
// before the first StartWindow, is a blind window holding exactly the
// conservative claim of every other blind window — MC_i/R of each mandatory
// entitlement (§3.2, Figure 8 phase 1) plus any lease deposit at the same
// scale.
func (e *Engine) NewRedirector(id int) *Redirector {
	e.mu.Lock()
	if e.served && e.redID != id {
		e.mu.Unlock()
		panic(fmt.Sprintf("core: engine serves redirector %d, not %d: build one engine per redirector", e.redID, id))
	}
	e.served, e.redID = true, id
	e.mu.Unlock()
	r := &Redirector{
		e:            e,
		id:           id,
		arrivals:     make([]float64, e.n),
		estimate:     make([]float64, e.n),
		creditsTotal: make([]float64, e.n),
		credits:      make([][]float64, e.n),
		admittedP:    make([]float64, e.n),
		boot:         obs.NewRecord(e.n),
		frac:         make([]float64, e.n),
		cells:        make([]slackCell, 0, e.n),
	}
	for i := range r.credits {
		r.credits[i] = make([]float64, e.n)
	}
	r.armWindowZero()
	return r
}

// armWindowZero grants window 0 the blind claim on top of the carry of
// whatever credit the redirector holds — none on a cold start, the restored
// credit after RestoreState — and records the grant for its trace.
func (r *Redirector) armWindowZero() {
	st := r.e.snapshot()
	r.boot.ConfigVersion = st.setVersion
	r.conservativeCredits(st, r.boot)
	r.recordCells(r.boot)
	if r.obsv != nil {
		r.openWindowZeroRecord()
	}
}

// openWindowZeroRecord opens window 0's trace record from the armed grant:
// a blind window numbered 0, committed by the first StartWindow.
func (r *Redirector) openWindowZeroRecord() {
	rec := r.openWindowRecord(0)
	rec.Window = 0
	rec.Conservative = true
	rec.ConfigVersion = r.boot.ConfigVersion
	copy(rec.Granted, r.boot.Granted)
	copy(rec.Floor, r.boot.Floor)
	copy(rec.Ceil, r.boot.Ceil)
	rec.Cells = r.boot.Cells
}

// ID returns the redirector's identity.
func (r *Redirector) ID() int { return r.id }

// LocalEstimate returns the redirector's current per-principal demand
// estimate in requests per window — the vector it contributes to the
// combining tree.
func (r *Redirector) LocalEstimate() []float64 {
	return r.LocalEstimateInto(nil)
}

// LocalEstimateInto is LocalEstimate writing into dst when it has the right
// capacity, so per-window callers (the combining-tree feed) can reuse one
// buffer instead of allocating every window. It returns the filled slice.
func (r *Redirector) LocalEstimateInto(dst []float64) []float64 {
	if cap(dst) < len(r.estimate) {
		dst = make([]float64, len(r.estimate))
	}
	dst = dst[:len(r.estimate)]
	copy(dst, r.estimate)
	return dst
}

// SetGlobal installs the latest global queue-length aggregate (the Sum
// vector broadcast by the combining tree) with its generation time.
func (r *Redirector) SetGlobal(queues []float64, at time.Duration) {
	r.ensureGlobal()
	copy(r.global, queues)
	r.globalAt = at
	r.haveGlob = true
	for i := range r.globalAtP {
		r.globalAtP[i] = at
		r.globalHasP[i] = true
	}
}

// SetGlobalComponent installs one agreement component's aggregate:
// queues[k] is the global figure for principal members[k]. Each component's
// tree settles independently under principal sharding, so freshness is
// tracked per principal — StartWindow plans normally for principals whose
// component is fresh and claims the conservative share for the rest.
func (r *Redirector) SetGlobalComponent(members []int, queues []float64, at time.Duration) {
	r.ensureGlobal()
	for k, p := range members {
		if p < 0 || p >= r.e.n || k >= len(queues) {
			continue
		}
		r.global[p] = queues[k]
		r.globalAtP[p] = at
		r.globalHasP[p] = true
	}
	if at > r.globalAt {
		r.globalAt = at
	}
	r.haveGlob = true
}

// ensureGlobal lazily sizes the aggregate-tracking state.
func (r *Redirector) ensureGlobal() {
	if r.global == nil {
		r.global = make([]float64, r.e.n)
	}
	if r.globalAtP == nil {
		r.globalAtP = make([]time.Duration, r.e.n)
		r.globalHasP = make([]bool, r.e.n)
	}
}

// HasGlobal reports whether any global aggregate has been received.
func (r *Redirector) HasGlobal() bool { return r.haveGlob }

// SetRollout records the redirector's rollout position before a window:
// epoch is its current combining-tree epoch (use the max of the local and
// global-broadcast epochs) and known the newest agreement-set version
// received from the tree. The next StartWindow passes both to the engine's
// epoch gate, which decides whether this admission point swaps to a staged
// configuration generation at that window boundary. Call from the goroutine
// that owns the redirector.
func (r *Redirector) SetRollout(epoch int, known uint64) {
	r.rolloutEpoch = epoch
	r.rolloutKnown = known
}

// SetObserver attaches a window-trace observer (nil detaches). The
// redirector fills one record per scheduling window and commits it when the
// next window closes it; the record path performs zero heap allocations.
// Attached before the first StartWindow, it also traces window 0. Call from
// the goroutine that owns the redirector.
func (r *Redirector) SetObserver(o *obs.Observer) {
	r.obsv = o
	r.pendingOpen = false
	r.pending = nil
	if o != nil {
		r.pending = o.NewRecord()
		if r.boot != nil {
			r.openWindowZeroRecord()
		}
	}
}

// Observer returns the attached window-trace observer (nil when tracing is
// off).
func (r *Redirector) Observer() *obs.Observer { return r.obsv }

// closeWindowRecord completes and commits the pending record: arrivals and
// admissions of the window that just ended become its outcome.
func (r *Redirector) closeWindowRecord() {
	if r.obsv == nil || !r.pendingOpen {
		return
	}
	copy(r.pending.Arrived, r.arrivals)
	copy(r.pending.Served, r.admittedP)
	r.obsv.Commit(r.pending)
	r.pendingOpen = false
}

// openWindowRecord resets the reusable record for the window starting now.
// Returns nil when tracing is off.
func (r *Redirector) openWindowRecord(now time.Duration) *obs.Record {
	if r.obsv == nil {
		return nil
	}
	rec := r.pending
	rec.Window = uint64(r.Windows)
	rec.AtNanos = obs.Nanos(now)
	rec.Conservative, rec.HaveGlobal, rec.SolveErr, rec.CacheHit = false, false, false, false
	rec.Degraded = false
	rec.GlobalAgeNanos, rec.SolveNanos = 0, 0
	copy(rec.Local, r.estimate)
	for i := range rec.Global {
		rec.Global[i], rec.Granted[i], rec.Floor[i], rec.Ceil[i] = 0, 0, 0, 0
		rec.Arrived[i], rec.Served[i] = 0, 0
	}
	rec.Cells = 0
	r.obsv.FillTree(rec)
	r.obsv.FillHealth(rec)
	r.pendingOpen = true
	return rec
}

// ewmaAlpha smooths the per-window arrival estimator; 0.7 favors
// responsiveness to phase changes.
const ewmaAlpha = 0.7

// StartWindow closes the previous scheduling window and computes admission
// credits for the next one. now is the current (virtual or wall) time used
// for staleness checks.
func (r *Redirector) StartWindow(now time.Duration) error {
	// Close the finished window's trace record while its arrivals and
	// admissions are still intact.
	r.closeWindowRecord()
	r.boot = nil
	r.Windows++
	// Fold the finished window's arrivals into the demand estimate.
	for i := 0; i < r.e.n; i++ {
		r.estimate[i] = ewmaAlpha*r.arrivals[i] + (1-ewmaAlpha)*r.estimate[i]
		if r.estimate[i] < 1e-9 {
			r.estimate[i] = 0
		}
		r.arrivals[i] = 0
		r.admittedP[i] = 0
	}

	st, lagging := r.e.stateFor(r.rolloutEpoch, r.rolloutKnown)
	rec := r.openWindowRecord(now)
	if rec != nil {
		rec.ConfigVersion = st.setVersion
	}
	// lagging marks a redirector past a rollout's gate epoch that has not
	// received the new agreement set: its entitlements are superseded, so it
	// falls back to the conservative claim like any other blind window.
	stale := !r.haveGlob || lagging
	// Per-principal freshness: under principal sharding each component's
	// aggregate ages independently. A nil mask means every principal is
	// fresh; an all-stale mask collapses into the blind path below.
	var fresh []bool
	if !stale {
		fresh = r.freshMask(now)
		if fresh != nil {
			any := false
			for _, f := range fresh {
				if f {
					any = true
					break
				}
			}
			if !any {
				stale, fresh = true, nil
			}
		}
	}
	if stale {
		r.Conservative++
		if rec != nil {
			rec.Conservative = true
			rec.HaveGlobal = r.haveGlob
			if r.haveGlob {
				rec.GlobalAgeNanos = obs.Nanos(now - r.globalAt)
			}
		}
		r.conservativeCredits(st, rec)
		r.recordCells(rec)
		return nil
	}

	n := r.globalDemand()
	var solveStart time.Time
	if rec != nil {
		copy(rec.Global, n)
		rec.HaveGlobal = true
		rec.GlobalAgeNanos = obs.Nanos(now - r.globalAt)
		solveStart = time.Now()
	}

	switch r.e.cfg.Mode {
	case Community:
		// Plans come from the engine's plan cache: an aggregate unchanged
		// since an earlier window reuses its solve.
		plan := &r.plan
		hit, err := r.e.communityPlan(st, n, plan)
		if rec != nil {
			rec.SolveNanos = obs.Nanos(time.Since(solveStart))
			rec.CacheHit = hit
		}
		if err != nil {
			r.markSolveErr(rec)
			return fmt.Errorf("core: window schedule: %w", err)
		}
		for i := 0; i < r.e.n; i++ {
			if fresh != nil && !fresh[i] {
				// This principal's component aggregate is stale: claim the
				// conservative share while the rest of the window plans
				// normally.
				r.conservativeCommunity(st, rec, i)
				r.frac[i] = -1
				continue
			}
			frac := 0.0
			if n[i] > 0 {
				frac = r.estimate[i] / n[i]
			}
			r.frac[i] = frac
			carried := 0.0
			for k := 0; k < r.e.n; k++ {
				c := carry(r.credits[i][k])
				carried += c
				r.credits[i][k] = plan.X[i][k]*frac + c
			}
			if rec != nil {
				rec.Granted[i] = plan.Total[i] * frac
				floor := st.access.MC[i]
				if n[i] < floor {
					floor = n[i]
				}
				rec.Floor[i] = floor * frac
				rec.Ceil[i] = (st.access.MC[i]+st.access.OC[i])*frac + carried
			}
			r.depositLeaseCommunity(st, rec, i, frac)
		}
		r.topUpCommunity(st, plan, rec)
	case Provider:
		plan := &r.provPlan
		hit, err := r.e.providerPlan(st, n, plan)
		if rec != nil {
			rec.SolveNanos = obs.Nanos(time.Since(solveStart))
			rec.CacheHit = hit
		}
		if err != nil {
			r.markSolveErr(rec)
			return fmt.Errorf("core: window schedule: %w", err)
		}
		for i := range r.creditsTotal {
			c := carry(r.creditsTotal[i])
			r.creditsTotal[i] = c
			if rec != nil {
				rec.Ceil[i] = c // carried slack; customers add their share below
			}
		}
		for ci, p := range st.customers {
			if fresh != nil && !fresh[p] {
				// Stale component: conservative share on top of the carried
				// credit installed above.
				r.conservativeProvider(st, rec, int(p), r.creditsTotal[p])
				r.frac[p] = -1
				continue
			}
			frac := 0.0
			if n[p] > 0 {
				frac = r.estimate[p] / n[p]
			}
			r.frac[p] = frac
			r.creditsTotal[p] += plan.X[ci] * frac
			if rec != nil {
				rec.Granted[p] = plan.X[ci] * frac
				floor := st.access.MC[p]
				if n[p] < floor {
					floor = n[p]
				}
				rec.Floor[p] = floor * frac
				rec.Ceil[p] += (st.access.MC[p] + st.access.OC[p]) * frac
			}
			r.depositLeaseProvider(st, rec, int(p), frac)
		}
		r.topUpProvider(st, plan, rec)
	}
	if fresh != nil {
		r.Partial++
	}
	r.recordCells(rec)
	return nil
}

// recordCells notes in rec the most credit cells any principal's credit is
// spread over: the owners holding some of it in community mode, one in
// provider mode. The auditor allows one stranded request fraction per cell.
func (r *Redirector) recordCells(rec *obs.Record) {
	if rec == nil {
		return
	}
	rec.Cells = 1
	if r.e.cfg.Mode != Community {
		return
	}
	for _, row := range r.credits {
		cells := 0
		for _, c := range row {
			if c > 0 {
				cells++
			}
		}
		rec.Cells = max(rec.Cells, cells)
	}
}

// freshMask returns the per-principal aggregate-freshness mask for a
// window starting at now, or nil when every principal is fresh (the flat
// single-tree fast path: SetGlobal stamps all principals together).
func (r *Redirector) freshMask(now time.Duration) []bool {
	if r.globalAtP == nil {
		return nil
	}
	mixed := false
	for i := range r.globalAtP {
		if !r.freshAt(i, now) {
			mixed = true
			break
		}
	}
	if !mixed {
		return nil
	}
	if r.freshBuf == nil {
		r.freshBuf = make([]bool, r.e.n)
	}
	for i := range r.freshBuf {
		r.freshBuf[i] = r.freshAt(i, now)
	}
	return r.freshBuf
}

// freshAt reports whether principal i's component aggregate is usable at
// now (received, and inside the staleness budget when one is configured).
func (r *Redirector) freshAt(i int, now time.Duration) bool {
	if !r.globalHasP[i] {
		return false
	}
	return r.e.cfg.Staleness <= 0 || now-r.globalAtP[i] <= r.e.cfg.Staleness
}

// slackTol is the relative slack under which a capacity row counts as full:
// a saturated plan's row sum may sit a rounding error below capacity, and
// that window must split exactly as if it did not.
const slackTol = 1e-9

// rowSlack is what a plan using used of a row of capacity c leaves, 0 for a
// full row.
func rowSlack(c, used float64) float64 {
	if c-used <= slackTol*max(1, c) {
		return 0
	}
	return c - used
}

// slackCell is one credit cell a top-up may raise: principal p's local grant
// x·frac, toward its floor share floor/R and then, with demand, toward ub.
// lifted and added are the result: the part of the top-up that reached the
// floor share, and the whole top-up.
type slackCell struct {
	p                  int
	floor, ub, x, frac float64
	demand             bool
	lifted, added      float64
}

// fillRatio is the fraction of want that budget covers.
func fillRatio(budget, want float64) float64 {
	if want <= budget {
		return 1
	}
	return budget / want
}

// spendSlack spends budget, one redirector's share of a capacity row's
// slack, over the row's cells at share = 1/R: first every cell toward its
// floor share floor·share, then the cells with demand toward their bound,
// each cell by at most (ub − x)·share. Where a stage's wants exceed what is
// left of the budget they are scaled down together.
func spendSlack(budget, share float64, cells []slackCell) {
	want := 0.0
	for j := range cells {
		c := &cells[j]
		c.added = max(0, (c.ub-c.x)*share) // the cell's room, until the last pass
		c.lifted = min(max(0, c.floor*share-c.x*c.frac), c.added)
		want += c.lifted
	}
	fill := fillRatio(budget, want)
	budget = max(0, budget-want)
	want = 0
	for j := range cells {
		c := &cells[j]
		c.lifted *= fill
		if c.demand {
			want += c.added - c.lifted
		}
	}
	spread := fillRatio(budget, want)
	for j := range cells {
		c := &cells[j]
		room := c.added
		c.added = c.lifted
		if c.demand {
			c.added += (room - c.lifted) * spread
		}
	}
}

// topUpCommunity spends the slack the window plan leaves in each owner's
// capacity row. The local split x·frac follows the estimate, and an estimate
// lags arrivals, so a redirector with idle capacity behind it would refuse
// whatever arrives above its own past average. Each row's slack is split
// evenly over the R redirectors (spendSlack): a redirector's part first lifts
// every fresh principal's cell to its floor share MI[k][i]/R (the claim a
// blind window makes), then goes to the principals it sees demand from, up to
// the cell's bound MI+OI. A cell's top-up is at most (MI+OI − X)/R and a
// row's at most its slack/R, so the fleet stays within every agreement bound
// and every capacity row. A row with no slack adds nothing: a saturated plan
// splits exactly as x·frac.
func (r *Redirector) topUpCommunity(st schedState, plan *sched.Plan, rec *obs.Record) {
	share := 1 / float64(r.e.cfg.NumRedirectors)
	mi, oi := st.access.MI, st.access.OI
	for k := 0; k < r.e.n; k++ {
		used := 0.0
		for i := 0; i < r.e.n; i++ {
			used += plan.X[i][k]
		}
		free := rowSlack(st.rowCap[k], used)
		if free == 0 {
			continue
		}
		cells := r.cells[:0]
		for i := 0; i < r.e.n; i++ {
			if r.frac[i] >= 0 {
				cells = append(cells, slackCell{p: i, floor: mi[k][i], ub: mi[k][i] + oi[k][i],
					x: plan.X[i][k], frac: r.frac[i], demand: r.estimate[i] > 0})
			}
		}
		spendSlack(free*share, share, cells)
		for _, c := range cells {
			r.credits[c.p][k] += c.added
			recordTopUp(rec, c)
		}
	}
}

// topUpProvider is topUpCommunity for the provider program's one capacity
// row: floor shares MC_i/R first, then demand up to MC_i+OC_i.
func (r *Redirector) topUpProvider(st schedState, plan *sched.ProviderPlan, rec *obs.Record) {
	used := 0.0
	for _, x := range plan.X {
		used += x
	}
	free := rowSlack(st.provTotal, used)
	if free == 0 {
		return
	}
	share := 1 / float64(r.e.cfg.NumRedirectors)
	mc, oc := st.access.MC, st.access.OC
	cells := r.cells[:0]
	for ci, p := range st.customers {
		if r.frac[p] >= 0 {
			cells = append(cells, slackCell{p: int(p), floor: mc[p], ub: mc[p] + oc[p],
				x: plan.X[ci], frac: r.frac[p], demand: r.estimate[p] > 0})
		}
	}
	spendSlack(free*share, share, cells)
	for _, c := range cells {
		r.creditsTotal[c.p] += c.added
		recordTopUp(rec, c)
	}
}

// recordTopUp adds a cell's top-up to the window record: all of it to the
// grant and the ceiling, the part that reached the floor share to the floor.
func recordTopUp(rec *obs.Record, c slackCell) {
	if rec != nil {
		rec.Granted[c.p] += c.added
		rec.Floor[c.p] += c.lifted
		rec.Ceil[c.p] += c.added
	}
}

// markSolveErr tags the pending record of a window whose LP failed: the
// previous credits stay in force, so no bound can be asserted (the MaxFloat64
// ceiling sentinel makes the auditor skip the over-admission check).
func (r *Redirector) markSolveErr(rec *obs.Record) {
	if rec == nil {
		return
	}
	rec.SolveErr = true
	for i := range rec.Ceil {
		rec.Floor[i] = 0
		rec.Ceil[i] = math.MaxFloat64
	}
}

// carry preserves up to one request of unused credit across windows so that
// fractional per-window allocations (for example 13.5 requests/window) are
// not systematically rounded away.
func carry(remaining float64) float64 {
	if remaining < 0 {
		return 0
	}
	if remaining > 1 {
		return 1
	}
	return remaining
}

// conservativeCredits claims 1/R of every mandatory entitlement — the safe
// allocation when a redirector does not know what the rest of the system is
// doing (Figure 8, phase 1). The grant doubles as floor and ceiling in the
// trace record: a blind window must admit exactly its conservative share.
func (r *Redirector) conservativeCredits(st schedState, rec *obs.Record) {
	switch r.e.cfg.Mode {
	case Community:
		for i := 0; i < r.e.n; i++ {
			r.conservativeCommunity(st, rec, i)
		}
	case Provider:
		for _, p := range st.customers {
			r.conservativeProvider(st, rec, int(p), carry(r.creditsTotal[p]))
		}
	}
}

// conservativeShare is the blind claim fraction: 1/R of every mandatory
// entitlement (1 under the AggressiveWhenBlind ablation).
func (r *Redirector) conservativeShare() float64 {
	if r.e.cfg.AggressiveWhenBlind {
		return 1 // ablation only; see Config.AggressiveWhenBlind
	}
	return 1 / float64(r.e.cfg.NumRedirectors)
}

// conservativeCommunity claims principal i's conservative share in
// Community mode (whole-window fallback, or a single stale component in a
// mixed window).
func (r *Redirector) conservativeCommunity(st schedState, rec *obs.Record, i int) {
	share := r.conservativeShare()
	carried := 0.0
	for k := 0; k < r.e.n; k++ {
		c := carry(r.credits[i][k])
		carried += c
		r.credits[i][k] = st.access.MI[k][i]*share + c
	}
	if rec != nil {
		g := st.access.MC[i] * share
		rec.Granted[i], rec.Floor[i] = g, g
		rec.Ceil[i] = g + carried
	}
	r.depositLeaseCommunity(st, rec, i, share)
}

// conservativeProvider claims customer p's conservative share in Provider
// mode on top of the already-carried credit c.
func (r *Redirector) conservativeProvider(st schedState, rec *obs.Record, p int, c float64) {
	share := r.conservativeShare()
	g := st.access.MC[p] * share
	r.creditsTotal[p] = g + c
	if rec != nil {
		rec.Granted[p], rec.Floor[p] = g, g
		rec.Ceil[p] = g + c
	}
	r.depositLeaseProvider(st, rec, p, share)
}

// depositLeaseCommunity adds principal i's lease credit for this window, from
// the generation the window schedules against, on top of the LP-planned
// Community credits. scale is this redirector's share of the holder's global
// demand (frac on the fresh path, the conservative 1/R on blind or stale
// windows); every engine of the fleet holds the same leases, so the
// fleet-wide deposit sums to about the leased rate. The deposit widens
// Granted and Ceil in the trace record — admitting leased work is never an
// over-admission — but leaves Floor alone: a holder is not obliged to draw
// its lease, and the under-floor audit must not flag the idle case.
func (r *Redirector) depositLeaseCommunity(st schedState, rec *obs.Record, i int, scale float64) {
	if st.lease == nil || scale <= 0 {
		return
	}
	row := st.lease[i*r.e.n : (i+1)*r.e.n]
	d := 0.0
	for k, l := range row {
		v := l * scale
		r.credits[i][k] += v
		d += v
	}
	if d > 0 && rec != nil {
		rec.Granted[i] += d
		rec.Ceil[i] += d
	}
}

// depositLeaseProvider is depositLeaseCommunity for Provider mode: the
// holder's leased total lands in its single credit bucket.
func (r *Redirector) depositLeaseProvider(st schedState, rec *obs.Record, p int, scale float64) {
	if st.lease == nil || scale <= 0 {
		return
	}
	v := st.lease[p] * scale
	if v <= 0 {
		return
	}
	r.creditsTotal[p] += v
	if rec != nil {
		rec.Granted[p] += v
		rec.Ceil[p] += v
	}
}

// Decision is the outcome of admitting one request.
type Decision struct {
	// Admitted is false when the request must be turned away for this
	// window (HTTP self-redirect at Layer 7, kernel queue at Layer 4).
	Admitted bool
	// Owner is the principal whose servers should process the request
	// (meaningful only when Admitted).
	Owner agreement.Principal
}

// Admit decides one request from principal p within the current window and
// records the arrival for demand estimation. In Community mode the request
// is directed at the owner with the most remaining credit; in Provider mode
// all servers belong to the provider.
func (r *Redirector) Admit(p agreement.Principal) Decision {
	return r.AdmitCost(p, -1, 1)
}

// AdmitPreferring is Admit with connection affinity: when the preferred
// owner still has credit for p this window, the request sticks to it;
// otherwise the best-funded owner is used — affinity "to the extent allowed
// by the sharing agreements" (§4.2). A negative preference means none.
func (r *Redirector) AdmitPreferring(p, preferred agreement.Principal) Decision {
	return r.AdmitCost(p, preferred, 1)
}

// AdmitCost is the general admission primitive: a request consuming cost
// units of the average request ("large requests are treated as multiple
// small ones for the purpose of scheduling", §4). Non-positive costs are
// treated as 1.
func (r *Redirector) AdmitCost(p, preferred agreement.Principal, cost float64) Decision {
	if int(p) < 0 || int(p) >= r.e.n {
		return Decision{}
	}
	if cost <= 0 {
		cost = 1
	}
	r.arrivals[p] += cost
	need := cost - 1e-9
	switch r.e.cfg.Mode {
	case Provider:
		if r.creditsTotal[p] >= need {
			r.creditsTotal[p] -= cost
			r.Admitted++
			r.admittedP[p] += cost
			return Decision{Admitted: true, Owner: r.e.cfg.ProviderPrincipal}
		}
	case Community:
		if int(preferred) >= 0 && int(preferred) < r.e.n && r.credits[p][preferred] >= need {
			r.credits[p][preferred] -= cost
			r.Admitted++
			r.admittedP[p] += cost
			return Decision{Admitted: true, Owner: preferred}
		}
		best, bestCredit := -1, 0.0
		for k := 0; k < r.e.n; k++ {
			if c := r.credits[p][k]; c > bestCredit {
				best, bestCredit = k, c
			}
		}
		if best >= 0 && bestCredit >= need {
			r.credits[p][best] -= cost
			r.Admitted++
			r.admittedP[p] += cost
			return Decision{Admitted: true, Owner: agreement.Principal(best)}
		}
	}
	r.Rejected++
	return Decision{}
}

// ExportCredits copies the current window's credit state into the caller's
// buffers: matrix[p][k] receives the Community credits, total[p] the Provider
// credits. Either argument may be nil to skip that mode. Buffers must be
// pre-sized to NumPrincipals; the sharded admission plane uses this to
// distribute a freshly scheduled window's credits over its shards.
func (r *Redirector) ExportCredits(matrix [][]float64, total []float64) {
	if matrix != nil {
		for i := range r.credits {
			copy(matrix[i], r.credits[i])
		}
	}
	if total != nil {
		copy(total, r.creditsTotal)
	}
}

// ImportCredits overwrites the current credit state from the caller's
// buffers (the inverse of ExportCredits; nil skips a mode). The sharded
// admission plane calls this just before StartWindow with the unused credit
// recovered from the retired shard pool, so the standard ≤1-request carry is
// computed from what the shards actually left behind.
func (r *Redirector) ImportCredits(matrix [][]float64, total []float64) {
	if matrix != nil {
		for i := range r.credits {
			copy(r.credits[i], matrix[i])
		}
	}
	if total != nil {
		copy(r.creditsTotal, total)
	}
}

// ExportEstimate copies the EWMA per-principal demand estimate into dst
// (allocated when nil or undersized) and returns it — the estimator half
// of a durable window checkpoint (internal/persist).
func (r *Redirector) ExportEstimate(dst []float64) []float64 {
	if cap(dst) < len(r.estimate) {
		dst = make([]float64, len(r.estimate))
	}
	dst = dst[:len(r.estimate)]
	copy(dst, r.estimate)
	return dst
}

// RestoreState rehydrates a freshly constructed redirector from a durable
// window checkpoint: the window counter, the EWMA demand estimate, and the
// carried credit (matrix for Community, total vector for Provider). Nil
// slices skip that piece; slices shorter than NumPrincipals restore a
// prefix. Call before the first StartWindow, from the goroutine that owns
// the redirector. The restored credits are the recovered process's carry
// basis: window 0 is re-armed to the blind grant of the current generation
// plus the ≤1-request carry of each restored cell, so a restore never mints
// more than the carry bound. At most one window of credit (the one in
// flight at the crash) is lost, bounded by the persist append cadence.
func (r *Redirector) RestoreState(windows int, estimate []float64, credits [][]float64, total []float64) {
	if windows > r.Windows {
		r.Windows = windows
	}
	for i := 0; i < r.e.n && i < len(estimate); i++ {
		r.estimate[i] = estimate[i]
	}
	for i := range r.credits {
		clear(r.credits[i])
	}
	clear(r.creditsTotal)
	for i := 0; i < r.e.n && i < len(credits); i++ {
		for k := 0; k < r.e.n && k < len(credits[i]); k++ {
			r.credits[i][k] = credits[i][k]
		}
	}
	for i := 0; i < r.e.n && i < len(total); i++ {
		r.creditsTotal[i] = total[i]
	}
	if r.boot != nil {
		r.armWindowZero()
	}
}

// AddWindowSample folds externally observed admission activity into the
// window state: arrivals and admitted are per-principal cost sums since the
// last fold, admits/rejects the corresponding decision counts. Concurrent
// front-ends that count arrivals on sharded atomics use this to deliver one
// aggregate sample per window instead of calling AdmitCost per request.
// Either slice may be nil.
func (r *Redirector) AddWindowSample(arrivals, admitted []float64, admits, rejects int) {
	for i := 0; i < r.e.n && i < len(arrivals); i++ {
		r.arrivals[i] += arrivals[i]
	}
	for i := 0; i < r.e.n && i < len(admitted); i++ {
		r.admittedP[i] += admitted[i]
	}
	r.Admitted += admits
	r.Rejected += rejects
}

// Presolve warms the engine's plan cache with the plan the next
// StartWindow will need, using the freshest global aggregate. Called off the
// request path (on combining-tree broadcast arrival), it makes the window
// boundary's solve a cache hit so the boundary never stalls on the LP. A
// no-op when the redirector is blind or the aggregate is stale.
func (r *Redirector) Presolve(now time.Duration) {
	if !r.haveGlob {
		return
	}
	if r.e.cfg.Staleness > 0 && now-r.globalAt > r.e.cfg.Staleness {
		return
	}
	// Deliberately snapshot the *active* generation rather than consulting
	// the rollout gate: gate crossings happen at window boundaries, and
	// pre-warming the outgoing generation's cache is at worst one wasted
	// solve per rollout.
	st := r.e.snapshot()
	n := r.globalDemand()
	// A failed solve is not cached; the boundary retries and reports it.
	switch r.e.cfg.Mode {
	case Community:
		_, _ = r.e.communityPlan(st, n, nil)
	case Provider:
		_, _ = r.e.providerPlan(st, n, nil)
	}
}

// globalDemand fills the redirector's scratch with the global n_i the window
// LP is solved for, with self-inclusion: the aggregate lags, so a principal's
// global figure can miss this redirector's own fresh demand. Using
// max(global, local) keeps the local fraction ≤ 1.
func (r *Redirector) globalDemand() []float64 {
	if r.nbuf == nil {
		r.nbuf = make([]float64, r.e.n)
	}
	n := r.nbuf
	for i := range n {
		n[i] = r.global[i]
		if r.estimate[i] > n[i] {
			n[i] = r.estimate[i]
		}
	}
	return n
}

// CreditsRemaining reports the remaining admissions for principal p across
// all owners this window (diagnostics and tests).
func (r *Redirector) CreditsRemaining(p agreement.Principal) float64 {
	if int(p) < 0 || int(p) >= r.e.n {
		return 0
	}
	if r.e.cfg.Mode == Provider {
		return r.creditsTotal[p]
	}
	total := 0.0
	for k := 0; k < r.e.n; k++ {
		total += r.credits[p][k]
	}
	return total
}
