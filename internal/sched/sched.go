// Package sched implements the window schedulers of §3.1.2: given the
// per-principal entitlements computed by internal/agreement and the queue
// lengths observed in the current time window, decide how many requests from
// each principal's queue to forward to each owner's servers.
//
// Two optimization models are provided, matching the paper's two contexts:
//
//   - Community: maximize θ = min_i Σ_k x_ik / n_i, the minimum fraction of
//     any queue served this window (a proxy for minimizing the maximum
//     response time), subject to capacities and agreement bounds.
//   - Provider: maximize the provider's income Σ_i p_i (x_i − MC_i) subject
//     to capacity and agreement bounds.
//
// Both models are solved as linear programs (internal/lp) and then re-solved
// lexicographically to maximize total throughput at the optimal primary
// objective, so the plans are work-conserving: no server capacity is left
// idle while admissible requests wait.
//
// Because the paper re-solves every 100 ms window, both schedulers compile
// their constraint structure once at construction: each Schedule call only
// rewrites the handful of coefficients that depend on the queue vector and
// re-solves on the scheduler's own lp.Solver, whose tableau memory persists
// across windows, with the lexicographic second pass warm-started from the
// first pass's basis, and writes the result into a plan the caller owns. A
// scheduler therefore has one solve in flight at a time: callers serialize
// (the engine does, on the lock of the generation's PlanCache). The
// allocating from-scratch path is kept as scheduleSlow for differential
// tests; fast and slow plans are byte-identical.
//
// All quantities are in requests per time window: callers scale rate
// entitlements (req/s) by the window duration before building a scheduler.
package sched

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/lp"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ErrInput reports malformed scheduler input.
var ErrInput = errors.New("sched: invalid input")

// lexTol is how far below its optimum the primary objective may sit during
// the lexicographic throughput pass.
const lexTol = 1e-9

// Community schedules a community context. Construct with NewCommunity.
type Community struct {
	n        int
	acc      *agreement.Access
	capacity []float64 // per-owner server capacity, requests/window
	locality []float64 // optional per-owner push caps c_i (nil: none)

	// Compiled fast-path structure: tmpl is the LP for an all-positive
	// queue vector; the row indices below locate the entries Schedule
	// rewrites per call. xv[i][k] is the LP variable carrying traffic from
	// principal i to owner k (-1 when no entitlement exists).
	tmpl      *lp.Problem
	obj2      []float64 // lexicographic throughput objective
	xv        [][]lp.Var
	servedRow []int // Σ_k x_ik − θ n_i ≥ 0      (θ coefficient ← −n_i)
	demandRow []int // Σ_k x_ik ≤ n_i            (RHS ← n_i)
	floorRow  []int // Σ_k x_ik ≥ min(n_i, MC_i) (RHS ← floor, 0 on fallback)
	blockRow  []int // θ n_i ≤ 0 for unentitled i (θ coefficient ← n_i)
	// Bound/capacity row positions, recorded so NewCommunityFrom can
	// re-derive an existing template's bounds under renegotiated
	// entitlements without recompiling: varHiRow[v] is variable v's upper
	// bound row (x_ik ≤ MI+OI), capRow/locRow[k] owner k's capacity and
	// locality rows (-1 when absent).
	varHiRow []int
	capRow   []int
	locRow   []int

	st solveState

	stats     *metrics.SolverStats
	logger    *obs.Logger
	warnLimit *obs.RateLimit
}

// solveState is a scheduler's mutable solve state: its own copy of the
// template, whose queue-dependent entries every Schedule call rewrites, and
// the solver whose tableau memory carries over from window to window. The
// template itself stays untouched, so a later generation can be re-derived
// from it while this one is solving.
type solveState struct {
	p      *lp.Problem
	solver *lp.Solver
}

func newSolveState(tmpl *lp.Problem) solveState {
	return solveState{p: tmpl.Clone(), solver: lp.NewSolver()}
}

// NewCommunity builds a community scheduler. capacity[k] is owner k's server
// capacity in requests per window; acc must come from the same principal
// numbering. locality, if non-nil, caps the requests this redirector may
// push to each owner's servers per window (the paper's c_i extension).
func NewCommunity(acc *agreement.Access, capacity, locality []float64) (*Community, error) {
	n := len(acc.MC)
	if len(capacity) != n {
		return nil, fmt.Errorf("%w: capacity length %d, want %d", ErrInput, len(capacity), n)
	}
	if locality != nil && len(locality) != n {
		return nil, fmt.Errorf("%w: locality length %d, want %d", ErrInput, len(locality), n)
	}
	c := &Community{n: n, acc: acc, capacity: capacity, locality: locality}
	c.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	c.compile()
	c.st = newSolveState(c.tmpl)
	return c, nil
}

// NewCommunityFrom builds a community scheduler for renegotiated
// entitlements by re-deriving the bounds of prev's compiled template: when
// the new Access has the same entitlement sparsity and mandatory-floor
// pattern (the common case for a pure [lb, ub] or capacity renegotiation),
// the constraint layout is identical and only the upper-bound, capacity, and
// locality rows need new right-hand sides — no recompilation, and the
// template stays row-for-row identical to a fresh compile, so plans are
// bit-identical too. Structurally incompatible inputs fall back to a full
// NewCommunity. prev is read-only and remains valid: in-flight windows on
// the previous generation are unaffected.
func NewCommunityFrom(prev *Community, acc *agreement.Access, capacity, locality []float64) (*Community, error) {
	n := len(acc.MC)
	if prev == nil || prev.n != n || !prev.compatible(acc, locality) {
		return NewCommunity(acc, capacity, locality)
	}
	if len(capacity) != n {
		return nil, fmt.Errorf("%w: capacity length %d, want %d", ErrInput, len(capacity), n)
	}
	c := &Community{
		n: n, acc: acc, capacity: capacity, locality: locality,
		obj2: prev.obj2, xv: prev.xv,
		servedRow: prev.servedRow, demandRow: prev.demandRow,
		floorRow: prev.floorRow, blockRow: prev.blockRow,
		varHiRow: prev.varHiRow, capRow: prev.capRow, locRow: prev.locRow,
	}
	c.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	c.tmpl = prev.tmpl.Clone()
	cons := c.tmpl.Constraints
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if v := c.xv[i][k]; v >= 0 {
				cons[c.varHiRow[v]].RHS = acc.MI[k][i] + acc.OI[k][i]
			}
		}
	}
	for k := 0; k < n; k++ {
		if r := c.capRow[k]; r >= 0 {
			cons[r].RHS = capacity[k]
		}
		if r := c.locRow[k]; r >= 0 {
			cons[r].RHS = locality[k]
		}
	}
	c.st = newSolveState(c.tmpl)
	return c, nil
}

// compatible reports whether acc/locality produce the same compiled row
// structure as the receiver's: same entitlement sparsity (which x variables
// exist), same floor pattern (which floor rows exist), and the same locality
// row pattern.
func (c *Community) compatible(acc *agreement.Access, locality []float64) bool {
	if len(acc.MC) != c.n {
		return false
	}
	if (c.locality == nil) != (locality == nil) {
		return false
	}
	for i := 0; i < c.n; i++ {
		if (c.acc.MC[i] > 0) != (acc.MC[i] > 0) {
			return false
		}
		for k := 0; k < c.n; k++ {
			if (c.acc.MI[k][i]+c.acc.OI[k][i] > 0) != (acc.MI[k][i]+acc.OI[k][i] > 0) {
				return false
			}
		}
		if locality != nil && math.IsInf(c.locality[i], 1) != math.IsInf(locality[i], 1) {
			return false
		}
	}
	return true
}

// SetStats wires shared fast-path telemetry (may be nil). Typically called
// by the owning engine right after construction.
func (c *Community) SetStats(s *metrics.SolverStats) { c.stats = s }

// SetLogger wires a structured logger for enforcement-degradation events
// (nil falls back to the process default).
func (c *Community) SetLogger(l *obs.Logger) { c.logger = l }

func (c *Community) log() *obs.Logger {
	if c.logger != nil {
		return c.logger
	}
	return obs.Default().With("sched")
}

// compile builds the constraint template once. It emits rows in exactly the
// order the from-scratch path does for an all-positive queue vector, so the
// fast path's pivot sequence — and therefore its plans — are identical.
func (c *Community) compile() {
	n := c.n
	b := lp.NewBuilder()
	theta := b.NewVar(1)
	b.Bound(theta, 0, 1)
	c.varHiRow = append(c.varHiRow[:0], b.NumConstraints()-1)

	c.xv = make([][]lp.Var, n)
	for i := 0; i < n; i++ {
		c.xv[i] = make([]lp.Var, n)
		for k := 0; k < n; k++ {
			c.xv[i][k] = -1
			if hi := c.acc.MI[k][i] + c.acc.OI[k][i]; hi > 0 {
				v := b.NewVar(0)
				b.Bound(v, 0, hi)
				c.varHiRow = append(c.varHiRow, b.NumConstraints()-1)
				c.xv[i][k] = v
			}
		}
	}

	c.servedRow = filled(n, -1)
	c.demandRow = filled(n, -1)
	c.floorRow = filled(n, -1)
	c.blockRow = filled(n, -1)
	for i := 0; i < n; i++ {
		// Placeholder coefficients/RHS (for n_i = 1) are rewritten by every
		// Schedule call before solving.
		terms := []lp.Term{lp.T(theta, -1)}
		var sum []lp.Term
		for k := 0; k < n; k++ {
			if c.xv[i][k] >= 0 {
				terms = append(terms, lp.T(c.xv[i][k], 1))
				sum = append(sum, lp.T(c.xv[i][k], 1))
			}
		}
		if len(sum) == 0 {
			// No entitlement anywhere: θ must account for an unserved queue.
			c.blockRow[i] = b.NumConstraints()
			b.Constrain(lp.LE, 0, lp.T(theta, 1))
			continue
		}
		c.servedRow[i] = b.NumConstraints()
		b.Constrain(lp.GE, 0, terms...)
		c.demandRow[i] = b.NumConstraints()
		b.Constrain(lp.LE, 1, sum...)
		// Mandatory floor Σ_k x_ik ≥ min(n_i, MC_i) — the paper's lower
		// bound, clipped to demand instead of dropped so a principal whose
		// queue is below its mandatory level is still served in full.
		if c.acc.MC[i] > 0 {
			c.floorRow[i] = b.NumConstraints()
			b.Constrain(lp.GE, 1, sum...)
		}
	}

	// Server capacity: Σ_i x_ik ≤ V_k, and locality caps.
	c.capRow = filled(n, -1)
	c.locRow = filled(n, -1)
	for k := 0; k < n; k++ {
		var load []lp.Term
		for i := 0; i < n; i++ {
			if c.xv[i][k] >= 0 {
				load = append(load, lp.T(c.xv[i][k], 1))
			}
		}
		if len(load) == 0 {
			continue
		}
		c.capRow[k] = b.NumConstraints()
		b.Constrain(lp.LE, c.capacity[k], load...)
		if c.locality != nil && !math.IsInf(c.locality[k], 1) {
			c.locRow[k] = b.NumConstraints()
			b.Constrain(lp.LE, c.locality[k], load...)
		}
	}

	c.tmpl = b.Problem()
	c.obj2 = make([]float64, b.NumVars())
	for j := 1; j < len(c.obj2); j++ {
		c.obj2[j] = 1 // every x variable; θ stays out of the throughput pass
	}
}

func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Plan is the result of a community scheduling decision.
type Plan struct {
	// X[i][k] is the number of requests from principal i's queue to forward
	// to owner k's servers this window. Fractional values are expected; the
	// admission layer (internal/window) carries remainders across windows.
	X [][]float64
	// Total[i] = Σ_k X[i][k].
	Total []float64
	// Theta is the achieved minimum served fraction min_i Total[i]/n_i.
	Theta float64
}

// reset sizes the plan for n principals and zeroes it, keeping its buffers
// (the rows of X share one backing array) when they already fit.
func (p *Plan) reset(n int) {
	if len(p.X) != n || len(p.Total) != n {
		flat := make([]float64, n*n)
		p.X = make([][]float64, n)
		for i := range p.X {
			p.X[i], flat = flat[:n:n], flat[n:]
		}
		p.Total = make([]float64, n)
	}
	for i := range p.X {
		for k := range p.X[i] {
			p.X[i][k] = 0
		}
		p.Total[i] = 0
	}
	p.Theta = 0
}

// CopyFrom makes p a deep copy of src, reusing p's buffers when they fit.
func (p *Plan) CopyFrom(src *Plan) {
	p.reset(len(src.Total))
	for i := range src.X {
		copy(p.X[i], src.X[i])
	}
	copy(p.Total, src.Total)
	p.Theta = src.Theta
}

// Schedule solves the community LP for the given global queue lengths
// (requests per window, indexed by principal) into a new Plan.
func (c *Community) Schedule(queues []float64) (*Plan, error) {
	plan := new(Plan)
	if err := c.ScheduleInto(queues, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// ScheduleInto is Schedule writing into plan, whose buffers it reuses: the
// per-window form, which allocates nothing once plan has been through it. On
// error plan's contents are unspecified. Not safe for concurrent use.
func (c *Community) ScheduleInto(queues []float64, plan *Plan) error {
	if len(queues) != c.n {
		return fmt.Errorf("%w: queues length %d, want %d", ErrInput, len(queues), c.n)
	}
	for i, q := range queues {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("%w: queue[%d] = %v", ErrInput, i, q)
		}
	}

	err := c.solveFast(queues, true, plan)
	if err == nil {
		return nil
	}
	// Mandatory floors can only be infeasible if entitlements exceed
	// capacities (possible when the caller's Access and capacity vectors
	// disagree); degrade gracefully rather than stalling the window, but
	// make the disagreement visible: it means some mandatory guarantee is
	// not enforceable as configured.
	total := c.stats.FloorFallback()
	c.log().WarnRate(c.warnLimit, "community window infeasible with mandatory floors; retrying without floors",
		"reason", "entitlements exceed capacities", "err", err, "fallbacks", total)
	return c.solveFast(queues, false, plan)
}

// solveFast rewrites the queue-dependent entries of the scheduler's template
// copy in place, solves it on the persistent solver and reads the assignment
// out into plan.
func (c *Community) solveFast(queues []float64, floors bool, plan *Plan) error {
	cons := c.st.p.Constraints
	for i := 0; i < c.n; i++ {
		q := queues[i]
		if r := c.servedRow[i]; r >= 0 {
			cons[r].Coeffs[0] = -q
			cons[c.demandRow[i]].RHS = q
		}
		if r := c.floorRow[i]; r >= 0 {
			floor := 0.0
			if floors {
				floor = math.Min(q, c.acc.MC[i])
			}
			cons[r].RHS = floor
		}
		if r := c.blockRow[i]; r >= 0 {
			cons[r].Coeffs[0] = q
		}
	}

	sol, err := c.st.solver.SolveLex(c.st.p, lexTol, c.obj2)
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("sched: community LP %v", sol.Status)
	}
	plan.reset(c.n)
	plan.Theta = sol.Primary
	for i := 0; i < c.n; i++ {
		for k := 0; k < c.n; k++ {
			if v := c.xv[i][k]; v >= 0 {
				val := sol.X[v]
				if val < 0 {
					val = 0
				}
				plan.X[i][k] = val
				plan.Total[i] += val
			}
		}
	}
	return nil
}

// scheduleSlow is the allocating reference path: it rebuilds the whole
// program through a Builder on every call and solves it on a fresh solver.
// Differential tests assert the fast path matches it byte for byte.
func (c *Community) scheduleSlow(queues []float64) (*Plan, error) {
	plan, err := c.solveSlow(queues, true)
	if err == nil {
		return plan, nil
	}
	return c.solveSlow(queues, false)
}

func (c *Community) solveSlow(queues []float64, floors bool) (*Plan, error) {
	n := c.n
	b := lp.NewBuilder()
	theta := b.NewVar(1)
	b.Bound(theta, 0, 1)

	// x[i][k] variables only where an entitlement exists.
	x := make([][]lp.Var, n)
	for i := 0; i < n; i++ {
		x[i] = make([]lp.Var, n)
		for k := 0; k < n; k++ {
			x[i][k] = -1
			if queues[i] <= 0 {
				continue
			}
			if hi := c.acc.MI[k][i] + c.acc.OI[k][i]; hi > 0 {
				x[i][k] = b.NewVar(0)
				b.Bound(x[i][k], 0, hi)
			}
		}
	}

	for i := 0; i < n; i++ {
		if queues[i] <= 0 {
			continue
		}
		terms := []lp.Term{lp.T(theta, -queues[i])}
		var sum []lp.Term
		for k := 0; k < n; k++ {
			if x[i][k] >= 0 {
				terms = append(terms, lp.T(x[i][k], 1))
				sum = append(sum, lp.T(x[i][k], 1))
			}
		}
		if len(sum) == 0 {
			b.Constrain(lp.LE, 0, lp.T(theta, queues[i]))
			continue
		}
		// Σ_k x_ik − θ n_i ≥ 0.
		b.Constrain(lp.GE, 0, terms...)
		// Σ_k x_ik ≤ n_i.
		b.Constrain(lp.LE, queues[i], sum...)
		if floors {
			if floor := math.Min(queues[i], c.acc.MC[i]); floor > 0 {
				b.Constrain(lp.GE, floor, sum...)
			}
		}
	}

	for k := 0; k < n; k++ {
		var load []lp.Term
		for i := 0; i < n; i++ {
			if x[i][k] >= 0 {
				load = append(load, lp.T(x[i][k], 1))
			}
		}
		if len(load) == 0 {
			continue
		}
		b.Constrain(lp.LE, c.capacity[k], load...)
		if c.locality != nil && !math.IsInf(c.locality[k], 1) {
			b.Constrain(lp.LE, c.locality[k], load...)
		}
	}

	obj2 := make([]float64, b.NumVars())
	for j := 1; j < len(obj2); j++ {
		obj2[j] = 1
	}
	sol, err := lp.SolveLex(b.Problem(), lexTol, obj2)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("sched: community LP %v", sol.Status)
	}

	plan := &Plan{
		X:     make([][]float64, n),
		Total: make([]float64, n),
		Theta: sol.Primary,
	}
	for i := 0; i < n; i++ {
		plan.X[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			if x[i][k] >= 0 {
				v := sol.X[x[i][k]]
				if v < 0 {
					v = 0
				}
				plan.X[i][k] = v
				plan.Total[i] += v
			}
		}
	}
	return plan, nil
}

// Provider schedules a single service provider's servers across customers.
type Provider struct {
	n        int
	mc, oc   []float64 // per-customer entitlements, requests/window
	prices   []float64
	capacity float64 // aggregate server capacity, requests/window

	// Compiled fast-path structure (see Community for the pattern).
	tmpl  *lp.Problem
	obj2  []float64
	loRow []int // x_i ≥ min(MC_i, n_i)                 (RHS ← lo)
	hiRow []int // x_i ≤ min(MC_i+OC_i, n_i, capacity)  (RHS ← hi)
	// capRow is the aggregate capacity row, recorded so NewProviderFrom can
	// re-derive the template under renegotiated entitlements.
	capRow int

	st solveState

	stats     *metrics.SolverStats
	logger    *obs.Logger
	warnLimit *obs.RateLimit
}

// NewProvider builds a provider scheduler. mc/oc are the customers'
// mandatory/optional processing rates per window (from agreement.Access,
// excluding the provider itself), prices[i] is the per-request price paid by
// customer i beyond its mandatory level, and capacity is the provider's
// total server capacity per window.
func NewProvider(mc, oc, prices []float64, capacity float64) (*Provider, error) {
	n := len(mc)
	if len(oc) != n || len(prices) != n {
		return nil, fmt.Errorf("%w: mc/oc/prices lengths %d/%d/%d", ErrInput, n, len(oc), len(prices))
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: capacity %v", ErrInput, capacity)
	}
	for i := 0; i < n; i++ {
		if mc[i] < 0 || oc[i] < 0 || prices[i] < 0 {
			return nil, fmt.Errorf("%w: negative entitlement or price for customer %d", ErrInput, i)
		}
	}
	p := &Provider{n: n, mc: mc, oc: oc, prices: prices, capacity: capacity}
	p.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	p.compile()
	p.st = newSolveState(p.tmpl)
	return p, nil
}

// NewProviderFrom builds a provider scheduler for renegotiated entitlements
// by re-deriving the bounds of prev's compiled template. Schedule rewrites
// the per-customer lo/hi rows from mc/oc/capacity on every call, so when the
// floor pattern (mc_i > 0) and the compiled price objective are unchanged
// only the aggregate capacity row needs a new right-hand side. Incompatible
// inputs fall back to a full NewProvider; prev remains valid either way.
func NewProviderFrom(prev *Provider, mc, oc, prices []float64, capacity float64) (*Provider, error) {
	if prev == nil || !prev.compatible(mc, prices) {
		return NewProvider(mc, oc, prices, capacity)
	}
	n := len(mc)
	if len(oc) != n || len(prices) != n {
		return nil, fmt.Errorf("%w: mc/oc/prices lengths %d/%d/%d", ErrInput, n, len(oc), len(prices))
	}
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: capacity %v", ErrInput, capacity)
	}
	for i := 0; i < n; i++ {
		if mc[i] < 0 || oc[i] < 0 {
			return nil, fmt.Errorf("%w: negative entitlement for customer %d", ErrInput, i)
		}
	}
	p := &Provider{
		n: n, mc: mc, oc: oc, prices: prices, capacity: capacity,
		obj2: prev.obj2, loRow: prev.loRow, hiRow: prev.hiRow, capRow: prev.capRow,
	}
	p.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	p.tmpl = prev.tmpl.Clone()
	p.tmpl.Constraints[p.capRow].RHS = capacity
	p.st = newSolveState(p.tmpl)
	return p, nil
}

// compatible reports whether mc/prices produce the same compiled row
// structure and objective as the receiver's: the same floor pattern (which
// lo rows exist) and identical per-request prices (compiled into the
// objective, not rewritten per call).
func (p *Provider) compatible(mc, prices []float64) bool {
	if len(mc) != p.n || len(prices) != p.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if (p.mc[i] > 0) != (mc[i] > 0) || p.prices[i] != prices[i] {
			return false
		}
	}
	return true
}

// SetStats wires shared fast-path telemetry (may be nil).
func (p *Provider) SetStats(s *metrics.SolverStats) { p.stats = s }

// SetLogger wires a structured logger for enforcement-degradation events
// (nil falls back to the process default).
func (p *Provider) SetLogger(l *obs.Logger) { p.logger = l }

func (p *Provider) log() *obs.Logger {
	if p.logger != nil {
		return p.logger
	}
	return obs.Default().With("sched")
}

// compile builds the provider template, mirroring the from-scratch build
// order for an all-positive queue vector.
func (p *Provider) compile() {
	b := lp.NewBuilder()
	p.loRow = filled(p.n, -1)
	p.hiRow = filled(p.n, -1)
	var all []lp.Term
	for i := 0; i < p.n; i++ {
		v := b.NewVar(p.prices[i])
		if p.mc[i] > 0 {
			p.loRow[i] = b.NumConstraints()
			b.Constrain(lp.GE, p.mc[i], lp.T(v, 1))
		}
		p.hiRow[i] = b.NumConstraints()
		b.Constrain(lp.LE, math.Min(p.mc[i]+p.oc[i], p.capacity), lp.T(v, 1))
		all = append(all, lp.T(v, 1))
	}
	p.capRow = b.NumConstraints()
	b.Constrain(lp.LE, p.capacity, all...)

	p.tmpl = b.Problem()
	p.obj2 = make([]float64, p.n)
	for j := range p.obj2 {
		p.obj2[j] = 1
	}
}

// ProviderPlan is the result of a provider scheduling decision.
type ProviderPlan struct {
	// X[i] is the number of customer i's requests to admit this window.
	X []float64
	// Income is Σ_i p_i (X[i] − MC_i), the paper's objective value.
	Income float64
}

// reset sizes the plan for n customers and zeroes it, keeping its buffer
// when it already fits.
func (pp *ProviderPlan) reset(n int) {
	if len(pp.X) != n {
		pp.X = make([]float64, n)
	}
	for i := range pp.X {
		pp.X[i] = 0
	}
	pp.Income = 0
}

// CopyFrom makes pp a deep copy of src, reusing pp's buffer when it fits.
func (pp *ProviderPlan) CopyFrom(src *ProviderPlan) {
	pp.reset(len(src.X))
	copy(pp.X, src.X)
	pp.Income = src.Income
}

// Schedule solves the provider LP for the given per-customer queue lengths
// into a new ProviderPlan.
func (p *Provider) Schedule(queues []float64) (*ProviderPlan, error) {
	plan := new(ProviderPlan)
	if err := p.ScheduleInto(queues, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// ScheduleInto is Schedule writing into plan, whose buffer it reuses: the
// per-window form, which allocates nothing once plan has been through it. On
// error plan's contents are unspecified. Not safe for concurrent use.
func (p *Provider) ScheduleInto(queues []float64, plan *ProviderPlan) error {
	if len(queues) != p.n {
		return fmt.Errorf("%w: queues length %d, want %d", ErrInput, len(queues), p.n)
	}
	for i, q := range queues {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("%w: queue[%d] = %v", ErrInput, i, q)
		}
	}

	cons := p.st.p.Constraints
	for i := 0; i < p.n; i++ {
		q := queues[i]
		lo := math.Min(p.mc[i], q)                               // mandatory, clipped to demand
		hi := math.Min(math.Min(p.mc[i]+p.oc[i], q), p.capacity) // agreement + demand
		if hi < lo {
			hi = lo
		}
		if r := p.loRow[i]; r >= 0 {
			cons[r].RHS = lo
		}
		cons[p.hiRow[i]].RHS = hi
	}

	sol, err := p.st.solver.SolveLex(p.st.p, lexTol, p.obj2)
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		// Mandatory floors exceed capacity: serve mandatory shares scaled
		// proportionally instead of failing the window, and surface the
		// entitlement/capacity disagreement.
		total := p.stats.FloorFallback()
		p.log().WarnRate(p.warnLimit, "provider window not optimal with mandatory floors; scaling mandatory shares to capacity",
			"reason", "entitlements exceed capacity", "status", sol.Status, "fallbacks", total)
		p.scaledMandatory(queues, plan)
		return nil
	}
	p.extractPlan(sol.X, plan)
	return nil
}

func (p *Provider) extractPlan(x []float64, plan *ProviderPlan) {
	plan.reset(p.n)
	for i := 0; i < p.n; i++ {
		v := x[i]
		if v < 0 {
			v = 0
		}
		plan.X[i] = v
		plan.Income += p.prices[i] * (v - p.mc[i])
	}
}

// scheduleSlow is the allocating reference path for differential tests.
func (p *Provider) scheduleSlow(queues []float64) (*ProviderPlan, error) {
	b := lp.NewBuilder()
	xs := make([]lp.Var, p.n)
	var all []lp.Term
	for i := 0; i < p.n; i++ {
		q := queues[i]
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return nil, fmt.Errorf("%w: queue[%d] = %v", ErrInput, i, q)
		}
		xs[i] = b.NewVar(p.prices[i])
		lo := math.Min(p.mc[i], q)
		hi := math.Min(math.Min(p.mc[i]+p.oc[i], q), p.capacity)
		if hi < lo {
			hi = lo
		}
		b.Bound(xs[i], lo, hi)
		all = append(all, lp.T(xs[i], 1))
	}
	b.Constrain(lp.LE, p.capacity, all...)

	obj2 := make([]float64, p.n)
	for j := range obj2 {
		obj2[j] = 1
	}
	sol, err := lp.SolveLex(b.Problem(), lexTol, obj2)
	if err != nil {
		return nil, err
	}
	plan := new(ProviderPlan)
	if sol.Status != lp.Optimal {
		// The same capacity-scaling degradation as the fast path: count and
		// log it here too, so the reference path never falls back invisibly.
		total := p.stats.FloorFallback()
		p.log().WarnRate(p.warnLimit, "provider window not optimal with mandatory floors; scaling mandatory shares to capacity",
			"reason", "entitlements exceed capacity", "status", sol.Status, "fallbacks", total)
		p.scaledMandatory(queues, plan)
		return plan, nil
	}
	p.extractPlan(sol.X, plan)
	return plan, nil
}

// scaledMandatory distributes capacity proportionally to clipped mandatory
// demands — the safe fallback when floors alone exceed capacity.
func (p *Provider) scaledMandatory(queues []float64, plan *ProviderPlan) {
	plan.reset(p.n)
	total := 0.0
	for i := 0; i < p.n; i++ {
		total += math.Min(p.mc[i], queues[i])
	}
	if total <= 0 {
		return
	}
	scale := math.Min(1, p.capacity/total)
	for i := 0; i < p.n; i++ {
		plan.X[i] = math.Min(p.mc[i], queues[i]) * scale
		plan.Income += p.prices[i] * (plan.X[i] - p.mc[i])
	}
}
