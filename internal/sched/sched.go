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
// Both are linear programs, and both are solved exactly without a simplex
// (the paper's §3.1.2 leaves the solving method open): the community program
// is a parametric max-flow over a principal → owner network, θ found by a
// Newton search over its min cuts; the provider program is a fractional
// knapsack filled in price order. Each then maximizes total throughput at the
// optimal primary objective — the lexicographic second pass — so the plans
// are work-conserving: no server capacity is left idle while admissible
// requests wait. The tests check both against the optimum their duality
// certificates give from the inputs alone — min-cut enumeration for the
// community program, the price threshold for the provider program — and
// check every constraint on the plan, within 1e-6.
//
// A scheduler preallocates its working state at construction and writes each
// result into a plan the caller owns, so a Schedule call allocates nothing
// once that plan has been through it. It has one solve in flight at a time:
// callers serialize (the engine does, on the lock of the generation's
// PlanCache).
//
// All quantities are in requests per time window: callers scale rate
// entitlements (req/s) by the window duration before building a scheduler.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/agreement"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ErrInput reports malformed scheduler input.
var ErrInput = errors.New("sched: invalid input")

// errFloors reports mandatory floors no plan can carry; ScheduleInto answers
// it, and only it, by retrying without floors.
var errFloors = errors.New("sched: mandatory floors exceed capacities")

// Community schedules a community context. Construct with NewCommunity.
type Community struct {
	n        int
	acc      *agreement.Access
	capacity []float64 // per-owner server capacity, requests/window
	locality []float64 // optional per-owner push caps c_i (nil: none)

	net   flowNet
	floor []float64 // this solve's floors min(n_i, MC_i); 0 without floors
	order []int     // queued entitled principals by floor_i/n_i ascending
	steps int       // flow solves of the last θ search (tests)

	stats     *metrics.SolverStats
	logger    *obs.Logger
	warnLimit *obs.RateLimit
}

// NewCommunity builds a community scheduler. capacity[k] is owner k's server
// capacity in requests per window; acc must come from the same principal
// numbering. locality, if non-nil, caps the requests this redirector may
// push to each owner's servers per window (the paper's c_i extension; +Inf
// leaves an owner uncapped).
func NewCommunity(acc *agreement.Access, capacity, locality []float64) (*Community, error) {
	n := len(acc.MC)
	if len(capacity) != n {
		return nil, fmt.Errorf("%w: capacity length %d, want %d", ErrInput, len(capacity), n)
	}
	if locality != nil && len(locality) != n {
		return nil, fmt.Errorf("%w: locality length %d, want %d", ErrInput, len(locality), n)
	}
	u := make([]float64, n)
	for k := 0; k < n; k++ {
		if v := capacity[k]; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: capacity[%d] = %v", ErrInput, k, v)
		}
		u[k] = capacity[k]
		if locality != nil {
			if v := locality[k]; v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("%w: locality[%d] = %v", ErrInput, k, v)
			}
			u[k] = math.Min(u[k], locality[k])
		}
	}
	c := &Community{
		n: n, acc: acc, capacity: capacity, locality: locality,
		net:   newFlowNet(n, func(i, k int) float64 { return acc.MI[k][i] + acc.OI[k][i] }, u),
		floor: make([]float64, n),
		order: make([]int, 0, n),
	}
	c.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	return c, nil
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

// Plan is the result of a community scheduling decision.
type Plan struct {
	// X[i][k] is the number of requests from principal i's queue to forward
	// to owner k's servers this window. Fractional values are expected; the
	// admission layer (internal/admission) carries remainders across windows.
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

// Schedule solves the community program for the given global queue lengths
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

	err := c.solve(queues, true, plan)
	if !errors.Is(err, errFloors) {
		return err
	}
	// Mandatory floors can only be infeasible if entitlements exceed
	// capacities (possible when the caller's Access and capacity vectors
	// disagree); degrade gracefully rather than stalling the window, but
	// make the disagreement visible: it means some mandatory guarantee is
	// not enforceable as configured.
	total := c.stats.FloorFallback()
	c.log().WarnRate(c.warnLimit, "community window infeasible with mandatory floors; retrying without floors",
		"reason", "entitlements exceed capacities", "err", err, "fallbacks", total)
	return c.solve(queues, false, plan)
}

// maxSteps bounds the θ search: the minimal min cuts it visits shrink
// strictly, so it needs at most one flow solve per node of the network and
// one more to confirm θ*. Running out is a solver error, never a fallback.
func (c *Community) maxSteps() int { return 2*c.n + 4 }

// solve computes θ* and the throughput-maximal flow at θ* into plan.
//
// θ is feasible iff the max-flow with source capacities L_i(θ) =
// max(θ·n_i, floor_i) saturates all of them. The search starts at θ = 1 (0
// when a queued principal has no entitlement: its queue can never be served)
// and, while θ is infeasible, takes the source side S of the min cut and
// steps to the largest θ' with Σ_{i∈S} L_i(θ') = cut(S) — Newton's method on
// the concave function min over cuts of cut(S) − Σ_{i∈S} L_i(θ), so θ falls
// monotonically onto θ*. Floors that overflow a cut at θ = 0 return
// errFloors. The throughput pass then raises the source capacities to n_i
// and keeps augmenting; augmenting paths never take flow off a source edge,
// so every principal keeps at least L_i(θ*).
func (c *Community) solve(queues []float64, floors bool, plan *Plan) error {
	g := &c.net
	theta, total := 1.0, 0.0
	c.order = c.order[:0]
	for i, q := range queues {
		c.floor[i] = 0
		total += q
		if g.outDeg[i] == 0 {
			if q > 0 {
				theta = 0
			}
			continue
		}
		if floors {
			c.floor[i] = math.Min(q, c.acc.MC[i])
		}
		if q > 0 {
			c.order = append(c.order, i)
		}
	}
	slices.SortFunc(c.order, func(a, b int) int {
		return cmp.Compare(c.floor[a]/queues[a], c.floor[b]/queues[b])
	})
	eps, tol := 1e-12*math.Max(1, total), 1e-9*math.Max(1, total)

	for c.steps = 1; ; c.steps++ {
		if c.steps > c.maxSteps() {
			return fmt.Errorf("sched: community θ search did not converge in %d flow solves", c.maxSteps())
		}
		want, got := 0.0, 0.0
		for i, q := range queues {
			l := math.Max(theta*q, c.floor[i])
			g.cap[g.srcEdge[i]] = l
			want += l
		}
		g.reset()
		g.maxflow(eps)
		for i := range queues {
			got += g.sourceFlow(i)
		}
		if want-got <= tol {
			break
		}
		if theta == 0 {
			return errFloors
		}
		next := c.newton(queues, tol)
		if next < 0 {
			return errFloors
		}
		theta = math.Min(next, theta)
	}

	for i, q := range queues {
		g.cap[g.srcEdge[i]] = q
	}
	g.maxflow(eps)
	plan.reset(c.n)
	plan.Theta = theta
	for _, p := range g.pairs {
		v := math.Max(g.flow[p.e], 0)
		plan.X[p.i][p.k] = v
		plan.Total[p.i] += v
	}
	return nil
}

// newton returns the largest θ at which the principals S on the source side
// of the last min cut fit through it, Σ_{i∈S} max(θ·n_i, floor_i) = cut(S),
// or -1 when their floors alone overflow it. The left side is convex and
// piecewise linear with breakpoints floor_i/n_i, walked in c.order.
func (c *Community) newton(queues []float64, tol float64) float64 {
	g := &c.net
	cut := g.cutCapacity()
	inS := func(i int) bool { return g.level[principalNode(i)] >= 0 }
	fl, slope := 0.0, 0.0 // Σ floor_i of S below its breakpoint; Σ n_i above
	for _, i := range c.order {
		if inS(i) {
			fl += c.floor[i]
		}
	}
	if fl > cut+tol {
		return -1
	}
	lo := 0.0
	for _, i := range c.order {
		if !inS(i) {
			continue
		}
		b := c.floor[i] / queues[i]
		if slope > 0 {
			if th := (cut - fl) / slope; th <= b {
				return math.Max(th, lo)
			}
		}
		fl -= c.floor[i]
		slope += queues[i]
		lo = b
	}
	return math.Max((cut-fl)/slope, lo)
}

// Provider schedules a single service provider's servers across customers.
type Provider struct {
	n        int
	mc, oc   []float64 // per-customer entitlements, requests/window
	prices   []float64
	capacity float64 // aggregate server capacity, requests/window
	byPrice  []int   // customers by descending price, ties by ascending index

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
	p := &Provider{n: n, mc: mc, oc: oc, prices: prices, capacity: capacity, byPrice: make([]int, n)}
	for i := range p.byPrice {
		p.byPrice[i] = i
	}
	sort.SliceStable(p.byPrice, func(a, b int) bool { return prices[p.byPrice[a]] > prices[p.byPrice[b]] })
	p.warnLimit = obs.NewRateLimit(5*time.Second, 1)
	return p, nil
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

// Schedule solves the provider program for the given per-customer queue
// lengths into a new ProviderPlan.
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
//
// The program has one coupling row, capacity, so it is a fractional
// knapsack: every customer first gets its floor min(MC_i, n_i), then the
// remaining capacity goes to customers in descending price order, each up
// to min(MC_i+OC_i, n_i, V). Zero-price customers come last and still fill,
// which is the throughput pass at optimal income.
func (p *Provider) ScheduleInto(queues []float64, plan *ProviderPlan) error {
	if len(queues) != p.n {
		return fmt.Errorf("%w: queues length %d, want %d", ErrInput, len(queues), p.n)
	}
	for i, q := range queues {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("%w: queue[%d] = %v", ErrInput, i, q)
		}
	}

	plan.reset(p.n)
	rem := p.capacity
	for i, q := range queues {
		plan.X[i] = math.Min(p.mc[i], q) // mandatory, clipped to demand
		rem -= plan.X[i]
	}
	if rem < -1e-9*math.Max(1, p.capacity) {
		// Mandatory floors exceed capacity: serve mandatory shares scaled
		// proportionally instead of failing the window, and surface the
		// entitlement/capacity disagreement.
		total := p.stats.FloorFallback()
		p.log().WarnRate(p.warnLimit, "provider window infeasible with mandatory floors; scaling mandatory shares to capacity",
			"reason", "entitlements exceed capacity", "fallbacks", total)
		p.scaledMandatory(queues, plan)
		return nil
	}
	for _, i := range p.byPrice {
		if rem <= 0 {
			break
		}
		hi := math.Min(math.Min(p.mc[i]+p.oc[i], queues[i]), p.capacity) // agreement + demand
		if add := math.Min(hi-plan.X[i], rem); add > 0 {
			plan.X[i] += add
			rem -= add
		}
	}
	for i, x := range plan.X {
		plan.Income += p.prices[i] * (x - p.mc[i])
	}
	return nil
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
