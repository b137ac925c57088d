package sched

import (
	"fmt"
	"math"

	"repro/internal/agreement"
	"repro/internal/lp"
)

// MultiCommunity is the community scheduler generalized to multiple
// resource dimensions (§3.1.1: "in case of multiple resource types, above
// quantities should be represented as vectors"). Each request of principal
// i consumes Cost[i][d] units of resource d on whichever server processes
// it; capacities and entitlements are per dimension.
type MultiCommunity struct {
	n, dims  int
	accs     []*agreement.Access // one per dimension
	capacity [][]float64         // [dim][owner], units/window
	cost     [][]float64         // [principal][dim], units per request
}

// NewMultiCommunity builds a multi-resource community scheduler.
//
// accs[d] is the entitlement structure for dimension d (from
// Flows.MultiAccess), capacity[d][k] is owner k's capacity in dimension d
// per window, and cost[i][d] is how much of dimension d one request of
// principal i consumes (must be positive in at least one dimension).
func NewMultiCommunity(accs []*agreement.Access, capacity, cost [][]float64) (*MultiCommunity, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("%w: no dimensions", ErrInput)
	}
	dims := len(accs)
	n := len(accs[0].MC)
	if len(capacity) != dims {
		return nil, fmt.Errorf("%w: capacity has %d dimensions, want %d", ErrInput, len(capacity), dims)
	}
	for d := 0; d < dims; d++ {
		if len(accs[d].MC) != n {
			return nil, fmt.Errorf("%w: dimension %d has %d principals, want %d", ErrInput, d, len(accs[d].MC), n)
		}
		if len(capacity[d]) != n {
			return nil, fmt.Errorf("%w: capacity[%d] length %d, want %d", ErrInput, d, len(capacity[d]), n)
		}
	}
	if len(cost) != n {
		return nil, fmt.Errorf("%w: cost has %d principals, want %d", ErrInput, len(cost), n)
	}
	for i := range cost {
		if len(cost[i]) != dims {
			return nil, fmt.Errorf("%w: cost[%d] has %d dimensions, want %d", ErrInput, i, len(cost[i]), dims)
		}
		positive := false
		for _, c := range cost[i] {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("%w: cost[%d] = %v", ErrInput, i, cost[i])
			}
			if c > 0 {
				positive = true
			}
		}
		if !positive {
			return nil, fmt.Errorf("%w: principal %d consumes nothing in any dimension", ErrInput, i)
		}
	}
	return &MultiCommunity{n: n, dims: dims, accs: accs, capacity: capacity, cost: cost}, nil
}

// Schedule solves the multi-dimensional max–min LP for the given global
// queue lengths (requests per window) into a new Plan.
func (m *MultiCommunity) Schedule(queues []float64) (*Plan, error) {
	plan := new(Plan)
	if err := m.ScheduleInto(queues, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// ScheduleInto is Schedule writing into plan, whose buffers it reuses (the
// program itself is still rebuilt per call). On error plan's contents are
// unspecified.
//
// Model: maximize θ subject to, for every principal i with n_i > 0,
//
//	Σ_k x_ik ≥ θ·n_i                     (served fraction)
//	Σ_k x_ik ≤ n_i                       (demand)
//	Σ_k x_ik ≥ min(n_i, mandatory_i)     (guarantee; mandatory_i is the
//	                                      binding minimum across dimensions)
//	x_ik ≤ min_d (MI_d+OI_d)[k][i]/cost[i][d]   (per-pair entitlements)
//	Σ_i x_ik·cost[i][d] ≤ V_k_d ∀k,d     (per-dimension capacities)
func (m *MultiCommunity) ScheduleInto(queues []float64, plan *Plan) error {
	if len(queues) != m.n {
		return fmt.Errorf("%w: queues length %d, want %d", ErrInput, len(queues), m.n)
	}
	for i, q := range queues {
		if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("%w: queue[%d] = %v", ErrInput, i, q)
		}
	}

	b := lp.NewBuilder()
	theta := b.NewVar(1)
	b.Bound(theta, 0, 1)

	x := make([][]lp.Var, m.n)
	for i := 0; i < m.n; i++ {
		x[i] = make([]lp.Var, m.n)
		for k := 0; k < m.n; k++ {
			x[i][k] = -1
			if queues[i] <= 0 {
				continue
			}
			hi := m.pairLimit(i, k)
			if hi > 0 {
				x[i][k] = b.NewVar(0)
				b.Bound(x[i][k], 0, hi)
			}
		}
	}

	for i := 0; i < m.n; i++ {
		if queues[i] <= 0 {
			continue
		}
		var sum []lp.Term
		terms := []lp.Term{lp.T(theta, -queues[i])}
		for k := 0; k < m.n; k++ {
			if x[i][k] >= 0 {
				sum = append(sum, lp.T(x[i][k], 1))
				terms = append(terms, lp.T(x[i][k], 1))
			}
		}
		if len(sum) == 0 {
			b.Constrain(lp.LE, 0, lp.T(theta, queues[i]))
			continue
		}
		b.Constrain(lp.GE, 0, terms...)
		b.Constrain(lp.LE, queues[i], sum...)
		if floor := math.Min(queues[i], m.mandatoryRequests(i)); floor > 0 {
			b.Constrain(lp.GE, floor, sum...)
		}
	}

	for d := 0; d < m.dims; d++ {
		for k := 0; k < m.n; k++ {
			var load []lp.Term
			for i := 0; i < m.n; i++ {
				if x[i][k] >= 0 && m.cost[i][d] > 0 {
					load = append(load, lp.T(x[i][k], m.cost[i][d]))
				}
			}
			if len(load) > 0 {
				b.Constrain(lp.LE, m.capacity[d][k], load...)
			}
		}
	}

	sol, err := b.Solve()
	if err != nil {
		return err
	}
	if sol.Status != lp.Optimal {
		return fmt.Errorf("sched: multi-community LP %v", sol.Status)
	}
	thetaStar := b.Value(sol, theta)

	// Lexicographic throughput pass at the optimal θ.
	b.Constrain(lp.GE, thetaStar-1e-9, lp.T(theta, 1))
	p2 := b.Problem()
	for j := 1; j < len(p2.Objective); j++ {
		p2.Objective[j] = 1
	}
	p2.Objective[0] = 0
	if sol2, err := lp.Solve(p2); err == nil && sol2.Status == lp.Optimal {
		sol = sol2
	}

	plan.reset(m.n)
	plan.Theta = thetaStar
	for i := 0; i < m.n; i++ {
		for k := 0; k < m.n; k++ {
			if x[i][k] >= 0 {
				v := b.Value(sol, x[i][k])
				if v < 0 {
					v = 0
				}
				plan.X[i][k] = v
				plan.Total[i] += v
			}
		}
	}
	return nil
}

// pairLimit is the number of i's requests owner k can entitle: the binding
// minimum across dimensions of entitlement divided by per-request cost.
func (m *MultiCommunity) pairLimit(i, k int) float64 {
	limit := math.Inf(1)
	for d := 0; d < m.dims; d++ {
		if m.cost[i][d] <= 0 {
			continue
		}
		ent := (m.accs[d].MI[k][i] + m.accs[d].OI[k][i]) / m.cost[i][d]
		if ent < limit {
			limit = ent
		}
	}
	if math.IsInf(limit, 1) {
		return 0
	}
	return limit
}

// mandatoryRequests is the guaranteed request rate of principal i. Each
// owner k can mandatorily entitle min_d MI_d[k][i]/cost[i][d] requests (the
// binding dimension on that owner); the jointly-achievable guarantee is the
// sum of those per-owner minima. (Using min_d of the aggregate MC_d instead
// would over-promise: a floor larger than what any assignment satisfies
// simultaneously in every dimension.)
func (m *MultiCommunity) mandatoryRequests(i int) float64 {
	total := 0.0
	for k := 0; k < m.n; k++ {
		lim := math.Inf(1)
		for d := 0; d < m.dims; d++ {
			if m.cost[i][d] <= 0 {
				continue
			}
			if v := m.accs[d].MI[k][i] / m.cost[i][d]; v < lim {
				lim = v
			}
		}
		if !math.IsInf(lim, 1) {
			total += lim
		}
	}
	return total
}
