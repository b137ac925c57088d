package sched

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agreement"
	"repro/internal/lp"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The schedulers solve their programs combinatorially; this file is their
// oracle: the same programs built with internal/lp and solved by the simplex,
// lexicographically (primary objective, then throughput within lexTol of it).
// An optimal LP does not determine its vertex, so the oracles compare values
// — θ, throughput, income — and check every constraint of the program on the
// scheduler's plan, never plan cells against the LP's.

// lexTol is how far below its optimum the oracle lets the primary objective
// sit during the lexicographic throughput pass.
const lexTol = 1e-9

// oracleTol is the agreement the oracles require.
const oracleTol = 1e-6

// quietLogger swallows the fallback warnings the generated instances provoke.
var quietLogger = obs.NewLogger(io.Discard, obs.LevelError)

// scheduleSlow solves the community program as an LP: with mandatory floors,
// and again without them if that is infeasible (fellBack).
func (c *Community) scheduleSlow(queues []float64) (plan *Plan, fellBack bool, err error) {
	plan, err = c.solveSlow(queues, true)
	if err == nil {
		return plan, false, nil
	}
	plan, err = c.solveSlow(queues, false)
	return plan, true, err
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
			// No entitlement anywhere: θ must account for an unserved queue.
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

	// Server capacity: Σ_i x_ik ≤ V_k, and locality caps.
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
		obj2[j] = 1 // every x variable; θ stays out of the throughput pass
	}
	sol, err := lp.SolveLex(b.Problem(), lexTol, obj2)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, errFloors
	}
	plan := new(Plan)
	plan.reset(n)
	plan.Theta = sol.Primary
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if x[i][k] >= 0 {
				v := math.Max(sol.X[x[i][k]], 0)
				plan.X[i][k] = v
				plan.Total[i] += v
			}
		}
	}
	return plan, nil
}

// scheduleSlow solves the provider program as an LP, falling back to scaled
// mandatory shares when its floors are infeasible (fellBack).
func (p *Provider) scheduleSlow(queues []float64) (plan *ProviderPlan, fellBack bool, err error) {
	b := lp.NewBuilder()
	xs := make([]lp.Var, p.n)
	var all []lp.Term
	for i := 0; i < p.n; i++ {
		q := queues[i]
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
		return nil, false, err
	}
	plan = new(ProviderPlan)
	if sol.Status != lp.Optimal {
		p.scaledMandatory(queues, plan)
		return plan, true, nil
	}
	plan.reset(p.n)
	for i := 0; i < p.n; i++ {
		plan.X[i] = math.Max(sol.X[i], 0)
		plan.Income += p.prices[i] * (plan.X[i] - p.mc[i])
	}
	return plan, false, nil
}

// near reports |a−b| ≤ oracleTol·max(1, scale).
func near(a, b, scale float64) bool {
	return math.Abs(a-b) <= oracleTol*math.Max(1, scale)
}

// checkCommunity schedules queues on c and holds the plan to the LP oracle:
// the same θ, the same throughput, the same floor-fallback decision, every
// constraint of the program, and a θ search inside its step bound. It
// returns the plan and whether the floors fell back.
func checkCommunity(t testing.TB, c *Community, queues []float64) (*Plan, bool) {
	t.Helper()
	stats := &metrics.SolverStats{}
	c.SetStats(stats)
	c.SetLogger(quietLogger)
	got, err := c.Schedule(queues)
	if err != nil {
		t.Fatalf("schedule %v: %v", queues, err)
	}
	want, wantFallback, err := c.scheduleSlow(queues)
	if err != nil {
		t.Fatalf("oracle %v: %v", queues, err)
	}
	fellBack := stats.FloorFallbacks() > 0
	if fellBack != wantFallback {
		t.Fatalf("queues %v: floor fallback %v, oracle %v", queues, fellBack, wantFallback)
	}
	if c.steps > c.maxSteps() {
		t.Fatalf("queues %v: θ search took %d flow solves, bound %d", queues, c.steps, c.maxSteps())
	}
	if !near(got.Theta, want.Theta, 0) {
		t.Fatalf("queues %v: θ %.9g, oracle %.9g", queues, got.Theta, want.Theta)
	}
	sumGot, sumWant := 0.0, 0.0
	for i := range got.Total {
		sumGot += got.Total[i]
		sumWant += want.Total[i]
	}
	if !near(sumGot, sumWant, sumWant) {
		t.Fatalf("queues %v: throughput %.9g, oracle %.9g", queues, sumGot, sumWant)
	}
	checkCommunityConstraints(t, c, queues, got, !fellBack)
	return got, fellBack
}

// checkCommunityConstraints checks plan against every row of the community
// program at its own θ.
func checkCommunityConstraints(t testing.TB, c *Community, queues []float64, plan *Plan, floors bool) {
	t.Helper()
	acc := c.acc
	for k := 0; k < c.n; k++ {
		load := 0.0
		for i := 0; i < c.n; i++ {
			x := plan.X[i][k]
			if x < -oracleTol || x > acc.MI[k][i]+acc.OI[k][i]+oracleTol {
				t.Fatalf("queues %v: X[%d][%d] = %g outside [0, %g]", queues, i, k, x, acc.MI[k][i]+acc.OI[k][i])
			}
			load += x
		}
		limit := c.capacity[k]
		if c.locality != nil {
			limit = math.Min(limit, c.locality[k])
		}
		if load > limit+oracleTol*math.Max(1, limit) {
			t.Fatalf("queues %v: owner %d carries %g > %g", queues, k, load, limit)
		}
	}
	for i, q := range queues {
		tot := 0.0
		for k := 0; k < c.n; k++ {
			tot += plan.X[i][k]
		}
		if !near(tot, plan.Total[i], q) {
			t.Fatalf("queues %v: Total[%d] = %g, cells sum to %g", queues, i, plan.Total[i], tot)
		}
		if tot > q+oracleTol*math.Max(1, q) {
			t.Fatalf("queues %v: principal %d served %g > queue", queues, i, tot)
		}
		entitled := false
		for k := 0; k < c.n; k++ {
			entitled = entitled || acc.MI[k][i]+acc.OI[k][i] > 0
		}
		if !entitled {
			if q > 0 && plan.Theta > oracleTol {
				t.Fatalf("queues %v: θ = %g with unentitled principal %d queued", queues, plan.Theta, i)
			}
			continue
		}
		if tot < plan.Theta*q-oracleTol*math.Max(1, q) {
			t.Fatalf("queues %v: principal %d served %g < θ·n = %g", queues, i, tot, plan.Theta*q)
		}
		if floor := math.Min(q, acc.MC[i]); floors && tot < floor-oracleTol*math.Max(1, floor) {
			t.Fatalf("queues %v: principal %d served %g under its floor %g", queues, i, tot, floor)
		}
	}
}

// checkProvider holds a provider plan to the LP oracle: the same income,
// throughput and fallback decision, and every constraint of the program.
func checkProvider(t testing.TB, p *Provider, queues []float64) *ProviderPlan {
	t.Helper()
	stats := &metrics.SolverStats{}
	p.SetStats(stats)
	p.SetLogger(quietLogger)
	got, err := p.Schedule(queues)
	if err != nil {
		t.Fatalf("schedule %v: %v", queues, err)
	}
	want, wantFallback, err := p.scheduleSlow(queues)
	if err != nil {
		t.Fatalf("oracle %v: %v", queues, err)
	}
	fellBack := stats.FloorFallbacks() > 0
	if fellBack != wantFallback {
		t.Fatalf("queues %v: floor fallback %v, oracle %v", queues, fellBack, wantFallback)
	}
	if !near(got.Income, want.Income, 0) {
		t.Fatalf("queues %v: income %.9g, oracle %.9g", queues, got.Income, want.Income)
	}
	sumGot, sumWant, income := 0.0, 0.0, 0.0
	for i, x := range got.X {
		sumGot += x
		sumWant += want.X[i]
		income += p.prices[i] * (x - p.mc[i])
		if fellBack {
			continue
		}
		lo := math.Min(p.mc[i], queues[i])
		hi := math.Min(math.Min(p.mc[i]+p.oc[i], queues[i]), p.capacity)
		if x < lo-oracleTol || x > hi+oracleTol {
			t.Fatalf("queues %v: X[%d] = %g outside [%g, %g]", queues, i, x, lo, hi)
		}
	}
	if !near(sumGot, sumWant, sumWant) {
		t.Fatalf("queues %v: throughput %.9g, oracle %.9g", queues, sumGot, sumWant)
	}
	if !near(income, got.Income, 0) {
		t.Fatalf("queues %v: reported income %g, plan's %g", queues, got.Income, income)
	}
	if sumGot > p.capacity+oracleTol*math.Max(1, p.capacity) {
		t.Fatalf("queues %v: admits %g > capacity %g", queues, sumGot, p.capacity)
	}
	return got
}

// genCommunity draws a community instance and one queue vector: n 2–11,
// quarter-request entitlements, and by turns locality caps, zero queues,
// principals with no entitlement, and floors beyond capacity (tight
// capacities, or an MC above what the pairs can carry).
func genCommunity(rng *rand.Rand) (*Community, []float64, error) {
	n := 2 + rng.Intn(10)
	acc := randomAccess(rng, n)
	if rng.Intn(4) == 0 { // a principal nobody entitles
		i := rng.Intn(n)
		for k := 0; k < n; k++ {
			acc.MI[k][i], acc.OI[k][i] = 0, 0
		}
		acc.MC[i], acc.OC[i] = 0, 0
	}
	if rng.Intn(8) == 0 { // an inconsistent floor
		acc.MC[rng.Intn(n)] += math.Round(rng.Float64() * 100)
	}
	capacity := make([]float64, n)
	scale := []float64{40, 200, 800}[rng.Intn(3)]
	for k := range capacity {
		capacity[k] = math.Round(rng.Float64()*scale*4) / 4
	}
	var locality []float64
	if rng.Intn(3) == 0 {
		locality = make([]float64, n)
		for k := range locality {
			locality[k] = math.Inf(1)
			if rng.Intn(2) == 0 {
				locality[k] = math.Round(rng.Float64() * scale)
			}
		}
	}
	queues := make([]float64, n)
	for i := range queues {
		if rng.Intn(4) > 0 {
			queues[i] = math.Round(rng.Float64()*scale*4) / 4
		}
	}
	c, err := NewCommunity(acc, capacity, locality)
	return c, queues, err
}

// genProvider draws a provider instance and one queue vector: up to 48
// customers, some free, some sharing a price, some with no floor, and
// capacities from a fraction of the floors to well above the demand.
func genProvider(rng *rand.Rand) (*Provider, []float64, error) {
	n := 1 + rng.Intn(48)
	mc, oc, prices := make([]float64, n), make([]float64, n), make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			mc[i] = math.Round(rng.Float64()*200) / 4
		}
		oc[i] = math.Round(rng.Float64()*200) / 4
		if rng.Intn(5) > 0 {
			prices[i] = float64(rng.Intn(6)) / 2
		}
		sum += mc[i] + oc[i]
	}
	capacity := math.Round(sum * rng.Float64() * 1.2)
	queues := make([]float64, n)
	for i := range queues {
		if rng.Intn(5) > 0 {
			queues[i] = math.Round(rng.Float64()*300) / 4
		}
	}
	p, err := NewProvider(mc, oc, prices, capacity)
	return p, queues, err
}

// TestSweepMatchesLP is the deterministic sweep: 10⁴ generated
// instances, each held to its LP oracle.
func TestSweepMatchesLP(t *testing.T) {
	comm, prov := 6000, 4000
	if testing.Short() {
		comm, prov = 600, 400
	}
	rng := rand.New(rand.NewSource(21))
	fallbacks, maxSteps := 0, 0
	for iter := 0; iter < comm; iter++ {
		c, q, err := genCommunity(rng)
		if err != nil {
			t.Fatalf("community %d: %v", iter, err)
		}
		if _, fb := checkCommunity(t, c, q); fb {
			fallbacks++
		}
		maxSteps = max(maxSteps, c.steps)
	}
	for iter := 0; iter < prov; iter++ {
		p, q, err := genProvider(rng)
		if err != nil {
			t.Fatalf("provider %d: %v", iter, err)
		}
		checkProvider(t, p, q)
	}
	if fallbacks == 0 {
		t.Fatal("the sweep never exercised the floor fallback")
	}
	t.Logf("%d community instances (%d floor fallbacks, at most %d flow solves), %d provider instances",
		comm, fallbacks, maxSteps, prov)
}

func FuzzCommunityMatchesLP(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c, q, err := genCommunity(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		checkCommunity(t, c, q)
	})
}

func FuzzProviderMatchesLP(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p, q, err := genProvider(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		checkProvider(t, p, q)
	})
}

// TestCommunityFastMatchesSlow holds the community scheduler to its LP
// oracle on all-positive queues, several windows per scheduler so state
// left by one solve cannot leak into the next.
func TestCommunityFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(4)
		acc := randomAccess(rng, n)
		capacity := make([]float64, n)
		for k := range capacity {
			// Around the column sums so floors are mostly feasible but the
			// fallback path is exercised too.
			capacity[k] = math.Round(rng.Float64()*400) / 2
		}
		var locality []float64
		if rng.Intn(2) == 0 {
			locality = make([]float64, n)
			for k := range locality {
				locality[k] = math.Round(rng.Float64() * 300)
			}
		}
		c, err := NewCommunity(acc, capacity, locality)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for rep := 0; rep < 4; rep++ {
			queues := make([]float64, n)
			for i := range queues {
				queues[i] = 1 + math.Round(rng.Float64()*500)/2 // all positive
			}
			checkCommunity(t, c, queues)
		}
	}
}

// TestCommunityFastMatchesSlowZeroQueues: a zero queue has no rows in the
// oracle's program and zero-capacity source edges in the network; it must
// be served nothing, and the rest must still match.
func TestCommunityFastMatchesSlowZeroQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		acc := randomAccess(rng, n)
		capacity := make([]float64, n)
		for k := range capacity {
			capacity[k] = 50 + math.Round(rng.Float64()*400)
		}
		c, err := NewCommunity(acc, capacity, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		queues := make([]float64, n)
		for i := range queues {
			if rng.Intn(3) > 0 {
				queues[i] = 1 + math.Round(rng.Float64()*300)
			}
		}
		plan, _ := checkCommunity(t, c, queues)
		for i, q := range queues {
			if q == 0 && plan.Total[i] != 0 {
				t.Fatalf("iter %d: zero queue served %g", iter, plan.Total[i])
			}
		}
	}
}

func TestProviderFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(6)
		mc := make([]float64, n)
		oc := make([]float64, n)
		prices := make([]float64, n)
		for i := 0; i < n; i++ {
			mc[i] = math.Round(rng.Float64()*100) / 2
			oc[i] = math.Round(rng.Float64()*100) / 2
			prices[i] = math.Round(rng.Float64()*10) / 2
		}
		capacity := math.Round(rng.Float64() * 400)
		p, err := NewProvider(mc, oc, prices, capacity)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for rep := 0; rep < 4; rep++ {
			queues := make([]float64, n)
			for i := range queues {
				queues[i] = 1 + math.Round(rng.Float64()*300)/2
			}
			checkProvider(t, p, queues)
		}
	}
}

// randomAccess builds a consistent random entitlement structure: MI/OI are
// random sparse non-negative matrices and MC/OC are their column sums, the
// invariant agreement.SystemAccess guarantees.
func randomAccess(rng *rand.Rand, n int) *agreement.Access {
	acc := &agreement.Access{
		MI: make([][]float64, n),
		OI: make([][]float64, n),
		MC: make([]float64, n),
		OC: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		acc.MI[k] = make([]float64, n)
		acc.OI[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				acc.MI[k][i] = math.Round(rng.Float64()*100) / 4
			}
			if rng.Float64() < 0.5 {
				acc.OI[k][i] = math.Round(rng.Float64()*100) / 4
			}
			acc.MC[i] += acc.MI[k][i]
			acc.OC[i] += acc.OI[k][i]
		}
	}
	return acc
}
