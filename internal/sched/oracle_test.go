package sched

import (
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/agreement"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The schedulers solve their programs combinatorially; this file is their
// oracle, and it solves nothing. By duality the optimum of each program is a
// function of its inputs alone, so the oracle computes that function and
// checks the plans' values against it — θ, throughput, income and the
// floor-fallback decision — and every constraint of the program on the
// plan. An optimal program does not determine its vertex, so plan cells are
// never compared.

// oracleTol is the agreement the oracles require.
const oracleTol = 1e-6

// quietLogger swallows the fallback warnings the generated instances provoke.
var quietLogger = obs.NewLogger(io.Discard, obs.LevelError)

// maxCutPrincipals bounds the cut enumeration, which visits 2^|A| subsets.
const maxCutPrincipals = 16

// cutOracle computes the community program's optimum by min-cut enumeration
// (max-flow/min-cut on the bipartite network: Gale's theorem). A are the
// queued principals holding an entitlement, hi_ik = MI[k][i]+OI[k][i],
// u_k = min(V_k, c_k), and cut(S) = Σ_k min(u_k, Σ_{i∈S} hi_ik) is what the
// principals S can push through their owners. Then:
//
//   - the floors floor_i = min(n_i, MC_i) are infeasible (fallback) iff some
//     S has Σ_{i∈S} floor_i > cut(S), within ScheduleInto's tolerance;
//   - θ* is the minimum of 1 and, over every S, the largest θ with
//     Σ_{i∈S} max(θ·n_i, floor_i) ≤ cut(S) (floors 0 after a fallback), or
//     0 when a queued principal has no entitlement;
//   - the throughput is min_{P⊆A} [Σ_{i∈A∖P} n_i + cut(P)].
//
// It reads the scheduler's inputs only, never its network or solver state.
func cutOracle(t testing.TB, c *Community, queues []float64) (theta, throughput float64, fallback bool) {
	t.Helper()
	acc, n := c.acc, c.n
	theta = 1
	var A []int
	for i, q := range queues {
		if q <= 0 {
			continue
		}
		entitled := false
		for k := 0; k < n; k++ {
			entitled = entitled || acc.MI[k][i]+acc.OI[k][i] > 0
		}
		if entitled {
			A = append(A, i)
		} else {
			theta = 0
		}
	}
	m := len(A)
	if m > maxCutPrincipals {
		t.Fatalf("cut oracle: %d queued entitled principals, at most %d", m, maxCutPrincipals)
	}
	floor := func(i int) float64 { return math.Min(queues[i], acc.MC[i]) }
	// Ascending floor_i/n_i, the order in which principals leave their
	// floors as θ rises: subset bits then enumerate members in that order.
	sort.SliceStable(A, func(a, b int) bool {
		return floor(A[a])/queues[A[a]] < floor(A[b])/queues[A[b]]
	})
	u := make([]float64, n)
	for k := range u {
		u[k] = c.capacity[k]
		if c.locality != nil {
			u[k] = math.Min(u[k], c.locality[k])
		}
	}
	total := 0.0
	for _, q := range queues {
		total += q
	}
	tol := 1e-9 * math.Max(1, total) // the solver's floor tolerance

	// load[S·n+k] = Σ_{i∈S} hi_ik, built from S minus its lowest member.
	cut := make([]float64, 1<<m)
	load := make([]float64, (1<<m)*n)
	demand := 0.0
	for _, i := range A {
		demand += queues[i]
	}
	throughput = demand
	for s := 1; s < 1<<m; s++ {
		low := bits.TrailingZeros(uint(s))
		row, prev := load[s*n:(s+1)*n], load[(s&(s-1))*n:]
		fl, in := 0.0, 0.0
		for k := range row {
			row[k] = prev[k] + acc.MI[k][A[low]] + acc.OI[k][A[low]]
			cut[s] += math.Min(u[k], row[k])
		}
		for r := s; r != 0; r &= r - 1 {
			i := A[bits.TrailingZeros(uint(r))]
			fl += floor(i)
			in += queues[i]
		}
		fallback = fallback || fl > cut[s]+tol
		throughput = math.Min(throughput, demand-in+cut[s])
	}
	if theta == 0 {
		return theta, throughput, fallback
	}
	// Σ_{i∈S} max(θ·n_i, floor_i) ≤ cut(S) iff, for every prefix of S in
	// breakpoint order, θ·Σ_{prefix} n_i + Σ_{rest} floor_i ≤ cut(S).
	for s := 1; s < 1<<m; s++ {
		rest, in := 0.0, 0.0
		if !fallback {
			for r := s; r != 0; r &= r - 1 {
				rest += floor(A[bits.TrailingZeros(uint(r))])
			}
		}
		for r := s; r != 0; r &= r - 1 {
			i := A[bits.TrailingZeros(uint(r))]
			if !fallback {
				rest -= floor(i)
			}
			in += queues[i]
			theta = math.Min(theta, (cut[s]-rest)/in)
		}
	}
	return theta, throughput, fallback
}

// near reports |a−b| ≤ oracleTol·max(1, scale).
func near(a, b, scale float64) bool {
	return math.Abs(a-b) <= oracleTol*math.Max(1, scale)
}

// checkCommunity schedules queues on c and holds the plan to the cut
// oracle: the same θ, the same throughput, the same floor-fallback
// decision, every constraint of the program, and a θ search inside its step
// bound. It returns the plan and whether the floors fell back.
func checkCommunity(t testing.TB, c *Community, queues []float64) (*Plan, bool) {
	t.Helper()
	stats := &metrics.SolverStats{}
	c.SetStats(stats)
	c.SetLogger(quietLogger)
	got, err := c.Schedule(queues)
	if err != nil {
		t.Fatalf("schedule %v: %v", queues, err)
	}
	theta, throughput, wantFallback := cutOracle(t, c, queues)
	fellBack := stats.FloorFallbacks() > 0
	if fellBack != wantFallback {
		t.Fatalf("queues %v: floor fallback %v, oracle %v", queues, fellBack, wantFallback)
	}
	if c.steps > c.maxSteps() {
		t.Fatalf("queues %v: θ search took %d flow solves, bound %d", queues, c.steps, c.maxSteps())
	}
	if !near(got.Theta, theta, 0) {
		t.Fatalf("queues %v: θ %.9g, oracle %.9g", queues, got.Theta, theta)
	}
	sum := 0.0
	for _, x := range got.Total {
		sum += x
	}
	if !near(sum, throughput, throughput) {
		t.Fatalf("queues %v: throughput %.9g, oracle %.9g", queues, sum, throughput)
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

// checkProvider holds a provider plan to the knapsack's optimality
// certificate, the LP dual's price threshold. With lo_i = min(MC_i, n_i),
// the floors fall back iff Σ lo_i exceeds V beyond ScheduleInto's 1e-9
// relative tolerance, and the fallback plan is lo_i·V/Σ lo_i. Otherwise,
// with hi_i = min(MC_i+OC_i, n_i, V), income is optimal iff no customer
// below its hi outprices a customer above its lo, and throughput is optimal
// at that income iff Σx = V or every x_i = hi_i. Every constraint of the
// program and the reported income are checked too.
func checkProvider(t testing.TB, p *Provider, queues []float64) *ProviderPlan {
	t.Helper()
	stats := &metrics.SolverStats{}
	p.SetStats(stats)
	p.SetLogger(quietLogger)
	got, err := p.Schedule(queues)
	if err != nil {
		t.Fatalf("schedule %v: %v", queues, err)
	}
	floors := 0.0
	for i, q := range queues {
		floors += math.Min(p.mc[i], q)
	}
	wantFallback := floors > p.capacity+1e-9*math.Max(1, p.capacity)
	if fellBack := stats.FloorFallbacks() > 0; fellBack != wantFallback {
		t.Fatalf("queues %v: floor fallback %v, oracle %v", queues, fellBack, wantFallback)
	}
	sum, income := 0.0, 0.0
	allHi := true
	belowHi, aboveLo := math.Inf(-1), math.Inf(1) // max price short of hi, min price past lo
	for i, x := range got.X {
		sum += x
		income += p.prices[i] * (x - p.mc[i])
		lo := math.Min(p.mc[i], queues[i])
		if wantFallback {
			if want := lo * p.capacity / floors; !near(x, want, want) {
				t.Fatalf("queues %v: fallback X[%d] = %g, want %g", queues, i, x, want)
			}
			continue
		}
		hi := math.Max(math.Min(math.Min(p.mc[i]+p.oc[i], queues[i]), p.capacity), lo)
		if x < lo-oracleTol || x > hi+oracleTol {
			t.Fatalf("queues %v: X[%d] = %g outside [%g, %g]", queues, i, x, lo, hi)
		}
		if x < hi-oracleTol*math.Max(1, hi) {
			allHi = false
			belowHi = math.Max(belowHi, p.prices[i])
		}
		if x > lo+oracleTol*math.Max(1, lo) {
			aboveLo = math.Min(aboveLo, p.prices[i])
		}
	}
	if belowHi > aboveLo {
		t.Fatalf("queues %v: a customer at price %g is short of its cap while one at %g is above its floor", queues, belowHi, aboveLo)
	}
	if !wantFallback && !allHi && !near(sum, p.capacity, p.capacity) {
		t.Fatalf("queues %v: admits %.9g < capacity %g with demand short of its cap", queues, sum, p.capacity)
	}
	if !near(income, got.Income, 0) {
		t.Fatalf("queues %v: reported income %g, plan's %g", queues, got.Income, income)
	}
	if sum > p.capacity+oracleTol*math.Max(1, p.capacity) {
		t.Fatalf("queues %v: admits %g > capacity %g", queues, sum, p.capacity)
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

// TestCutOracleKnownValues runs the cut oracle alone on hand-computed
// instances, so a broken oracle cannot pass by agreeing with a broken
// solver.
func TestCutOracleKnownValues(t *testing.T) {
	// Fig. 7: A and B hold [0.2, 1] of one 250 req/s owner with queues 270
	// and 135; the owner binds, θ* = 250/405, floors 50 each fit.
	fig7 := agreement.New()
	owner := fig7.MustAddPrincipal("S", 250)
	fig7.MustSetAgreement(owner, fig7.MustAddPrincipal("A", 0), 0.2, 1)
	fig7.MustSetAgreement(owner, fig7.MustAddPrincipal("B", 0), 0.2, 1)
	// An outsider with a queue and no entitlement forces θ* = 0 while A's
	// 50 is still served in full.
	outsider := agreement.New()
	owner = outsider.MustAddPrincipal("S", 100)
	outsider.MustSetAgreement(owner, outsider.MustAddPrincipal("A", 0), 0.5, 1)
	outsider.MustAddPrincipal("outsider", 0)
	community := func(s *agreement.System) *Community {
		acc, err := s.SystemAccess()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCommunity(acc, s.Capacities(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name              string
		c                 *Community
		queues            []float64
		theta, throughput float64
		fallback          bool
	}{
		{"fig7", community(fig7), []float64{0, 270, 135}, 250.0 / 405, 250, false},
		{"unentitled", community(outsider), []float64{0, 50, 10}, 0, 50, false},
		// Floors 300 + 100 overflow the 200 pool: without them θ* = 200/400.
		{"infeasible-floors", onePool(t, []float64{300, 100}, []float64{0, 0}, 200), []float64{0, 300, 100}, 0.5, 200, true},
	} {
		theta, throughput, fallback := cutOracle(t, tc.c, tc.queues)
		if !near(theta, tc.theta, 0) || !near(throughput, tc.throughput, tc.throughput) || fallback != tc.fallback {
			t.Errorf("%s: oracle θ %g, throughput %g, fallback %v; want %g, %g, %v",
				tc.name, theta, throughput, fallback, tc.theta, tc.throughput, tc.fallback)
		}
	}
}

// TestSweepMatchesOracle is the deterministic sweep: 10⁴ generated
// instances, each held to its oracle.
func TestSweepMatchesOracle(t *testing.T) {
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

func FuzzCommunityMatchesOracle(f *testing.F) {
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

func FuzzProviderMatchesOracle(f *testing.F) {
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

// TestCommunityMatchesOracle holds the community scheduler to the cut
// oracle on all-positive queues, several windows per scheduler so state
// left by one solve cannot leak into the next.
func TestCommunityMatchesOracle(t *testing.T) {
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

// TestCommunityZeroQueuesMatchOracle: a zero queue is in no cut of the
// oracle and has a zero-capacity source edge in the network; it must be
// served nothing, and the rest must still match.
func TestCommunityZeroQueuesMatchOracle(t *testing.T) {
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

func TestProviderMatchesOracle(t *testing.T) {
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
