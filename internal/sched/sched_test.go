package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agreement"
	"repro/internal/metrics"
)

const tol = 1e-6

// fig9System: A and B each own a 320 req/s server; B shares [0.5, 0.5] with A.
func fig9System(t testing.TB) (*agreement.System, *agreement.Access) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	_ = a
	s.MustSetAgreement(b, a, 0.5, 0.5)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	return s, acc
}

func TestCommunityFig9Phase1(t *testing.T) {
	s, acc := fig9System(t)
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: A has two 400 req/s clients, B one.
	plan, err := c.Schedule([]float64{800, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[0]-480) > tol || math.Abs(plan.Total[1]-160) > tol {
		t.Fatalf("phase 1: totals = %v, want [480 160]", plan.Total)
	}
}

func TestCommunityFig9Phase3(t *testing.T) {
	s, acc := fig9System(t)
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 3: A down to one client (400 req/s) — below its MC of 480.
	plan, err := c.Schedule([]float64{400, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[0]-400) > tol || math.Abs(plan.Total[1]-240) > tol {
		t.Fatalf("phase 3: totals = %v, want [400 240]", plan.Total)
	}
	// The paper notes B's server should only carry 80 of A's requests.
	if math.Abs(plan.X[0][1]-80) > tol {
		t.Fatalf("A's load on B's server = %g, want 80", plan.X[0][1])
	}
}

func TestCommunityFig9Phase2BAlone(t *testing.T) {
	s, acc := fig9System(t)
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Schedule([]float64{0, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[1]-320) > tol || plan.Total[0] != 0 {
		t.Fatalf("phase 2: totals = %v, want [0 320]", plan.Total)
	}
}

// TestCommunityFig7ThetaSplit: both principals have [0.2, 1] agreements with
// a 250 req/s owner; A's queue is twice B's, so A is served at twice B's rate.
func TestCommunityFig7ThetaSplit(t *testing.T) {
	s := agreement.New()
	owner := s.MustAddPrincipal("S", 250)
	a := s.MustAddPrincipal("A", 0)
	bb := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(owner, a, 0.2, 1)
	s.MustSetAgreement(owner, bb, 0.2, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Schedule([]float64{0, 270, 135})
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := 250.0*270/405, 250.0*135/405 // 166.7 and 83.3
	if math.Abs(plan.Total[a]-wantA) > 1e-3 || math.Abs(plan.Total[bb]-wantB) > 1e-3 {
		t.Fatalf("totals = %v, want A=%g B=%g", plan.Total, wantA, wantB)
	}
	if math.Abs(plan.Theta-250.0/405) > 1e-6 {
		t.Fatalf("theta = %g, want %g", plan.Theta, 250.0/405)
	}
}

// onePool builds a community with one owner, principal 0, of the given
// capacity and one principal per entry of mc/oc holding [mc, mc+oc] of it. A
// single pool is plain water-filling — floors first, then a common served
// fraction rising until capacity or a cap binds — and the tests named after
// it pin that arithmetic on the flow solver.
func onePool(t testing.TB, mc, oc []float64, capacity float64) *Community {
	t.Helper()
	n := len(mc) + 1
	acc := &agreement.Access{MI: make([][]float64, n), OI: make([][]float64, n), MC: make([]float64, n), OC: make([]float64, n)}
	for k := range acc.MI {
		acc.MI[k], acc.OI[k] = make([]float64, n), make([]float64, n)
	}
	for i := range mc {
		acc.MI[0][i+1], acc.OI[0][i+1] = mc[i], oc[i]
		acc.MC[i+1], acc.OC[i+1] = mc[i], oc[i]
	}
	capacities := make([]float64, n)
	capacities[0] = capacity
	c, err := NewCommunity(acc, capacities, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetLogger(quietLogger)
	return c
}

func TestWaterfillBasicSplit(t *testing.T) {
	// Figure 7 arithmetic: both [0.2,1] of 250, queues 270/135.
	plan, err := onePool(t, []float64{50, 50}, []float64{200, 200}, 250).Schedule([]float64{0, 270, 135})
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := 250.0*270/405, 250.0*135/405
	if math.Abs(plan.Total[1]-wantA) > 1e-6 || math.Abs(plan.Total[2]-wantB) > 1e-6 {
		t.Fatalf("totals = %v, want [0 %g %g]", plan.Total, wantA, wantB)
	}
	if math.Abs(plan.Theta-250.0/405) > 1e-9 {
		t.Fatalf("theta = %v", plan.Theta)
	}
}

func TestWaterfillFloorsBind(t *testing.T) {
	// Figure 6 arithmetic: B's 135 below its 256 floor, A absorbs the rest.
	plan, err := onePool(t, []float64{64, 256}, []float64{256, 64}, 320).Schedule([]float64{0, 270, 135})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[2]-135) > 1e-6 || math.Abs(plan.Total[1]-185) > 1e-6 {
		t.Fatalf("totals = %v, want [0 185 135]", plan.Total)
	}
}

// TestWaterfillOverloadedFloorsScale: floors beyond the pool are dropped and
// counted; the max–min split without them is proportional to the queues.
func TestWaterfillOverloadedFloorsScale(t *testing.T) {
	c := onePool(t, []float64{300, 100}, []float64{0, 0}, 200)
	stats := &metrics.SolverStats{}
	c.SetStats(stats)
	plan, err := c.Schedule([]float64{0, 300, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[1]-150) > 1e-6 || math.Abs(plan.Total[2]-50) > 1e-6 {
		t.Fatalf("totals = %v, want proportional [0 150 50]", plan.Total)
	}
	if stats.FloorFallbacks() != 1 {
		t.Fatalf("floor fallbacks = %d, want 1", stats.FloorFallbacks())
	}
}

func TestWaterfillZeroAndEdgeInputs(t *testing.T) {
	c := onePool(t, []float64{10}, []float64{10}, 100)
	plan, err := c.Schedule([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total[1] != 0 || plan.Theta != 1 {
		t.Fatalf("plan = %+v, want nothing served at θ = 1", plan)
	}
	if _, err := c.Schedule([]float64{0, -1}); err == nil {
		t.Fatal("negative queue accepted")
	}
	if _, err := c.Schedule([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong length accepted")
	}
	for _, bad := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := NewCommunity(c.acc, []float64{bad, 0}, nil); err == nil {
			t.Fatalf("capacity %v accepted", bad)
		}
	}
	// +Inf locality leaves an owner uncapped.
	for _, bad := range []float64{-1, math.Inf(-1), math.NaN()} {
		if _, err := NewCommunity(c.acc, []float64{100, 0}, []float64{bad, 0}); err == nil {
			t.Fatalf("locality %v accepted", bad)
		}
	}
}

// TestQuickWaterfillMatchesLP holds random single pools to the window LP's
// optimum, as the cut oracle certifies it.
func TestQuickWaterfillMatchesLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		capacity := float64(100 + rng.Intn(400))
		mc := make([]float64, n)
		oc := make([]float64, n)
		queues := make([]float64, n+1)
		budget := 1.0
		for i := 0; i < n; i++ {
			frac := rng.Float64() * budget
			budget -= frac
			mc[i] = frac * capacity
			oc[i] = rng.Float64() * capacity
			queues[i+1] = float64(rng.Intn(600))
		}
		checkCommunity(t, onePool(t, mc, oc, capacity), queues)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCommunityWorkConservation: the lexicographic pass must use leftover
// capacity beyond the max-min point when one queue saturates at its demand.
func TestCommunityWorkConservation(t *testing.T) {
	s := agreement.New()
	owner := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	bb := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(owner, a, 0, 1)
	s.MustSetAgreement(owner, bb, 0, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// θ* = 1 (total demand 60 < capacity 100); both queues fully served.
	plan, err := c.Schedule([]float64{0, 40, 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Total[a]-40) > tol || math.Abs(plan.Total[bb]-20) > tol {
		t.Fatalf("totals = %v, want [0 40 20]", plan.Total)
	}
}

func TestCommunityLocalityCap(t *testing.T) {
	s, acc := fig9System(t)
	// This redirector may push at most 100 req/window to B's server.
	loc := []float64{math.Inf(1), 100}
	c, err := NewCommunity(acc, s.Capacities(), loc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Schedule([]float64{800, 400})
	if err != nil {
		t.Fatal(err)
	}
	if plan.X[0][1]+plan.X[1][1] > 100+tol {
		t.Fatalf("locality cap violated: load on B = %g", plan.X[0][1]+plan.X[1][1])
	}
}

func TestCommunityInputValidation(t *testing.T) {
	s, acc := fig9System(t)
	if _, err := NewCommunity(acc, []float64{1}, nil); err == nil {
		t.Error("short capacity vector accepted")
	}
	if _, err := NewCommunity(acc, s.Capacities(), []float64{1}); err == nil {
		t.Error("short locality vector accepted")
	}
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule([]float64{1}); err == nil {
		t.Error("short queue vector accepted")
	}
	if _, err := c.Schedule([]float64{-1, 0}); err == nil {
		t.Error("negative queue accepted")
	}
	if _, err := c.Schedule([]float64{math.NaN(), 0}); err == nil {
		t.Error("NaN queue accepted")
	}
}

func TestCommunityZeroQueues(t *testing.T) {
	s, acc := fig9System(t)
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Schedule([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total[0] != 0 || plan.Total[1] != 0 {
		t.Fatalf("totals = %v, want zeros", plan.Total)
	}
}

// TestCommunityUnentitledQueueDragsTheta: a principal with requests but no
// entitlement anywhere forces θ to 0 (its queue can never be served).
func TestCommunityUnentitledQueueDragsTheta(t *testing.T) {
	s := agreement.New()
	owner := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	out := s.MustAddPrincipal("outsider", 0)
	s.MustSetAgreement(owner, a, 0.5, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Schedule([]float64{0, 50, 10})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Theta > tol {
		t.Fatalf("theta = %g, want 0 (outsider unservable)", plan.Theta)
	}
	if plan.Total[out] != 0 {
		t.Fatalf("outsider served %g requests", plan.Total[out])
	}
	// Work conservation still serves A fully.
	if math.Abs(plan.Total[a]-50) > tol {
		t.Fatalf("A served %g, want 50", plan.Total[a])
	}
}

func fig10Provider(t testing.TB, priceA, priceB float64) *Provider {
	t.Helper()
	// Provider with two 320 req/s servers; A [0.8,1], B [0.2,1].
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	a := s.MustAddPrincipal("A", 0)
	bb := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, bb, 0.2, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(
		[]float64{acc.MC[a], acc.MC[bb]},
		[]float64{acc.OC[a], acc.OC[bb]},
		[]float64{priceA, priceB}, 640)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProviderFig10Phase1(t *testing.T) {
	p := fig10Provider(t, 2, 1)
	// Two clients for A (800 req/s), one for B (400 req/s).
	plan, err := p.Schedule([]float64{800, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[0]-512) > tol || math.Abs(plan.X[1]-128) > tol {
		t.Fatalf("phase 1: X = %v, want [512 128]", plan.X)
	}
}

func TestProviderFig10Phase3(t *testing.T) {
	p := fig10Provider(t, 2, 1)
	// A down to one client machine (400 req/s).
	plan, err := p.Schedule([]float64{400, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[0]-400) > tol || math.Abs(plan.X[1]-240) > tol {
		t.Fatalf("phase 3: X = %v, want [400 240]", plan.X)
	}
}

func TestProviderFig10Phase2BAlone(t *testing.T) {
	p := fig10Provider(t, 2, 1)
	plan, err := p.Schedule([]float64{0, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[1]-400) > tol {
		t.Fatalf("phase 2: X = %v, want B=400", plan.X)
	}
}

// TestProviderFig6 reproduces the L7 experiment's arithmetic with equal
// prices: V=320, A [0.2,1] with 270 req/s demand, B [0.8,1] with 135.
func TestProviderFig6(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
	a := s.MustAddPrincipal("A", 0)
	bb := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.2, 1)
	s.MustSetAgreement(sp, bb, 0.8, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(
		[]float64{acc.MC[a], acc.MC[bb]},
		[]float64{acc.OC[a], acc.OC[bb]},
		[]float64{1, 1}, 320)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1/3: both active. B's 135 < its 256 mandatory ⇒ all served;
	// A absorbs the remaining 185.
	plan, err := p.Schedule([]float64{270, 135})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[1]-135) > tol || math.Abs(plan.X[0]-185) > tol {
		t.Fatalf("phase 1: X = %v, want [185 135]", plan.X)
	}
	// Phase 2: only A active, limited by its two clients.
	plan, err = p.Schedule([]float64{270, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[0]-270) > tol {
		t.Fatalf("phase 2: X = %v, want A=270", plan.X)
	}
}

func TestProviderIncomeValue(t *testing.T) {
	p := fig10Provider(t, 2, 1)
	plan, err := p.Schedule([]float64{800, 400})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*(512-512.0) + 1*(128-128.0)
	if math.Abs(plan.Income-want) > tol {
		t.Fatalf("income = %g, want %g", plan.Income, want)
	}
	// With extra capacity beyond mandatory, income becomes positive.
	p2, err := NewProvider([]float64{100, 100}, []float64{100, 100}, []float64{3, 1}, 300)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := p2.Schedule([]float64{200, 200})
	if err != nil {
		t.Fatal(err)
	}
	// A gets 200 (mandatory 100 + 100 optional at price 3), B the rest (100).
	if math.Abs(plan2.X[0]-200) > tol || math.Abs(plan2.X[1]-100) > tol {
		t.Fatalf("X = %v, want [200 100]", plan2.X)
	}
	if math.Abs(plan2.Income-(3*100+1*0)) > tol {
		t.Fatalf("income = %g, want 300", plan2.Income)
	}
}

func TestProviderValidation(t *testing.T) {
	if _, err := NewProvider([]float64{1}, []float64{1, 2}, []float64{1}, 10); err == nil {
		t.Error("mismatched oc length accepted")
	}
	if _, err := NewProvider([]float64{1}, []float64{1}, []float64{-1}, 10); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := NewProvider([]float64{1}, []float64{1}, []float64{1}, -5); err == nil {
		t.Error("negative capacity accepted")
	}
	p, err := NewProvider([]float64{1}, []float64{1}, []float64{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Schedule([]float64{1, 2}); err == nil {
		t.Error("wrong queue length accepted")
	}
	if _, err := p.Schedule([]float64{math.Inf(1)}); err == nil {
		t.Error("infinite queue accepted")
	}
}

// TestProviderOverloadFallback: mandatory floors exceeding capacity must not
// error; capacity is split proportionally to clipped mandatory demand.
func TestProviderOverloadFallback(t *testing.T) {
	p, err := NewProvider([]float64{300, 100}, []float64{0, 0}, []float64{1, 1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Schedule([]float64{300, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.X[0]-150) > tol || math.Abs(plan.X[1]-50) > tol {
		t.Fatalf("X = %v, want proportional [150 50]", plan.X)
	}
}

// TestQuickCommunityInvariants property-checks every plan against the
// program's own constraints: capacity, entitlement bounds, demand, non-negativity.
func TestQuickCommunityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := agreement.New()
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			s.MustAddPrincipal(string(rune('A'+i)), float64(50+rng.Intn(500)))
		}
		for i := 0; i < n; i++ {
			budget := 1.0
			for j := 0; j < n; j++ {
				if j == i || rng.Float64() < 0.5 {
					continue
				}
				lb := rng.Float64() * budget * 0.8
				ub := lb + rng.Float64()*(1-lb)
				if s.SetAgreement(agreement.Principal(i), agreement.Principal(j), lb, ub) != nil {
					continue
				}
				budget -= lb
			}
		}
		acc, err := s.SystemAccess()
		if err != nil {
			return false
		}
		c, err := NewCommunity(acc, s.Capacities(), nil)
		if err != nil {
			return false
		}
		queues := make([]float64, n)
		for i := range queues {
			queues[i] = float64(rng.Intn(1000))
		}
		plan, err := c.Schedule(queues)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			load := 0.0
			for i := 0; i < n; i++ {
				if plan.X[i][k] < -tol {
					return false
				}
				if plan.X[i][k] > acc.MI[k][i]+acc.OI[k][i]+1e-5 {
					return false
				}
				load += plan.X[i][k]
			}
			if load > s.Capacity(agreement.Principal(k))+1e-5 {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if plan.Total[i] > queues[i]+1e-5 {
				return false
			}
			// Mandatory guarantee: every principal is served at least
			// min(queue, MC) — the heart of agreement enforcement.
			floor := math.Min(queues[i], acc.MC[i])
			if plan.Total[i] < floor-1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProviderInvariants property-checks provider plans.
func TestQuickProviderInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		capTotal := float64(100 + rng.Intn(900))
		mc := make([]float64, n)
		oc := make([]float64, n)
		prices := make([]float64, n)
		budget := 1.0
		for i := 0; i < n; i++ {
			frac := rng.Float64() * budget
			budget -= frac
			mc[i] = frac * capTotal
			oc[i] = rng.Float64() * (capTotal - mc[i])
			prices[i] = rng.Float64() * 5
		}
		p, err := NewProvider(mc, oc, prices, capTotal)
		if err != nil {
			return false
		}
		queues := make([]float64, n)
		for i := range queues {
			queues[i] = float64(rng.Intn(2000))
		}
		plan, err := p.Schedule(queues)
		if err != nil {
			return false
		}
		total := 0.0
		for i := 0; i < n; i++ {
			x := plan.X[i]
			if x < -tol || x > queues[i]+1e-5 || x > mc[i]+oc[i]+1e-5 {
				return false
			}
			if x < math.Min(mc[i], queues[i])-1e-5 {
				return false // mandatory guarantee violated
			}
			total += x
		}
		return total <= capTotal+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommunitySchedule(b *testing.B) {
	s, acc := fig9System(b)
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{800, 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Schedule(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProviderSchedule(b *testing.B) {
	p, err := NewProvider(
		[]float64{512, 128}, []float64{128, 512}, []float64{2, 1}, 640)
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{800, 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Schedule(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ringCommunity is window_churn's agreement graph (bench/window.go) at its
// 50 ms window: twelve peers owning 100 requests/window each, peer i granting
// [0.2, 0.5] to peer i+1 and [0.1, 0.3] to peer i+5 — one connected
// component. ringQueues are demand vectors around its capacity, as that
// workload's random walk offers them.
func ringCommunity(t testing.TB) (*Community, [][]float64) {
	t.Helper()
	const n = 12
	s := agreement.New()
	ps := make([]agreement.Principal, n)
	for i := range ps {
		ps[i] = s.MustAddPrincipal(fmt.Sprintf("P%02d", i), 100)
	}
	for i := range ps {
		s.MustSetAgreement(ps[i], ps[(i+1)%n], 0.2, 0.5)
		s.MustSetAgreement(ps[i], ps[(i+5)%n], 0.1, 0.3)
	}
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	queues := make([][]float64, 64)
	for v := range queues {
		queues[v] = make([]float64, n)
		for i := range queues[v] {
			queues[v][i] = 80 + 70*rng.Float64()
		}
	}
	return c, queues
}

// TestCommunityRingMatchesLP holds window_churn's 12-principal ring to the
// window LP's optimum, as the cut oracle certifies it.
func TestCommunityRingMatchesLP(t *testing.T) {
	c, queues := ringCommunity(t)
	for _, q := range queues {
		checkCommunity(t, c, q)
	}
}

func BenchmarkCommunityRing12(b *testing.B) {
	c, queues := ringCommunity(b)
	var plan Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.ScheduleInto(queues[i%len(queues)], &plan); err != nil {
			b.Fatal(err)
		}
	}
}
