package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/agreement"
)

// multiEngine: owner S with transaction and bandwidth dimensions; customers
// A (bandwidth-heavy, 10 KB/request) and B (1 KB/request), each [0.25, 1].
func multiEngine(t testing.TB, txCap, bwCap float64) (*Engine, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 0) // scalar capacity unused in multi mode
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.25, 1)
	s.MustSetAgreement(sp, b, 0.25, 1)
	e, err := NewEngine(Config{
		Mode:   Community,
		System: s,
		MultiResource: &MultiResourceConfig{
			Capacities: [][]float64{
				{txCap, 0, 0},
				{bwCap, 0, 0},
			},
			Costs: [][]float64{
				{1, 1},
				{1, 10},
				{1, 1},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, a, b
}

func TestMultiEngineValidation(t *testing.T) {
	s := agreement.New()
	s.MustAddPrincipal("S", 10)
	if _, err := NewEngine(Config{
		Mode: Provider, System: s,
		MultiResource: &MultiResourceConfig{Capacities: [][]float64{{10}}, Costs: [][]float64{{1}}},
	}); err == nil {
		t.Error("multi-resource provider mode accepted")
	}
	if _, err := NewEngine(Config{
		Mode: Community, System: s,
		MultiResource: &MultiResourceConfig{},
	}); err == nil {
		t.Error("zero dimensions accepted")
	}
	if _, err := NewEngine(Config{
		Mode: Community, System: s,
		MultiResource: &MultiResourceConfig{Capacities: [][]float64{{1, 2}}, Costs: [][]float64{{1}}},
	}); err == nil {
		t.Error("wrong capacity length accepted")
	}
}

func TestMultiEngineBandwidthBound(t *testing.T) {
	// 1000 tx/s but only 400 KB/s: A is bandwidth-bound.
	e, a, b := multiEngine(t, 1000, 400)
	r := e.NewRedirector(0)
	// Per window: A demand 10, B demand 10.
	admitted := pump(t, r, []float64{0, 10, 10}, 20)
	// From the scheduler model: B floor = min(250, 100)·w clipped to 10;
	// A capped by bandwidth: (40 − 10·1)/10 ⇒ 3 requests/window.
	if math.Abs(admitted[b]-10) > 1 {
		t.Fatalf("B admitted %v/window, want ≈10", admitted[b])
	}
	if math.Abs(admitted[a]-3) > 1 {
		t.Fatalf("A admitted %v/window, want ≈3 (bandwidth-bound)", admitted[a])
	}
	// Admitted byte rate never exceeds the bandwidth budget.
	bytes := admitted[a]*10 + admitted[b]*1
	if bytes > 40+1 {
		t.Fatalf("bandwidth/window = %v KB, budget 40", bytes)
	}
}

func TestMultiEngineConservativeFallback(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 0)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.5, 1)
	e, err := NewEngine(Config{
		Mode: Community, System: s, NumRedirectors: 2,
		MultiResource: &MultiResourceConfig{
			Capacities: [][]float64{{1000, 0}, {400, 0}},
			Costs:      [][]float64{{1, 1}, {1, 10}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A's request-denominated mandatory: min(0.5·1000, 0.5·400/10) = 20/s
	// = 2/window; conservative half ⇒ 1/window, plus the one request window
	// 0's identical, unspent grant carries.
	if got := e.Access().MC[a]; math.Abs(got-2) > 1e-9 {
		t.Fatalf("synthetic MC[A]/window = %v, want 2", got)
	}
	r := e.NewRedirector(0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 10; i++ {
		if r.Admit(a).Admitted {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("blind multi admissions = %d, want 2", admitted)
	}
	if !strings.Contains(e.DescribeEntitlements(), "20.0") {
		t.Fatalf("DescribeEntitlements = %q", e.DescribeEntitlements())
	}
}

func TestUpdateMultiResource(t *testing.T) {
	e, a, _ := multiEngine(t, 1000, 400)
	base := e.Access().MC[a]
	// Bandwidth doubles: A's binding dimension relaxes.
	if _, err := e.UpdateMultiResource([][]float64{{1000, 0, 0}, {800, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Access().MC[a]; math.Abs(got-2*base) > 1e-9 {
		t.Fatalf("MC[A] after bandwidth doubling = %v, want %v", got, 2*base)
	}
	// Invalid update rolls back.
	if _, err := e.UpdateMultiResource([][]float64{{1}}); err == nil {
		t.Fatal("bad capacity vector accepted")
	}
	if got := e.Access().MC[a]; math.Abs(got-2*base) > 1e-9 {
		t.Fatal("failed update corrupted state")
	}
	// Single-resource updater is rejected on multi engines.
	if _, err := e.UpdateCapacities([]float64{1, 2, 3}); err == nil {
		t.Fatal("UpdateCapacities accepted on multi engine")
	}
	// And UpdateMultiResource is rejected on single-resource engines.
	e2, _, _ := communityEngine(t, 1)
	if _, err := e2.UpdateMultiResource([][]float64{{1, 2}}); err == nil {
		t.Fatal("UpdateMultiResource accepted on scalar engine")
	}
}

func TestMultiEngineWindowScaling(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 0)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 1, 1)
	e, err := NewEngine(Config{
		Mode: Community, System: s,
		Window: 200 * time.Millisecond,
		MultiResource: &MultiResourceConfig{
			Capacities: [][]float64{{100, 0}},
			Costs:      [][]float64{{1}, {2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 units/s at cost 2 ⇒ 50 req/s ⇒ 10 per 200 ms window.
	if got := e.Access().MC[a]; math.Abs(got-10) > 1e-9 {
		t.Fatalf("MC[A]/window = %v, want 10", got)
	}
}
