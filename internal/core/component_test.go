package core

import (
	"testing"
	"time"

	"repro/internal/agreement"
)

// fourPrincipalEngine builds two disjoint agreement components — {A,B} and
// {C,D}, each a mutual 0.5 pair like the standard community fixture — with
// a staleness budget so component aggregates can age out independently.
func fourPrincipalEngine(t *testing.T) *Engine {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	c := s.MustAddPrincipal("C", 320)
	d := s.MustAddPrincipal("D", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	s.MustSetAgreement(d, c, 0.5, 0.5)
	e, err := NewEngine(Config{
		Mode:           Community,
		System:         s,
		Window:         100 * time.Millisecond,
		NumRedirectors: 2,
		Staleness:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comps := s.Components(); len(comps) != 2 {
		t.Fatalf("components = %v, want two", comps)
	}
	return e
}

// TestMixedComponentWindowGating: when one component's aggregate is fresh
// and the other's is stale, the window plans the fresh component normally
// and claims only the conservative share for the stale one — and counts as
// a partial window, not a conservative one.
func TestMixedComponentWindowGating(t *testing.T) {
	e := fourPrincipalEngine(t)
	r := e.NewRedirector(0)
	const (
		a = agreement.Principal(0)
		c = agreement.Principal(2)
	)

	// {A,B} aggregate is 50ms old at window start; {C,D} is 200ms old —
	// past the 150ms staleness budget.
	r.SetGlobalComponent([]int{0, 1}, []float64{40, 40}, 250*time.Millisecond)
	r.SetGlobalComponent([]int{2, 3}, []float64{40, 40}, 100*time.Millisecond)
	if err := r.StartWindow(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 0 || r.Partial != 1 {
		t.Fatalf("Conservative=%d Partial=%d, want 0/1", r.Conservative, r.Partial)
	}
	// C runs conservatively: half of its mandatory entitlements (own 32 +
	// partner 16 per window ⇒ 24), exactly like a fully blind window, plus
	// one request per owner cell carried from window 0's unspent blind grant.
	admitted := 0
	for i := 0; i < 100; i++ {
		if r.Admit(c).Admitted {
			admitted++
		}
	}
	if admitted != 26 {
		t.Fatalf("stale-component admissions for C = %d, want 26", admitted)
	}
	// A was planned against its fresh aggregate with zero local estimate:
	// the plan grants it nothing here (frac 0), so it holds exactly window
	// 0's carry, one request per owner cell — the point is it took the
	// planned path, not the blind share.
	if got := r.CreditsRemaining(a); got != 2 {
		t.Fatalf("fresh principal holds %v credits, want 2 (window 0's carry only)", got)
	}

	// Both components fresh: a normal planned window, no new partials.
	r.SetGlobalComponent([]int{2, 3}, []float64{40, 40}, 350*time.Millisecond)
	if err := r.StartWindow(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 0 || r.Partial != 1 {
		t.Fatalf("after fresh window: Conservative=%d Partial=%d, want 0/1", r.Conservative, r.Partial)
	}

	// Both stale: collapses into the ordinary conservative fallback.
	if err := r.StartWindow(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 1 || r.Partial != 1 {
		t.Fatalf("after stale window: Conservative=%d Partial=%d, want 1/1", r.Conservative, r.Partial)
	}
}

// TestSetGlobalKeepsUniformSemantics: the flat single-tree path stamps
// every principal at once, so the per-principal mask never reports a mixed
// window and behavior matches the pre-sharding engine exactly.
func TestSetGlobalKeepsUniformSemantics(t *testing.T) {
	e := fourPrincipalEngine(t)
	r := e.NewRedirector(0)
	r.SetGlobal([]float64{40, 40, 40, 40}, 100*time.Millisecond)
	if err := r.StartWindow(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 0 || r.Partial != 0 {
		t.Fatalf("uniform fresh: Conservative=%d Partial=%d", r.Conservative, r.Partial)
	}
	if err := r.StartWindow(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 1 || r.Partial != 0 {
		t.Fatalf("uniform stale: Conservative=%d Partial=%d", r.Conservative, r.Partial)
	}
}
