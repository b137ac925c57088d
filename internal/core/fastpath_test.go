package core

import (
	"math"
	"testing"
	"time"
)

// TestSharedPlanCacheCollapsesSolves is the engine-level fast-path contract:
// a redirector holding the same global aggregate window after window costs
// one LP solve, not one per window — on each of R engines alike.
func TestSharedPlanCacheCollapsesSolves(t *testing.T) {
	const R, windows = 4, 10
	engs, reds, _, _ := fleet(t, R)
	global := []float64{80, 40}
	now := time.Duration(0)
	for w := 0; w < windows; w++ {
		for _, r := range reds {
			r.SetGlobal(global, now)
			if err := r.StartWindow(now); err != nil {
				t.Fatal(err)
			}
		}
		now += 100 * time.Millisecond
	}
	// The identical vector every window: one miss in window 1, hits
	// everywhere else.
	for _, e := range engs {
		st := e.Stats()
		if st.CacheMisses() != 1 || st.Solves() != 1 {
			t.Fatalf("misses/solves = %d/%d, want 1/1 (%v)", st.CacheMisses(), st.Solves(), st)
		}
		if st.CacheHits() != windows-1 {
			t.Fatalf("hits = %d, want %d (%v)", st.CacheHits(), windows-1, st)
		}
	}
}

// TestCacheInvalidatedOnRebuild guards the staleness hazard: plans computed
// under old entitlements must never be served after UpdateCapacities
// rebuilds the schedulers.
func TestCacheInvalidatedOnRebuild(t *testing.T) {
	e, a, bPr := communityEngine(t, 1)
	r := e.NewRedirector(0)
	// Local demand so the redirector claims a share of the plan.
	for i := 0; i < 80; i++ {
		r.Admit(a)
	}
	global := []float64{80, 40}
	r.SetGlobal(global, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	before := r.CreditsRemaining(a)
	if before <= 0 {
		t.Fatalf("no credits before rebuild (%g)", before)
	}

	// Halve every capacity; the same queue vector must now yield a plan from
	// the rebuilt scheduler, not the cached pre-rebuild plan.
	caps := make([]float64, e.NumPrincipals())
	caps[a], caps[bPr] = 160, 160
	if _, err := e.UpdateCapacities(caps); err != nil {
		t.Fatal(err)
	}
	r.SetGlobal(global, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	after := r.CreditsRemaining(a)
	if math.Abs(after-before) < 1e-9 {
		t.Fatalf("credits unchanged (%g) after halving capacity — stale cached plan served", after)
	}
	if e.Stats().Solves() != 2 {
		t.Fatalf("solves = %d, want 2 (one per cache generation)", e.Stats().Solves())
	}
}

// TestProviderPlanCacheShared is the provider counterpart: a steady
// aggregate costs the engine one solve over five windows.
func TestProviderPlanCacheShared(t *testing.T) {
	e, a, b := providerEngine(t, 2)
	r := e.NewRedirector(0)
	global := make([]float64, e.NumPrincipals())
	global[a] = 60
	global[b] = 30
	for w := 0; w < 5; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		r.SetGlobal(global, now)
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Solves() != 1 || st.CacheMisses() != 1 {
		t.Fatalf("solves/misses = %d/%d, want 1/1", st.Solves(), st.CacheMisses())
	}
	if st.CacheHits() != 4 {
		t.Fatalf("hits = %d, want 4", st.CacheHits())
	}
}

// TestLocalEstimateInto covers the allocation-free estimate accessor.
func TestLocalEstimateInto(t *testing.T) {
	e, a, _ := communityEngine(t, 1)
	r := e.NewRedirector(0)
	r.Admit(a)
	r.SetGlobal([]float64{10, 10}, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	want := r.LocalEstimate()
	buf := make([]float64, 0, 8)
	got := r.LocalEstimateInto(buf)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("LocalEstimateInto did not reuse the provided buffer")
	}
	if small := r.LocalEstimateInto(make([]float64, 1)); len(small) != len(want) {
		t.Fatalf("undersized dst: len = %d, want %d", len(small), len(want))
	}
}
