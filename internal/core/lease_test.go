package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/agreement"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// stageLeases commits set version v — the engine's agreements unchanged,
// carrying leases — as a control plane's lease grant or revocation would.
func stageLeases(t *testing.T, e *Engine, v uint64, leases ...agreement.SetLease) {
	t.Helper()
	set := e.System().Clone().Snapshot(v)
	set.Leases = leases
	if _, err := e.StageSet(set, 0); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseDepositProviderConservative pins the blind-window deposit: a
// customer holding a lease gets its conservative mandatory share plus the
// full leased rate (share 1/R with R=1), on top of nothing else.
func TestLeaseDepositProviderConservative(t *testing.T) {
	e, _, b := providerEngine(t, 1)
	r := e.NewRedirector(0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// Baseline: B's blind 12.8 plus the one request carried from window 0's
	// identical, unspent grant.
	base := r.CreditsRemaining(b)
	if !approx(base, 12.8+1) {
		t.Fatalf("baseline credit for B = %v, want 13.8", base)
	}

	// 100 req/s → 10 req/window at 100ms.
	stageLeases(t, e, 1, agreement.SetLease{Holder: b, Owner: e.ProviderPrincipal(), Rate: 100})
	if err := r.StartWindow(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := r.CreditsRemaining(b)
	// Conservative claim replaces (not accumulates) the mandatory share and
	// each window carries one request from the untouched one before; the
	// delta over baseline is the per-window lease deposit.
	if want := base + 10; !approx(got, want) {
		t.Fatalf("leased blind credit for B = %v, want %v", got, want)
	}

	// A set without the lease removes the deposit from the next window.
	stageLeases(t, e, 2)
	if err := r.StartWindow(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := r.CreditsRemaining(b); !approx(got, base) {
		t.Fatalf("credit after lease clear = %v, want baseline %v", got, base)
	}
}

// TestLeaseDepositCommunityConservative is the Community-mode counterpart:
// the deposit lands in the holder→owner credit cell the lease names.
func TestLeaseDepositCommunityConservative(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// Baseline: A's blind 32 + 16 plus one request per owner cell carried
	// from window 0's identical, unspent grant.
	base := r.CreditsRemaining(a)
	if !approx(base, 48+2) {
		t.Fatalf("baseline credit for A = %v, want 50", base)
	}

	// A draws 50 req/s of leased credit on B's servers.
	stageLeases(t, e, 1, agreement.SetLease{Holder: a, Owner: b, Rate: 50})
	if err := r.StartWindow(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// base + the 5-request deposit: the carry, one request per funded owner
	// cell (A holds credit on both A's and B's servers), is in both.
	if got, want := r.CreditsRemaining(a), base+5; !approx(got, want) {
		t.Fatalf("leased blind credit for A = %v, want %v", got, want)
	}
	// The deposit must be directed at owner B: admitting for A drains it.
	admitted := 0
	for q := 0; q < 60; q++ {
		if d := r.Admit(a); d.Admitted {
			admitted++
		}
	}
	if admitted < int(base) {
		t.Fatalf("admitted %d of 60 for A, want at least the baseline %v", admitted, base)
	}
}

// TestLeaseDepositScalesWithDemandFraction checks the fresh path: the
// deposit is scaled by the redirector's share of the holder's global demand,
// so a holder whose demand is entirely local receives the full rate once its
// estimator converges.
func TestLeaseDepositScalesWithDemandFraction(t *testing.T) {
	e, _, b := providerEngine(t, 1)
	r := e.NewRedirector(0)
	stageLeases(t, e, 1, agreement.SetLease{Holder: b, Owner: e.ProviderPrincipal(), Rate: 100})
	demand := make([]float64, e.NumPrincipals())
	demand[b] = 20 // req/window
	var withLease float64
	now := time.Duration(0)
	for w := 0; w < 30; w++ {
		r.SetGlobal(demand, now)
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		withLease = r.CreditsRemaining(b)
		for q := 0.0; q < demand[b]; q++ {
			r.Admit(b)
		}
		now += 100 * time.Millisecond
	}
	// Converged: frac → 1, so the window holds the planned grant for 20
	// requests of demand plus the 10-request lease deposit (±1 carry).
	if withLease < 28 {
		t.Fatalf("converged leased credit = %v, want ≥ 28 (plan ≈ 20 + deposit 10)", withLease)
	}
	rates := e.LeaseCredits()
	if rates == nil || !approx(rates[b], 100) {
		t.Fatalf("LeaseCredits = %v, want 100 req/s for B", rates)
	}
}

// TestStageSetValidatesLeases rejects a set whose leases name an unknown
// principal or carry a negative or non-finite rate, installing nothing.
func TestStageSetValidatesLeases(t *testing.T) {
	e, a, b := providerEngine(t, 1)
	for _, bad := range []agreement.SetLease{
		{Holder: 99, Owner: a, Rate: 1},
		{Holder: b, Owner: -1, Rate: 1},
		{Holder: b, Owner: a, Rate: -1},
		{Holder: b, Owner: a, Rate: math.NaN()},
		{Holder: b, Owner: a, Rate: math.Inf(1)},
	} {
		set := e.System().Clone().Snapshot(1)
		set.Leases = []agreement.SetLease{bad}
		if _, err := e.StageSet(set, 0); err == nil {
			t.Fatalf("lease %+v accepted", bad)
		}
	}
	if e.LeaseCredits() != nil || e.LastSetVersion() != 0 {
		t.Fatalf("a refused set installed credit %v or version %d", e.LeaseCredits(), e.LastSetVersion())
	}
}
