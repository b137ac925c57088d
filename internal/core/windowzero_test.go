package core

import (
	"testing"
	"time"

	"repro/internal/agreement"
)

// TestWindowZeroBlindGrant: a redirector serves before its first boundary
// on exactly the blind claim of any other blind window — MC_i/R per owner
// cell, a lease deposit at the same 1/R scale, the full MC_i under the
// AggressiveWhenBlind ablation.
func TestWindowZeroBlindGrant(t *testing.T) {
	ce, a, b := communityEngine(t, 2)
	r := ce.NewRedirector(0)
	// A: (32 own + 16 on B) / 2; B: 16 own / 2.
	if got := r.CreditsRemaining(a); got != 24 {
		t.Fatalf("community window 0 credit for A = %v, want 24", got)
	}
	if got := r.CreditsRemaining(b); got != 8 {
		t.Fatalf("community window 0 credit for B = %v, want 8", got)
	}
	if d := r.Admit(a); !d.Admitted {
		t.Fatal("window 0 refused a request inside its blind grant")
	}

	pe, pa, pb := providerEngine(t, 2)
	// 100 req/s: 10 per window, 5 at the blind scale.
	stageLeases(t, pe, 1, agreement.SetLease{Holder: pb, Owner: pe.ProviderPrincipal(), Rate: 100})
	pr := pe.NewRedirector(0)
	if got := pr.CreditsRemaining(pa); !approx(got, 51.2/2) {
		t.Fatalf("provider window 0 credit for A = %v, want 25.6", got)
	}
	if got := pr.CreditsRemaining(pb); !approx(got, 12.8/2+5) {
		t.Fatalf("provider window 0 credit for B = %v, want 6.4 + 5 leased", got)
	}

	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	c := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, c, 0.5, 1)
	ae, err := NewEngine(Config{
		Mode: Provider, System: s, ProviderPrincipal: sp,
		NumRedirectors: 4, AggressiveWhenBlind: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ae.NewRedirector(0).CreditsRemaining(c); got != 32 {
		t.Fatalf("aggressive window 0 credit = %v, want the full MC 32", got)
	}
}

// TestWindowZeroRestoredCarry: a restored redirector's window 0 is the blind
// grant plus the ≤1-request carry of each restored cell — whatever the
// checkpoint held, restoring mints no more than the carry bound.
func TestWindowZeroRestoredCarry(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	// A: 3 on its own server (carries 1), 0.25 on B's (carries all of it);
	// B: 1e6 on A's server (carries 1) and -2 on its own (carries nothing).
	r.RestoreState(42, []float64{7, 5}, [][]float64{{3, 0.25}, {1e6, -2}}, nil)
	if r.Windows != 42 {
		t.Fatalf("restored window counter = %d, want 42", r.Windows)
	}
	if got := r.CreditsRemaining(a); got != 48+1+0.25 {
		t.Fatalf("restored window 0 credit for A = %v, want 49.25", got)
	}
	if got := r.CreditsRemaining(b); got != 16+1 {
		t.Fatalf("restored window 0 credit for B = %v, want 17", got)
	}

	pe, pa, pb := providerEngine(t, 1)
	pr := pe.NewRedirector(0)
	pr.RestoreState(9, nil, nil, []float64{0, 7.5, 0.4})
	if got := pr.CreditsRemaining(pa); !approx(got, 51.2+1) {
		t.Fatalf("restored provider credit for A = %v, want 52.2", got)
	}
	if got := pr.CreditsRemaining(pb); !approx(got, 12.8+0.4) {
		t.Fatalf("restored provider credit for B = %v, want 13.2", got)
	}
}

// TestWindowZeroRecordCapsAdmission: an observer attached before the first
// boundary traces window 0 — blind, numbered 0 even on a restored
// redirector, grant and floor at the blind claim, ceiling widened by the
// restored carry — and the window cannot admit past that ceiling. The
// record commits at the first boundary, where the auditor sees it.
func TestWindowZeroRecordCapsAdmission(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	r.RestoreState(42, nil, [][]float64{{3, 0}, {1, 2}}, nil)
	o := e.NewObserver(0, nil, 0)
	r.SetObserver(o)

	ceil := []float64{48 + 1, 16 + 2}
	for p, want := range ceil {
		admitted := 0
		for i := 0; i < 100; i++ {
			if r.Admit(agreement.Principal(p)).Admitted {
				admitted++
			}
		}
		if float64(admitted) != want {
			t.Fatalf("window 0 admitted %d for principal %d, want its ceiling %v", admitted, p, want)
		}
	}
	if len(o.Ring().Snapshot(0)) != 0 {
		t.Fatal("window 0's record committed before its window ended")
	}
	r.SetGlobal([]float64{100, 100}, 0)
	if err := r.StartWindow(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	recs := o.Ring().Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records after the first boundary, want window 0's", len(recs))
	}
	rec := recs[0]
	if rec.Window != 0 || !rec.Conservative || rec.ConfigVersion != e.LastSetVersion() {
		t.Fatalf("window 0 record = (window %d, conservative %v, version %d)", rec.Window, rec.Conservative, rec.ConfigVersion)
	}
	for p, g := range []float64{48, 16} {
		if rec.Granted[p] != g || rec.Floor[p] != g || rec.Ceil[p] != ceil[p] {
			t.Fatalf("principal %d granted/floor/ceil = %g/%g/%g, want %g/%g/%g",
				p, rec.Granted[p], rec.Floor[p], rec.Ceil[p], g, g, ceil[p])
		}
		if rec.Served[p] != ceil[p] || rec.Arrived[p] != 100 {
			t.Fatalf("principal %d served %g of %g, want %g of 100", p, rec.Served[p], rec.Arrived[p], ceil[p])
		}
	}
	aud := o.Auditor()
	if aud.Windows() != 1 || aud.Conservative() != 1 || aud.OverUB(int(a))+aud.OverUB(int(b)) != 0 {
		t.Fatalf("auditor: %s", aud)
	}
	if aud.UnderMC(int(a))+aud.UnderMC(int(b)) != 0 {
		t.Fatalf("auditor flags a window that served its whole floor: %s", aud)
	}
	// The next record resumes the restored sequence.
	if err := r.StartWindow(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if recs := o.Ring().Snapshot(0); recs[len(recs)-1].Window != 43 {
		t.Fatalf("first scheduled window after the restore = %d, want 43", recs[len(recs)-1].Window)
	}
}
