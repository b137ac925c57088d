package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/agreement"
)

// communityEngine builds the Figure 9 community: A and B each own a
// 320 req/s server, B shares [0.5, 0.5] with A.
func communityEngine(t testing.TB, redirectors int) (*Engine, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	e, err := NewEngine(Config{
		Mode:           Community,
		System:         s,
		Window:         100 * time.Millisecond,
		NumRedirectors: redirectors,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, a, b
}

// providerEngine builds the Figure 10 provider: 640 req/s, A [0.8,1] at
// price 2, B [0.2,1] at price 1.
func providerEngine(t testing.TB, redirectors int) (*Engine, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)
	e, err := NewEngine(Config{
		Mode:              Provider,
		System:            s,
		Window:            100 * time.Millisecond,
		NumRedirectors:    redirectors,
		ProviderPrincipal: sp,
		Prices:            map[agreement.Principal]float64{a: 2, b: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, a, b
}

// pump runs w windows feeding constant per-window demand and a matching
// global view, returning admissions per principal in the final window.
func pump(t *testing.T, r *Redirector, demand []float64, w int) []float64 {
	t.Helper()
	n := len(demand)
	admitted := make([]float64, n)
	now := time.Duration(0)
	for win := 0; win < w; win++ {
		r.SetGlobal(demand, now)
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		for i := range admitted {
			admitted[i] = 0
		}
		for i := 0; i < n; i++ {
			for q := 0.0; q < demand[i]; q++ {
				if d := r.Admit(agreement.Principal(i)); d.Admitted {
					admitted[i]++
				}
			}
		}
		now += 100 * time.Millisecond
	}
	return admitted
}

func TestEngineDefaults(t *testing.T) {
	s := agreement.New()
	s.MustAddPrincipal("A", 100)
	e, err := NewEngine(Config{Mode: Community, System: s})
	if err != nil {
		t.Fatal(err)
	}
	if e.Window() != 100*time.Millisecond {
		t.Fatalf("default window = %v", e.Window())
	}
	if e.Mode() != Community || e.Mode().String() != "community" {
		t.Fatal("mode wrong")
	}
	if e.NumPrincipals() != 1 {
		t.Fatal("principal count wrong")
	}
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := NewEngine(Config{Mode: Community}); err == nil {
		t.Error("nil system accepted")
	}
	s := agreement.New()
	s.MustAddPrincipal("A", 100)
	if _, err := NewEngine(Config{Mode: Mode(9), System: s}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewEngine(Config{Mode: Provider, System: s, ProviderPrincipal: 5}); err == nil {
		t.Error("out-of-range provider accepted")
	}
	if _, err := NewEngine(Config{Mode: Community, System: s, LocalityCaps: []float64{1, 2}}); err == nil {
		t.Error("bad locality caps accepted")
	}
}

func TestAccessScaledToWindow(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	// MC_A = 480 req/s ⇒ 48 per 100 ms window.
	if math.Abs(e.Access().MC[a]-48) > 1e-9 {
		t.Fatalf("MC[A]/window = %g, want 48", e.Access().MC[a])
	}
	if math.Abs(e.Access().MC[b]-16) > 1e-9 {
		t.Fatalf("MC[B]/window = %g, want 16", e.Access().MC[b])
	}
}

func TestCommunitySingleRedirectorSteadyState(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	// Demand per window: A 80 (two clients), B 40 — Figure 9 phase 1.
	admitted := pump(t, r, []float64{80, 40}, 20)
	// Steady state: A 48/window (480/s), B 16/window (160/s).
	if math.Abs(admitted[a]-48) > 1.5 || math.Abs(admitted[b]-16) > 1.5 {
		t.Fatalf("admitted = %v, want ≈[48 16]", admitted)
	}
}

func TestCommunityAdmitTargetsOwners(t *testing.T) {
	e, a, _ := communityEngine(t, 1)
	r := e.NewRedirector(0)
	pump(t, r, []float64{80, 40}, 10)
	r.SetGlobal([]float64{80, 40}, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	owners := make(map[agreement.Principal]int)
	for i := 0; i < 80; i++ {
		if d := r.Admit(a); d.Admitted {
			owners[d.Owner]++
		}
	}
	// A's 48 credits split 32 on its own server, 16 on B's.
	if owners[0] < 30 || owners[1] < 14 {
		t.Fatalf("owner split = %v, want ≈{A:32 B:16}", owners)
	}
}

func TestProviderSteadyState(t *testing.T) {
	e, a, b := providerEngine(t, 1)
	r := e.NewRedirector(0)
	// Figure 10 phase 1: A 80/window, B 40/window.
	admitted := pump(t, r, []float64{0, 80, 40}, 20)
	// A 51.2/window (512/s), B 12.8/window (128/s).
	if math.Abs(admitted[a]-51) > 2 || math.Abs(admitted[b]-13) > 2 {
		t.Fatalf("admitted = %v, want ≈[_ 51 13]", admitted)
	}
	if len(e.Customers()) != 2 {
		t.Fatalf("customers = %v", e.Customers())
	}
}

func TestProviderDecisionOwnerIsProvider(t *testing.T) {
	e, a, _ := providerEngine(t, 1)
	r := e.NewRedirector(0)
	pump(t, r, []float64{0, 10, 0}, 5)
	r.SetGlobal([]float64{0, 10, 0}, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	d := r.Admit(a)
	if !d.Admitted || d.Owner != 0 {
		t.Fatalf("decision = %+v, want admitted by provider 0", d)
	}
}

func TestConservativeFallbackHalvesMandatory(t *testing.T) {
	e, a, b := providerEngine(t, 2)
	r := e.NewRedirector(0)
	// No SetGlobal at all: conservative mode. B's mandatory is 128 req/s =
	// 12.8/window; half (two redirectors) = 6.4, plus the one request window
	// 0 (the same 6.4, unspent) carries.
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 0; i < 100; i++ {
		if r.Admit(b).Admitted {
			count++
		}
	}
	if count != 7 {
		t.Fatalf("conservative admissions for B = %d, want 7 (half of 12.8, plus 1 carried)", count)
	}
	if r.Conservative != 1 {
		t.Fatalf("Conservative windows = %d", r.Conservative)
	}
	_ = a
}

func TestCommunityConservativeFallback(t *testing.T) {
	e, a, b := communityEngine(t, 2)
	r := e.NewRedirector(0)
	if r.HasGlobal() {
		t.Fatal("fresh redirector claims a global view")
	}
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// Blind community mode: half of each per-pair mandatory entitlement.
	// A: MI[A][A]=32, MI[B][A]=16 per window ⇒ half = 16 + 8 = 24, plus one
	// request per owner cell carried from window 0's identical, unspent
	// grant.
	admitted, owners := 0, map[agreement.Principal]int{}
	for i := 0; i < 100; i++ {
		if d := r.Admit(a); d.Admitted {
			admitted++
			owners[d.Owner]++
		}
	}
	if admitted != 26 {
		t.Fatalf("blind community admissions = %d, want 26", admitted)
	}
	if owners[a] != 17 || owners[b] != 9 {
		t.Fatalf("owner split = %v, want A:17 B:9", owners)
	}
	r.SetGlobal([]float64{10, 10}, 0)
	if !r.HasGlobal() {
		t.Fatal("HasGlobal false after SetGlobal")
	}
}

func TestStalenessTriggersConservative(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.5, 1)
	e, err := NewEngine(Config{
		Mode: Provider, System: s, ProviderPrincipal: sp,
		NumRedirectors: 1, Staleness: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.NewRedirector(0)
	r.SetGlobal([]float64{0, 50}, 0)
	if err := r.StartWindow(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 0 {
		t.Fatal("fresh global counted as stale")
	}
	if err := r.StartWindow(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Conservative != 1 {
		t.Fatal("stale global did not trigger conservative mode")
	}
}

func TestCreditCarryover(t *testing.T) {
	// Provider with a tiny mandatory rate: 5 req/s = 0.5 per window. With
	// carry-over, conservative mode admits ~1 request every 2 windows.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 5)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 1, 1)
	e, err := NewEngine(Config{Mode: Provider, System: s, ProviderPrincipal: sp, NumRedirectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := e.NewRedirector(0)
	admitted := 0
	for w := 0; w < 20; w++ {
		if err := r.StartWindow(time.Duration(w) * 100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if r.Admit(a).Admitted {
			admitted++
		}
	}
	if admitted < 9 || admitted > 10 {
		t.Fatalf("admitted %d over 20 windows at 0.5/window, want ≈10", admitted)
	}
}

func TestDescribeEntitlements(t *testing.T) {
	e, _, _ := communityEngine(t, 1)
	out := e.DescribeEntitlements()
	if !strings.Contains(out, "community mode") ||
		!strings.Contains(out, "A") || !strings.Contains(out, "480.0") {
		t.Fatalf("DescribeEntitlements = %q", out)
	}
}

func TestAdmitUnknownPrincipal(t *testing.T) {
	e, _, _ := communityEngine(t, 1)
	r := e.NewRedirector(0)
	if d := r.Admit(agreement.Principal(-1)); d.Admitted {
		t.Fatal("admitted invalid principal")
	}
	if d := r.Admit(agreement.Principal(99)); d.Admitted {
		t.Fatal("admitted out-of-range principal")
	}
	if r.CreditsRemaining(agreement.Principal(99)) != 0 {
		t.Fatal("credits for out-of-range principal")
	}
}

func TestTwoRedirectorsSplitByLocalDemand(t *testing.T) {
	// Two redirectors, each on its own engine; all of A's demand arrives at
	// r0, all of B's at r1. With global aggregates both enforce the same
	// totals as a single node.
	e0, a, b := communityEngine(t, 2)
	e1, _, _ := communityEngine(t, 2)
	r0 := e0.NewRedirector(0)
	r1 := e1.NewRedirector(1)
	now := time.Duration(0)
	var adA, adB float64
	for w := 0; w < 20; w++ {
		// The global view is the sum of both locals (ideal, no lag).
		g := make([]float64, 2)
		for i, v := range r0.LocalEstimate() {
			g[i] += v
		}
		for i, v := range r1.LocalEstimate() {
			g[i] += v
		}
		r0.SetGlobal(g, now)
		r1.SetGlobal(g, now)
		if err := r0.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		if err := r1.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		adA, adB = 0, 0
		for i := 0; i < 80; i++ {
			if r0.Admit(a).Admitted {
				adA++
			}
		}
		for i := 0; i < 40; i++ {
			if r1.Admit(b).Admitted {
				adB++
			}
		}
		now += 100 * time.Millisecond
	}
	if math.Abs(adA-48) > 2 || math.Abs(adB-16) > 2 {
		t.Fatalf("split admissions = %g/%g, want ≈48/16", adA, adB)
	}
	if r0.ID() != 0 || r1.ID() != 1 {
		t.Fatal("IDs wrong")
	}
}

func TestLocalityCapLimitsPush(t *testing.T) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	// This redirector may push at most 100 req/s (10/window) to B's server.
	e, err := NewEngine(Config{
		Mode: Community, System: s, NumRedirectors: 1,
		LocalityCaps: []float64{math.Inf(1), 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.NewRedirector(0)
	now := time.Duration(0)
	var toB float64
	for w := 0; w < 15; w++ {
		r.SetGlobal([]float64{80, 0}, now)
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		toB = 0
		for i := 0; i < 80; i++ {
			if d := r.Admit(a); d.Admitted && d.Owner == b {
				toB++
			}
		}
		now += 100 * time.Millisecond
	}
	if toB > 11 {
		t.Fatalf("pushed %g/window to B, cap is 10", toB)
	}
}

func TestAdmitPreferringAffinity(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	pump(t, r, []float64{80, 40}, 10)
	r.SetGlobal([]float64{80, 40}, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// A has credits on both owners; preferring B must stick to B while B's
	// credit lasts (≈16/window), then fall back to A's own server.
	sawB, sawA := 0, 0
	for i := 0; i < 48; i++ {
		d := r.AdmitPreferring(a, b)
		if !d.Admitted {
			break
		}
		if d.Owner == b {
			sawB++
		} else {
			sawA++
		}
	}
	if sawB < 14 || sawA == 0 {
		t.Fatalf("affinity split = B:%d A:%d, want ≈16 on B then fallback", sawB, sawA)
	}
	// Preference out of range behaves like plain Admit.
	if d := r.AdmitPreferring(a, agreement.Principal(99)); !d.Admitted && r.CreditsRemaining(a) >= 1 {
		t.Fatal("out-of-range preference broke admission")
	}
}

func TestAdmitCostChargesCredits(t *testing.T) {
	e, a, _ := communityEngine(t, 1)
	r := e.NewRedirector(0)
	pump(t, r, []float64{80, 0}, 10)
	r.SetGlobal([]float64{80, 0}, 0)
	if err := r.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// A has ≈48 credits; cost-8 requests fit 6 times.
	admitted := 0
	for i := 0; i < 20; i++ {
		if d := r.AdmitCost(a, -1, 8); d.Admitted {
			admitted++
		}
	}
	if admitted != 6 {
		t.Fatalf("cost-8 admissions = %d, want 6 (48 credits)", admitted)
	}
	// Non-positive cost behaves like cost 1.
	if d := r.AdmitCost(a, -1, 0); d.Admitted && r.CreditsRemaining(a) < 0 {
		t.Fatal("zero cost corrupted credits")
	}
}

func TestUpdateCapacitiesRescalesEntitlements(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	if got := e.Access().MC[a]; math.Abs(got-48) > 1e-9 {
		t.Fatalf("initial MC[A]/window = %v", got)
	}
	// B's server degrades to half capacity: A's entitlement drops from
	// 480 to 320+80 = 400 req/s (40/window) without re-enumerating paths.
	if _, err := e.UpdateCapacities([]float64{320, 160}); err != nil {
		t.Fatal(err)
	}
	if got := e.Access().MC[a]; math.Abs(got-40) > 1e-9 {
		t.Fatalf("MC[A]/window after degrade = %v, want 40", got)
	}
	if got := e.Access().MC[b]; math.Abs(got-8) > 1e-9 {
		t.Fatalf("MC[B]/window after degrade = %v, want 8", got)
	}
	// Running redirectors pick the new entitlements up next window.
	r := e.NewRedirector(0)
	admitted := pump(t, r, []float64{80, 40}, 15)
	if math.Abs(admitted[a]-40) > 2 || math.Abs(admitted[b]-8) > 2 {
		t.Fatalf("post-update admissions = %v, want ≈[40 8]", admitted)
	}
	if _, err := e.UpdateCapacities([]float64{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
	if _, err := e.UpdateCapacities([]float64{-1, 5}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestUpdateSystemRefoldsAgreements(t *testing.T) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	e, err := NewEngine(Config{Mode: Community, System: s, NumRedirectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Access().MC[a]; math.Abs(got-48) > 1e-9 {
		t.Fatalf("MC[A] = %v", got)
	}
	// The agreement is renegotiated: B now grants only 25%.
	s.MustSetAgreement(b, a, 0.25, 0.25)
	if _, err := e.UpdateSystem(); err != nil {
		t.Fatal(err)
	}
	if got := e.Access().MC[a]; math.Abs(got-40) > 1e-9 {
		t.Fatalf("MC[A] after renegotiation = %v, want 40", got)
	}
}

func TestRejectionsCounted(t *testing.T) {
	e, a, _ := communityEngine(t, 1)
	r := e.NewRedirector(0)
	// No windows started: window 0 holds A's blind grant, 48 (R = 1), and
	// nothing more.
	for i := 0; i < 48; i++ {
		if d := r.Admit(a); !d.Admitted {
			t.Fatalf("request %d rejected inside window 0's grant", i)
		}
	}
	if d := r.Admit(a); d.Admitted {
		t.Fatal("admitted past window 0's grant")
	}
	if r.Rejected != 1 || r.Admitted != 48 {
		t.Fatalf("counters = admitted %d rejected %d", r.Admitted, r.Rejected)
	}
}

func BenchmarkAdmit(b *testing.B) {
	e, a, _ := communityEngine(b, 1)
	r := e.NewRedirector(0)
	r.SetGlobal([]float64{1e9, 0}, 0)
	for i := 0; i < 1000; i++ {
		r.Admit(a)
	}
	if err := r.StartWindow(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Admit(a)
	}
}

func BenchmarkStartWindow(b *testing.B) {
	e, a, _ := communityEngine(b, 2)
	r := e.NewRedirector(0)
	for i := 0; i < 100; i++ {
		r.Admit(a)
	}
	r.SetGlobal([]float64{80, 40}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.StartWindow(time.Duration(i) * 100 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObserverRecordsWindows(t *testing.T) {
	e, a, b := communityEngine(t, 1)
	r := e.NewRedirector(0)
	o := e.NewObserver(0, nil, 0)
	r.SetObserver(o)
	if r.Observer() != o {
		t.Fatal("Observer accessor did not return the installed observer")
	}

	const windows = 10
	demand := []float64{80, 40}
	pump(t, r, demand, windows)

	// A window's record commits when the next window opens, so after w
	// StartWindow calls window 0 (traced from SetObserver) and windows
	// 1..w-1 are in the ring.
	recs := o.Ring().Snapshot(0)
	if len(recs) != windows {
		t.Fatalf("ring holds %d records, want %d", len(recs), windows)
	}
	// Window 0 is blind: the full mandatory claim (R = 1) is grant, floor
	// and ceiling at once, with nothing carried on a cold start.
	boot := recs[0]
	if boot.Window != 0 || !boot.Conservative || boot.HaveGlobal {
		t.Fatalf("first record = window %d conservative=%v global=%v, want blind window 0",
			boot.Window, boot.Conservative, boot.HaveGlobal)
	}
	for p, mc := range []float64{48, 16} {
		if boot.Granted[p] != mc || boot.Floor[p] != mc || boot.Ceil[p] != mc {
			t.Fatalf("window 0 principal %d granted/floor/ceil = %g/%g/%g, want %g",
				p, boot.Granted[p], boot.Floor[p], boot.Ceil[p], mc)
		}
	}
	recs = recs[1:]
	for i, rec := range recs {
		if rec.Window != uint64(i+1) {
			t.Fatalf("record %d has window %d", i, rec.Window)
		}
		if rec.Redirector != 0 {
			t.Fatalf("record %d labeled redirector %d", i, rec.Redirector)
		}
		if !rec.HaveGlobal || rec.Conservative || rec.SolveErr {
			t.Fatalf("record %d flags = global=%v conservative=%v solveErr=%v",
				i, rec.HaveGlobal, rec.Conservative, rec.SolveErr)
		}
		if rec.Arrived[a] != demand[a] || rec.Arrived[b] != demand[b] {
			t.Fatalf("record %d arrivals = %v, want %v", i, rec.Arrived, demand)
		}
		if rec.Global[a] != demand[a] || rec.Global[b] != demand[b] {
			t.Fatalf("record %d global = %v", i, rec.Global)
		}
		for p := range demand {
			if rec.Served[p] < 0 || rec.Served[p] > rec.Arrived[p] {
				t.Fatalf("record %d served[%d] = %g outside [0, %g]",
					i, p, rec.Served[p], rec.Arrived[p])
			}
			if rec.Ceil[p]+1e-9 < rec.Floor[p] {
				t.Fatalf("record %d principal %d ceil %g < floor %g",
					i, p, rec.Ceil[p], rec.Floor[p])
			}
		}
	}
	// Steady state (single redirector, frac→1): A floor/ceil at its
	// MC=48/window, B at 16.
	last := recs[len(recs)-1]
	if math.Abs(last.Floor[a]-48) > 2 || math.Abs(last.Floor[b]-16) > 2 {
		t.Fatalf("steady-state floors = %v, want ≈[48 16]", last.Floor)
	}
	if last.SolveNanos <= 0 && !last.CacheHit {
		t.Fatalf("record has neither solve latency nor a cache hit")
	}

	aud := o.Auditor()
	if aud.Windows() != int64(windows) {
		t.Fatalf("auditor windows = %d, want %d", aud.Windows(), windows)
	}
	if aud.Conservative() != 1 || aud.NoGlobal() != 1 || aud.SolveErrors() != 0 {
		t.Fatalf("auditor flags = conservative=%d noGlobal=%d solveErr=%d, want 1/1/0 (window 0)",
			aud.Conservative(), aud.NoGlobal(), aud.SolveErrors())
	}
	if got := aud.OverUB(int(a)) + aud.OverUB(int(b)); got != 0 {
		t.Fatalf("auditor counted %d over-ceiling windows", got)
	}
	if aud.Arrived(int(a)) != float64(windows-1)*demand[a] {
		t.Fatalf("auditor arrived[A] = %g", aud.Arrived(int(a)))
	}
	if aud.Served(int(a)) <= 0 {
		t.Fatal("auditor served[A] not accumulated")
	}
	names := aud.Names()
	if len(names) != 2 || names[a] != "A" || names[b] != "B" {
		t.Fatalf("auditor names = %v", names)
	}
}

func TestObserverTracesConservativeWindows(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.5, 1)
	e, err := NewEngine(Config{
		Mode: Provider, System: s, ProviderPrincipal: sp,
		NumRedirectors: 1, Staleness: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.NewRedirector(0)
	o := e.NewObserver(0, nil, 0)
	r.SetObserver(o)
	r.SetGlobal([]float64{0, 50}, 0)
	for _, now := range []time.Duration{500 * time.Millisecond, 5 * time.Second, 5100 * time.Millisecond} {
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
	}
	recs := o.Ring().Snapshot(0)
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(recs))
	}
	boot, fresh, stale := recs[0], recs[1], recs[2]
	if boot.Window != 0 || !boot.Conservative || boot.Granted[a] != 16 {
		t.Fatalf("window 0 = (%d, conservative=%v, granted %g), want blind with 16",
			boot.Window, boot.Conservative, boot.Granted[a])
	}
	if fresh.Conservative || !fresh.HaveGlobal {
		t.Fatalf("fresh window flagged conservative=%v global=%v", fresh.Conservative, fresh.HaveGlobal)
	}
	if !stale.Conservative {
		t.Fatal("stale window not flagged conservative")
	}
	if stale.GlobalAgeNanos <= int64(time.Second) {
		t.Fatalf("stale record global age = %dns, want > 1s", stale.GlobalAgeNanos)
	}
	// Blind fallback grants the 1/R mandatory share: MC_A = 16/window here.
	if math.Abs(stale.Granted[a]-16) > 1e-6 || math.Abs(stale.Floor[a]-16) > 1e-6 {
		t.Fatalf("conservative grant = %g floor = %g, want 16", stale.Granted[a], stale.Floor[a])
	}
	if o.Auditor().Conservative() != 2 {
		t.Fatalf("auditor conservative = %d, want 2 (window 0 and the stale window)", o.Auditor().Conservative())
	}
}
