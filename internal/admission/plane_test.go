package admission

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// communityPlane builds a two-principal community (A and B each own
// 320 req/s, B shares [0.5,0.5] with A) fronted by a plane with the given
// shard count.
func communityPlane(t testing.TB, shards int) (*Plane, *core.Redirector, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	e, err := core.NewEngine(core.Config{
		Mode: core.Community, System: s,
		Window: 100 * time.Millisecond, NumRedirectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	red := e.NewRedirector(0)
	pl, err := New(Config{Redirector: red, Engine: e, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return pl, red, a, b
}

// providerPlane builds the provider scenario (S at 640 req/s, A [0.8,1],
// B [0.2,1]) fronted by a plane.
func providerPlane(t testing.TB, shards int) (*Plane, *core.Redirector, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)
	e, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 100 * time.Millisecond, NumRedirectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	red := e.NewRedirector(0)
	pl, err := New(Config{Redirector: red, Engine: e, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return pl, red, a, b
}

// warm seeds demand and runs boundaries until credits flow: the estimator
// needs one window of arrivals, the scheduler one more to grant against it.
func warm(t testing.TB, pl *Plane, red *core.Redirector, demand []float64, windows int) {
	t.Helper()
	now := time.Duration(0)
	for w := 0; w < windows; w++ {
		for p, d := range demand {
			for i := 0; i < int(d); i++ {
				pl.Admit(agreement.Principal(p))
			}
		}
		red.SetGlobal(demand, now)
		if err := pl.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		now += 100 * time.Millisecond
	}
}

// TestDroppedPlaneIsCollected: once its owner drops a plane, one GC cycle
// must free it. The runtime keeps every sync.Pool it has handed a value out
// of reachable for up to two cycles, so a pool inside the plane kept the
// plane — and the redirector, engine and observer rings behind it — alive
// across every reboot that replaced it.
func TestDroppedPlaneIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		pl, red, a, b := communityPlane(t, 4)
		warm(t, pl, red, []float64{8, 4}, 3)
		pl.Admit(a)
		pl.Admit(b)
		runtime.SetFinalizer(pl, func(*Plane) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped plane outlived a GC cycle")
	}
}

// TestWindowZeroPublishedAtNew: New publishes the redirector's window-0
// blind grant (R = 1: A's 32 own + 16 on B, B's 16 own), spendable in full
// through the shards before any StartWindow and not a request beyond it.
func TestWindowZeroPublishedAtNew(t *testing.T) {
	pl, _, a, b := communityPlane(t, 4)
	if got := pl.CreditsRemaining(a); got != 48 {
		t.Fatalf("window 0 credit for A = %v, want 48", got)
	}
	if got := pl.CreditsRemaining(b); got != 16 {
		t.Fatalf("window 0 credit for B = %v, want 16", got)
	}
	for i := 0; i < 48; i++ {
		if !pl.Admit(a).Admitted {
			t.Fatalf("request %d rejected inside window 0's grant", i)
		}
	}
	if pl.Admit(a).Admitted {
		t.Fatal("admitted past window 0's grant")
	}
	if admits, rejects := pl.Counts(); admits != 48 || rejects != 1 {
		t.Fatalf("counts = %d/%d, want 48/1", admits, rejects)
	}
}

// TestWindowZeroSpentCarriesNothing pins where window 0's leftover goes. The
// spare pool starts retired with nothing left over, so the first boundary
// carries nothing (an armed-then-retired spare would hand it window 0's
// grant as phantom carry); window 0's own pool retires there, and its
// leftover — none for A, which spent it all — funds the second boundary.
func TestWindowZeroSpentCarriesNothing(t *testing.T) {
	pl, _, a, b := communityPlane(t, 4)
	for pl.Admit(a).Admitted {
	}
	// No global view: both boundaries are blind, granting exactly 48 and 16.
	if err := pl.StartWindow(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ga, gb := pl.CreditsRemaining(a), pl.CreditsRemaining(b); ga != 48 || gb != 16 {
		t.Fatalf("window 1 credit A/B = %v/%v, want 48/16 (no carry yet)", ga, gb)
	}
	if err := pl.StartWindow(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ga, gb := pl.CreditsRemaining(a), pl.CreditsRemaining(b); ga != 48 || gb != 16+1 {
		t.Fatalf("window 2 credit A/B = %v/%v, want 48/17 (window 0 carried 0 for A, 1 for B)", ga, gb)
	}
}

func TestProviderAdmitsWithinCredits(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 4)
	warm(t, pl, red, []float64{0, 64, 16}, 3)
	// With B at its floor, A's grant is its mandatory share: 0.8 × 64
	// credits/window = 51.2 (scaled by the local demand fraction). Those
	// must be spendable through the shards nearly in full, and demand far
	// beyond them must bounce.
	got := 0
	for i := 0; i < 64; i++ {
		if pl.Admit(a).Admitted {
			got++
		}
	}
	if got < 45 {
		t.Fatalf("admitted %d of 64, want ≈51 (A's floor share)", got)
	}
	over := 0
	for i := 0; i < 200; i++ {
		if pl.Admit(a).Admitted {
			over++
		}
	}
	if over > 8 {
		t.Fatalf("admitted %d requests beyond the window grant", over)
	}
}

// TestShardFragmentsAreGathered pins the conformance property the steal
// sweep exists for: credits split over many shards must stay spendable even
// when every per-shard cell holds less than one request.
func TestShardFragmentsAreGathered(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 16)
	warm(t, pl, red, []float64{0, 24, 8}, 3)
	// 24 credits/window over 16 shards = 1.5 per cell; a naive
	// single-cell-draw design admits at most 16 and strands the rest.
	got := 0
	for i := 0; i < 24; i++ {
		if pl.Admit(a).Admitted {
			got++
		}
	}
	if got < 22 {
		t.Fatalf("admitted %d of 24: shard fragmentation stranded credit", got)
	}
}

func TestCommunityPreferredOwnerSticks(t *testing.T) {
	pl, red, a, b := communityPlane(t, 4)
	// A's demand (48/window) exceeds its own 32-credit server, so the plan
	// must spill A onto B's shared half; a preference for owner B is then
	// honored while B-credit lasts.
	warm(t, pl, red, []float64{48, 8}, 3)
	d := pl.AdmitPreferring(a, b)
	if !d.Admitted {
		t.Fatal("preferred admit rejected despite credit")
	}
	if d.Owner != b {
		t.Fatalf("owner = %v, want preferred %v", d.Owner, b)
	}
}

func TestDryPrincipalShortCircuits(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 4)
	warm(t, pl, red, []float64{0, 64, 16}, 3)
	for i := 0; i < 400; i++ {
		pl.Admit(a)
	}
	stealsWhenDry := pl.Steals()
	for i := 0; i < 100; i++ {
		if pl.Admit(a).Admitted {
			t.Fatal("admitted after principal ran dry")
		}
	}
	if pl.Steals() != stealsWhenDry {
		t.Fatal("dry principal still swept shards for credit")
	}
}

// TestFoldDeliversArrivals checks the window boundary hands the core
// redirector the shards' arrival counts — the estimator must see sharded
// demand exactly as it saw serialized demand.
func TestFoldDeliversArrivals(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pl.Admit(a)
			}
		}()
	}
	wg.Wait()
	if err := pl.StartWindow(0); err != nil {
		t.Fatal(err)
	}
	// EWMA with alpha folds 200 arrivals into the estimate once.
	est := red.LocalEstimate()
	if est[a] < 100 {
		t.Fatalf("estimate[a] = %v after 200 arrivals, want majority folded", est[a])
	}
	// Every decision reached the scheduler, split as the shards made it
	// against window 0's grant.
	admits, rejects := pl.Counts()
	if red.Admitted+red.Rejected != 200 || uint64(red.Admitted) != admits || uint64(red.Rejected) != rejects {
		t.Fatalf("folded %d admits + %d rejects, shards counted %d + %d of 200",
			red.Admitted, red.Rejected, admits, rejects)
	}
}

// TestConcurrentAdmitWindowSwap hammers admissions from many goroutines
// while the window boundary keeps flipping pools, then checks conservation:
// admissions per window never exceed the scheduler's grant plus carry. Run
// with -race this is the interleaving test the CI race step exists for.
func TestConcurrentAdmitWindowSwap(t *testing.T) {
	pl, red, a, b := providerPlane(t, 8)
	const workers = 8
	var stop atomic.Bool
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				p := a
				if g%2 == 1 {
					p = b
				}
				if pl.Admit(p).Admitted {
					admitted.Add(1)
				}
			}
		}(g)
	}
	demand := []float64{0, 256, 64}
	now := time.Duration(0)
	const windows = 60
	for w := 0; w < windows; w++ {
		red.SetGlobal(demand, now)
		if err := pl.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		now += time.Millisecond
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()

	// Provider capacity is 640 req/s × 100 ms = 64 credits/window; with
	// carry (≤1 per principal per window) total admissions over window 0 and
	// the windows after it are bounded by (windows + 1) × (64 + 2). The
	// bound fails loudly if pool swaps double-count credits or resurrect
	// retired pools.
	limit := float64(windows+1) * (64 + 2)
	if got := float64(admitted.Load()); got > limit {
		t.Fatalf("admitted %v requests over %d windows, conservation bound %v", got, windows, limit)
	}
	if admitted.Load() == 0 {
		t.Fatal("no admissions at all — plane wedged")
	}
	_ = red
}

// TestLeftoverCreditDoesNotCompound checks the retired pool's unspent
// credit re-enters through the scheduler's ≤1-request carry clamp: idle
// windows must not let leftovers accumulate into a burst allowance.
func TestLeftoverCreditDoesNotCompound(t *testing.T) {
	pl, red, _, _ := providerPlane(t, 4)
	warm(t, pl, red, []float64{0, 64, 16}, 3)
	before := pl.CreditsRemaining(1)
	if before < 32 {
		t.Fatalf("warmed credits = %v, want a substantial grant", before)
	}
	// Two idle boundaries: pool leftovers flow retire → import → carry.
	red.SetGlobal([]float64{0, 64, 16}, 400*time.Millisecond)
	if err := pl.StartWindow(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	red.SetGlobal([]float64{0, 64, 16}, 500*time.Millisecond)
	if err := pl.StartWindow(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := pl.CreditsRemaining(1)
	// The idle windows decay the demand estimate (and with it the grant) —
	// that part is the estimator working as designed. What must NOT happen
	// is the ~50 unspent credits of the retired pools surviving the carry
	// clamp and stacking on top of the fresh grant.
	if after > before+3 {
		t.Fatalf("credits grew from %v to %v: leftover credit compounds", before, after)
	}
	if after < 1 {
		t.Fatalf("credits collapsed to %v: grant (plus carry) lost entirely", after)
	}
}

func TestCountsFoldShards(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 8)
	warm(t, pl, red, []float64{0, 64, 16}, 3)
	for i := 0; i < 100; i++ {
		pl.Admit(a)
	}
	admits, rejects := pl.Counts()
	if admits+rejects < 100 {
		t.Fatalf("counts %d+%d lost decisions", admits, rejects)
	}
	if admits == 0 {
		t.Fatal("no admits counted")
	}
}

// TestLeaseCreditFlowsThroughShards pins the admission half of the lease
// plane: credit deposited from a lease in the engine's agreement set
// (core.Engine.StageSet) must be exported into the shard pools at every window swap and stay
// spendable window after window, on top of the holder's planned share.
func TestLeaseCreditFlowsThroughShards(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)
	e, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 100 * time.Millisecond, NumRedirectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	red := e.NewRedirector(0)
	pl, err := New(Config{Redirector: red, Engine: e, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// B holds a 100 req/s lease: 10 requests per 100 ms window on top of
	// its planned 0.2 × 64 = 12.8.
	stage := func(v uint64, leases ...agreement.SetLease) {
		set := s.Clone().Snapshot(v)
		set.Leases = leases
		if _, err := e.StageSet(set, 0); err != nil {
			t.Fatal(err)
		}
	}
	stage(1, agreement.SetLease{Holder: b, Owner: sp, Rate: 100})
	demand := []float64{0, 64, 30}
	warm(t, pl, red, demand, 5)

	now := 500 * time.Millisecond
	for w := 0; w < 3; w++ {
		gotB := 0
		for i := 0; i < int(demand[int(b)]); i++ {
			if pl.Admit(b).Admitted {
				gotB++
			}
		}
		for i := 0; i < int(demand[int(a)]); i++ {
			pl.Admit(a)
		}
		// Planned 12.8 plus leased 10 ≈ 23 spendable; without the lease B
		// could never clear 14 even with the one-request carry.
		if gotB < 18 || gotB > 26 {
			t.Fatalf("window %d: B admitted %d of 30, want ≈23 (12.8 plan + 10 lease)", w, gotB)
		}
		red.SetGlobal(demand, now)
		if err := pl.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		now += 100 * time.Millisecond
	}

	// A set without the lease drops B back to its planned share at the
	// next swap.
	stage(2)
	red.SetGlobal(demand, now)
	if err := pl.StartWindow(now); err != nil {
		t.Fatal(err)
	}
	gotB := 0
	for i := 0; i < int(demand[int(b)]); i++ {
		if pl.Admit(b).Admitted {
			gotB++
		}
	}
	if gotB > 15 {
		t.Fatalf("B admitted %d after lease cleared, want ≤ 14 (planned share + carry)", gotB)
	}
}

// TestCommunityStealAndRejectAllocs pins the request path past the local
// cell: the steal sweep (preferred owner first, then the rest) and the
// reject it ends in allocate nothing. 16 shards fragment 48 credits below
// unit cost, so admits gather across shards; cost-2 requests never
// short-circuit on the dry flag, so every one of them is a full sweep.
func TestCommunityStealAndRejectAllocs(t *testing.T) {
	pl, red, a, b := communityPlane(t, 16)
	warm(t, pl, red, []float64{48, 8}, 3)
	steals := pl.Steals()
	rejected := 0
	allocs := testing.AllocsPerRun(300, func() {
		if !pl.Admit(a).Admitted {
			rejected++
		}
		if !pl.AdmitCost(a, b, 2).Admitted {
			rejected++
		}
	})
	if allocs != 0 {
		t.Fatalf("Admit allocates %v times per call pair on the steal/reject path", allocs)
	}
	if pl.Steals() == steals || rejected < 100 {
		t.Fatalf("path not exercised: %d steals, %d rejects", pl.Steals()-steals, rejected)
	}
}
