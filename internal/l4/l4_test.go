package l4

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/treenet"
)

func TestBackendServesAndLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	b, err := NewBackend("127.0.0.1:0", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ok, err := Do(b.Addr(), "GET /x", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("Do = %v, %v", ok, err)
	}
	start := time.Now()
	for i := 0; i < 20; i++ {
		if ok, err := Do(b.Addr(), "GET /x", 5*time.Second); err != nil || !ok {
			t.Fatalf("request %d: %v %v", i, ok, err)
		}
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("20 requests at 100/s finished in %v", el)
	}
	if b.Served() != 21 {
		t.Fatalf("Served = %d", b.Served())
	}
}

func TestBackendRejectsBadCapacity(t *testing.T) {
	if _, err := NewBackend("127.0.0.1:0", -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestRedirectorConfigErrors(t *testing.T) {
	if _, err := NewRedirector(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 10)
	eng, err := core.NewEngine(core.Config{Mode: core.Provider, System: s, ProviderPrincipal: sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRedirector(Config{Engine: eng}); err == nil {
		t.Fatal("missing services accepted")
	}
}

// communityRig builds the Figure 9 community at 1/4 scale: A and B own
// 80 req/s backends, B shares [0.5, 0.5] with A.
func communityRig(t *testing.T) (*Redirector, *Backend, *Backend, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 80)
	b := s.MustAddPrincipal("B", 80)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode:           core.Community,
		System:         s,
		NumRedirectors: 1,
		Window:         20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := NewBackend("127.0.0.1:0", 80)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ba.Close() })
	bb, err := NewBackend("127.0.0.1:0", 80)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bb.Close() })

	r, err := NewRedirector(Config{
		Engine: eng,
		Services: []ServiceSpec{
			{Principal: a, Addr: "127.0.0.1:0"},
			{Principal: b, Addr: "127.0.0.1:0"},
		},
		Backends: map[agreement.Principal][]string{
			a: {ba.Addr()},
			b: {bb.Addr()},
		},
		PendingTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, ba, bb, a, b
}

// hammerL4 runs closed-loop connection generators against addr.
func hammerL4(wg *sync.WaitGroup, stop, warm *atomic.Bool, counter *int64, addr string, workers int) {
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ok, err := Do(addr, "GET /", 3*time.Second)
				if err != nil || !ok {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if warm.Load() {
					atomic.AddInt64(counter, 1)
				}
			}
		}()
	}
}

func TestCommunityEnforcementOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	r, _, _, a, b := communityRig(t)

	var wg sync.WaitGroup
	var stop, warm atomic.Bool
	var gotA, gotB int64
	hammerL4(&wg, &stop, &warm, &gotA, r.Addr(a), 6)
	hammerL4(&wg, &stop, &warm, &gotB, r.Addr(b), 6)

	time.Sleep(800 * time.Millisecond)
	warm.Store(true)
	const measure = 2 * time.Second
	time.Sleep(measure)
	stop.Store(true)
	wg.Wait()

	rateA := float64(gotA) / measure.Seconds()
	rateB := float64(gotB) / measure.Seconds()
	// Entitlements: A 120 (own 80 + half of B's), B 40.
	if rateA < 1.5*rateB {
		t.Fatalf("A/B = %.1f/%.1f, want A ≈ 3×B", rateA, rateB)
	}
	total := rateA + rateB
	if total < 90 || total > 200 {
		t.Fatalf("total = %.1f, want ≈160", total)
	}
	fwd, parked, _, _ := r.Stats()
	if fwd == 0 {
		t.Fatal("nothing forwarded")
	}
	_ = parked
}

func TestParkedConnectionsReinjected(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	r, _, _, a, _ := communityRig(t)
	// Burst connections faster than one window's credit: some park, then
	// complete in later windows rather than being refused.
	var wg sync.WaitGroup
	var okCount int64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, err := Do(r.Addr(a), "GET /burst", 4*time.Second); err == nil && ok {
				atomic.AddInt64(&okCount, 1)
			}
		}()
	}
	wg.Wait()
	if okCount < 10 {
		t.Fatalf("only %d/12 burst connections completed", okCount)
	}
	_, parked, _, _ := r.Stats()
	if parked == 0 {
		t.Skip("burst admitted without parking on this machine")
	}
}

func TestTwoRedirectorsCoordinateOverTree(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	// Provider with one 160 req/s backend; A [0.75,1] arrives at r0's
	// listener, B [0.25,1] at r1's. Enforcement must hold across the two
	// admission points via the TCP combining tree.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 160)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.75, 1)
	s.MustSetAgreement(sp, b, 0.25, 1)
	bk, err := NewBackend("127.0.0.1:0", 240)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()

	backends := map[agreement.Principal][]string{sp: {bk.Addr()}}
	newRed := func(id int, p agreement.Principal, parent int, children []int) *Redirector {
		spec := &treenet.Spec{NodeID: combining.NodeID(id), Parent: combining.NodeID(parent)}
		for _, c := range children {
			spec.Children = append(spec.Children, combining.NodeID(c))
		}
		// Each redirector runs its own engine, as separate processes do.
		eng, err := core.NewEngine(core.Config{
			Mode: core.Provider, System: s.Clone(), ProviderPrincipal: sp,
			NumRedirectors: 2, Window: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRedirector(Config{
			Engine:   eng,
			ID:       id,
			Services: []ServiceSpec{{Principal: p, Addr: "127.0.0.1:0"}},
			Backends: backends,
			Tree:     spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	r0 := newRed(0, a, -1, []int{1})
	r1 := newRed(1, b, 0, nil)
	r0.SetTreePeer(1, r1.TreeAddr())
	r1.SetTreePeer(0, r0.TreeAddr())

	var wg sync.WaitGroup
	var stop, warm atomic.Bool
	var gotA, gotB int64
	hammerL4(&wg, &stop, &warm, &gotA, r0.Addr(a), 6)
	hammerL4(&wg, &stop, &warm, &gotB, r1.Addr(b), 6)
	time.Sleep(time.Second)
	warm.Store(true)
	const measure = 2 * time.Second
	time.Sleep(measure)
	stop.Store(true)
	wg.Wait()

	rateA := float64(gotA) / measure.Seconds()
	rateB := float64(gotB) / measure.Seconds()
	if rateB > 75 {
		t.Fatalf("B = %.1f req/s through its own redirector, exceeds its ≈40 entitlement plus slack", rateB)
	}
	if rateA < rateB {
		t.Fatalf("A (%.1f) below B (%.1f) despite 3× mandatory share", rateA, rateB)
	}
}

func TestPendingTimeoutExpiresConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	// An engine whose only principal has zero entitlement: every connection
	// parks and must expire.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 10)
	cust := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, cust, 0, 0.001)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bk, err := NewBackend("127.0.0.1:0", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	r, err := NewRedirector(Config{
		Engine:         eng,
		Services:       []ServiceSpec{{Principal: cust, Addr: "127.0.0.1:0"}},
		Backends:       map[agreement.Principal][]string{sp: {bk.Addr()}},
		PendingTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if ok, _ := Do(r.Addr(cust), "GET /", 600*time.Millisecond); ok {
		t.Fatal("zero-entitlement principal served")
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, _, expired := r.Stats(); expired > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("parked connection never expired")
}

func TestBackendDeathReparksAndFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	// Provider S owns two backends; one dies mid-run. Admitted connections
	// whose dial fails must be re-parked (and complete on a later window)
	// rather than silently dropped, the health checker must take the dead
	// backend out of rotation, and service must continue on the survivor.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	cust := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, cust, 0.9, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewBackend("127.0.0.1:0", 200)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := NewBackend("127.0.0.1:0", 200)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	r, err := NewRedirector(Config{
		Engine:         eng,
		Services:       []ServiceSpec{{Principal: cust, Addr: "127.0.0.1:0"}},
		Backends:       map[agreement.Principal][]string{sp: {b1.Addr(), b2.Addr()}},
		PendingTimeout: 2 * time.Second,
		Health: &health.Options{
			Interval:         50 * time.Millisecond,
			Timeout:          200 * time.Millisecond,
			FailThreshold:    2,
			SuccessThreshold: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Warm up: both backends reachable.
	for i := 0; i < 4; i++ {
		if ok, err := Do(r.Addr(cust), "GET /warm", 3*time.Second); err != nil || !ok {
			t.Fatalf("warm-up request %d: %v %v", i, ok, err)
		}
	}

	b1.Close() // kill one backend mid-run

	// Keep offering traffic; dials to the dead backend re-park, the checker
	// trips, and requests keep completing via the survivor.
	served := 0
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if ok, err := Do(r.Addr(cust), "GET /after", 3*time.Second); err == nil && ok {
			served++
		}
		fails, reparked := r.DialStats()
		if served >= 5 && fails > 0 && reparked > 0 {
			return
		}
	}
	fails, reparked := r.DialStats()
	t.Fatalf("after backend death: served=%d dialFailures=%d reparked=%d",
		served, fails, reparked)
}

func TestAffinityPinsClientToOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	r, ba, bb, a, _ := communityRig(t)
	// A single client (one source IP) doing sequential requests should be
	// served predominantly by one owner while credits allow.
	for i := 0; i < 10; i++ {
		if ok, err := Do(r.Addr(a), "GET /aff", 3*time.Second); err != nil || !ok {
			t.Fatalf("request %d failed: %v %v", i, ok, err)
		}
	}
	servedA, servedB := ba.Served(), bb.Served()
	if servedA+servedB < 10 {
		t.Fatalf("backends served %d+%d", servedA, servedB)
	}
	if servedA != 0 && servedB != 0 {
		// Both sides used: acceptable when credits forced a fallback, but
		// the majority must sit with one owner.
		major := servedA
		if servedB > major {
			major = servedB
		}
		if float64(major) < 0.7*float64(servedA+servedB) {
			t.Fatalf("affinity too weak: %d vs %d", servedA, servedB)
		}
	}
}
