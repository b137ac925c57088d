package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/treenet"
)

// TestLeaseReachesNonRootNode: two nodes, each on its own engine, joined by
// a loopback combining tree, with the control plane on the root and the
// lease holder's demand only at the leaf. The lease rides the published
// agreement set to the leaf's engine, which holds the credit within
// ReclaimBound() windows of the grant and admits the leased rate.
func TestLeaseReachesNonRootNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const window, rate = 20 * time.Millisecond, 100.0
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	a := s.MustAddPrincipal("A", 0)
	c := s.MustAddPrincipal("C", 0) // no agreement: lease credit only
	s.MustSetAgreement(sp, a, 0.5, 1)
	nodes := make([]*Node, 2)
	for i := range nodes {
		eng, err := core.NewEngine(core.Config{
			Mode: core.Provider, System: s.Clone(), ProviderPrincipal: sp,
			NumRedirectors: 2, Window: window, Logger: obs.Nop(),
		})
		if err != nil {
			t.Fatal(err)
		}
		tree := &treenet.Spec{NodeID: 0, Parent: -1, Children: []combining.NodeID{1}}
		if i == 1 {
			tree = &treenet.Spec{NodeID: 1, Parent: 0}
		}
		n, err := New(Config{Layer: "test", Engine: eng, ID: i, Tree: tree, Ctrl: i == 0, CtrlLead: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	root, leaf := nodes[0], nodes[1]
	root.SetTreePeer(1, leaf.TreeAddr())
	leaf.SetTreePeer(0, root.TreeAddr())
	for _, n := range nodes {
		n.Start(func(error) {})
	}

	// C offers one request every 2 ms at the leaf.
	var admitted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if leaf.Admission().Admit(c).Admitted {
					admitted.Add(1)
				}
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitUntil("the leaf's global view", func() bool { _, _, ok := leaf.WindowStats(); return ok })
	if got := admitted.Load(); got != 0 {
		t.Fatalf("C admitted %d requests before its lease", got)
	}

	plane := root.Plane()
	before, _, _ := leaf.WindowStats()
	if _, err := plane.GrantLease("S", "C", rate, 0); err != nil {
		t.Fatal(err)
	}
	holder := leaf.cfg.Engine
	waitUntil("the leaf's lease credit", func() bool {
		lc := holder.LeaseCredits()
		return lc != nil && lc[c] == rate
	})
	// One window of slack: the grant lands inside a window already counted.
	if after, _, _ := leaf.WindowStats(); after-before > plane.ReclaimBound()+1 {
		t.Fatalf("the leaf took %d windows to hold the lease, bound %d", after-before, plane.ReclaimBound())
	}
	start, n0 := time.Now(), admitted.Load()
	time.Sleep(25 * window)
	got := float64(admitted.Load()-n0) / time.Since(start).Seconds()
	if got < 0.6*rate || got > 1.6*rate {
		t.Fatalf("the leaf admitted %.1f req/s for C on its lease, want ≈%v", got, rate)
	}
}
