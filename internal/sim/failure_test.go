package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/workload"
)

// failureRig builds a 3-redirector provider deployment with failure
// detection enabled.
func failureRig(t *testing.T) (*Sim, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.7, 1)
	s.MustSetAgreement(sp, b, 0.3, 1)
	sm, err := New(Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
			NumRedirectors:    3,
		},
		Redirectors:    3,
		Servers:        []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		FailureTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sm, a, b
}

func TestLeafFailureReconfigures(t *testing.T) {
	sm, a, b := failureRig(t)
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 200}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)
	// Client on the doomed redirector 2.
	c2 := sm.NewClient(2, workload.Config{Principal: int(b), Rate: 50})
	c2.SetActive(true)

	sm.Run(20 * time.Second)
	sm.FailRedirector(2)
	sm.Run(40 * time.Second)

	if sm.Reconfigurations == 0 {
		t.Fatal("failure never detected")
	}
	// The surviving tree must have exactly two members.
	g, _, ok := sm.Redirectors[0].Tree().ComponentGlobal(0)
	if !ok || g.Count != 2 {
		t.Fatalf("surviving aggregate count = %d (ok=%v), want 2", g.Count, ok)
	}
	// Enforcement continues among survivors: A 70/s, B 30/s.
	rateA := sm.Recorder.MeanRateBetween(int(a), 30*time.Second, 39*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 30*time.Second, 39*time.Second)
	if math.Abs(rateA-70) > 6 || math.Abs(rateB-30) > 6 {
		t.Fatalf("post-failure rates = %.1f/%.1f, want ≈70/30", rateA, rateB)
	}
}

func TestRootFailurePromotesNewRoot(t *testing.T) {
	sm, a, _ := failureRig(t)
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 150}).SetActive(true)
	sm.Run(20 * time.Second)

	if !sm.Redirectors[0].Tree().IsRoot() {
		t.Fatal("node 0 should start as root")
	}
	sm.FailRedirector(0)
	sm.Run(45 * time.Second)

	if sm.Reconfigurations == 0 {
		t.Fatal("root failure never detected")
	}
	var newRoot *combining.Forest
	for i := 1; i < 3; i++ {
		if sm.Redirectors[i].Tree().IsRoot() {
			newRoot = sm.Redirectors[i].Tree()
		}
	}
	if newRoot == nil {
		t.Fatal("no new root emerged")
	}
	// Broadcasts flow again: the new root's global view is fresh.
	_, at, ok := newRoot.ComponentGlobal(0)
	if !ok || at < 40*time.Second {
		t.Fatalf("new root global stale: at=%v ok=%v", at, ok)
	}
	// Enforcement still works for A through the surviving redirector: with
	// no competing demand A absorbs its full [0.7, 1.0] upper bound.
	rateA := sm.Recorder.MeanRateBetween(int(a), 35*time.Second, 44*time.Second)
	if math.Abs(rateA-100) > 8 {
		t.Fatalf("post-root-failure A = %.1f, want ≈100", rateA)
	}
}

func TestFailedRedirectorRefusesClients(t *testing.T) {
	sm, a, _ := failureRig(t)
	c := sm.NewClient(2, workload.Config{Principal: int(a), Rate: 100})
	c.SetActive(true)
	sm.Run(10 * time.Second)
	served := sm.Recorder.MeanRateBetween(int(a), 5*time.Second, 9*time.Second)
	if served < 50 {
		t.Fatalf("pre-failure rate = %.1f", served)
	}
	sm.FailRedirector(2)
	sm.Run(25 * time.Second)
	post := sm.Recorder.MeanRateBetween(int(a), 20*time.Second, 24*time.Second)
	if post > 5 {
		t.Fatalf("clients of a dead redirector still served at %.1f req/s", post)
	}
}

// TestRestartLeavesOutUndetectedFailure overlaps two failures: redirector 1
// dies just before the pruned redirector 2 restarts, too recently for
// failure detection to have removed it. The rebuilt tree must leave 1 out
// all the same, and the two live redirectors must aggregate through it.
func TestRestartLeavesOutUndetectedFailure(t *testing.T) {
	sm, a, _ := failureRig(t)
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 100}).SetActive(true)
	sm.Run(10 * time.Second)
	sm.FailRedirector(2)
	sm.Run(20 * time.Second)
	if sm.Plane().Alive(2) {
		t.Fatal("failure of redirector 2 never detected")
	}
	sm.FailRedirector(1)
	sm.RestartRedirector(2)
	pl := sm.Plane()
	if pl.Alive(1) || !pl.Alive(2) {
		t.Fatalf("restarted plane %s, want 1 left out and 2 back", pl)
	}
	if p2, _ := pl.Placement(2); p2.Parent != 0 {
		t.Fatalf("restarted redirector 2 under %d, want the root 0", p2.Parent)
	}
	sm.Run(30 * time.Second)
	g, at, ok := sm.Redirectors[0].Tree().ComponentGlobal(0)
	if !ok || g.Count != 2 || at < 25*time.Second {
		t.Fatalf("root aggregate count = %d at %v (ok=%v), want a fresh count of 2", g.Count, at, ok)
	}
}

func TestFailRedirectorBounds(t *testing.T) {
	sm, _, _ := failureRig(t)
	sm.FailRedirector(-1) // no-op
	sm.FailRedirector(99) // no-op
	sm.Run(time.Second)
	if sm.Reconfigurations != 0 {
		t.Fatal("phantom reconfiguration")
	}
}
