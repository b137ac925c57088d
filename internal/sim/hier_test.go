package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// hierRig builds a 6-redirector two-region provider deployment laid out
// hierarchically (east{0,1,2} and west{3,4,5} sub-trees under a global
// tier) with failure detection enabled.
func hierRig(t *testing.T) (*Sim, agreement.Principal, agreement.Principal) {
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
			NumRedirectors:    6,
		},
		Redirectors: 6,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Topology: &topology.Spec{
			Regions: []topology.Region{
				{Name: "east", Members: []int{0, 1, 2}},
				{Name: "west", Members: []int{3, 4, 5}},
			},
			Fanout: 2,
		},
		FailureTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sm, a, b
}

// TestHierarchicalLayoutMatchesPlane checks the sim wires redirectors to
// the compiled plane's placements rather than the flat BuildTree layout.
func TestHierarchicalLayoutMatchesPlane(t *testing.T) {
	sm, a, _ := hierRig(t)
	pl := sm.Plane()
	if pl == nil {
		t.Fatal("no plane on a topology config")
	}
	if got := pl.Levels(); got != 3 {
		t.Fatalf("levels = %d, want 3", got)
	}
	subroots := 0
	for _, id := range pl.Members() {
		p, _ := pl.Placement(id)
		if p.SubRoot {
			subroots++
		}
	}
	if subroots != 2 {
		t.Fatalf("sub-roots = %d, want 2", subroots)
	}
	// The plane must actually carry traffic: aggregates settle across
	// regions and enforcement converges.
	sm.NewClient(4, workload.Config{Principal: int(a), Rate: 150}).SetActive(true)
	sm.Run(30 * time.Second)
	g, _, ok := sm.Redirectors[5].Tree().ComponentGlobal(0)
	if !ok || g.Count != 6 {
		t.Fatalf("west leaf global count = %d (ok=%v), want 6", g.Count, ok)
	}
	rateA := sm.Recorder.MeanRateBetween(int(a), 20*time.Second, 29*time.Second)
	if math.Abs(rateA-100) > 8 {
		t.Fatalf("A = %.1f, want ≈100", rateA)
	}
}

// TestHierSubRootFailureRejoinsGlobalTier kills the west regional
// sub-root: the region's survivors must re-parent through the promoted
// member into the global tier — never sideways to an east leaf — and
// enforcement must keep converging on the survivors.
func TestHierSubRootFailureRejoinsGlobalTier(t *testing.T) {
	sm, a, b := hierRig(t)
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 200}).SetActive(true)
	sm.NewClient(4, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)
	sm.Run(20 * time.Second)

	if p, _ := sm.Plane().Placement(3); !p.SubRoot {
		t.Fatal("node 3 should start as the west sub-root")
	}
	sm.FailRedirector(3)
	sm.Run(45 * time.Second)

	if sm.Reconfigurations == 0 {
		t.Fatal("sub-root failure never detected")
	}
	pl := sm.Plane()
	if got := pl.Removed(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("removed = %v, want [3]", got)
	}
	p4, ok := pl.Placement(4)
	if !ok || !p4.SubRoot || p4.Parent != 0 {
		t.Fatalf("promoted west sub-root placement = %+v, want sub-root under global root 0", p4)
	}
	p5, _ := pl.Placement(5)
	if p5.Parent != 4 {
		t.Fatalf("west leaf parent = %d, want promoted sub-root 4 (re-parented sideways?)", p5.Parent)
	}
	// Survivors still aggregate all five members and broadcasts stay fresh
	// down in the repaired west region.
	g, at, ok := sm.Redirectors[5].Tree().ComponentGlobal(0)
	if !ok || g.Count != 5 {
		t.Fatalf("survivor aggregate count = %d (ok=%v), want 5", g.Count, ok)
	}
	if at < 40*time.Second {
		t.Fatalf("west leaf global stale after repair: at=%v", at)
	}
	// Enforcement continues: A 70/s, B 30/s among the survivors.
	rateA := sm.Recorder.MeanRateBetween(int(a), 35*time.Second, 44*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 35*time.Second, 44*time.Second)
	if math.Abs(rateA-70) > 6 || math.Abs(rateB-30) > 6 {
		t.Fatalf("post-failure rates = %.1f/%.1f, want ≈70/30", rateA, rateB)
	}
}

// TestHierSubRootRestartRestoresPlacement restarts the killed sub-root
// (no durable state: cold rejoin) and checks the plane is restored to the
// original placement.
func TestHierSubRootRestartRestoresPlacement(t *testing.T) {
	sm, a, _ := hierRig(t)
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 150}).SetActive(true)
	sm.Run(20 * time.Second)
	sm.FailRedirector(3)
	sm.Run(40 * time.Second)
	if got := sm.Plane().Removed(); len(got) != 1 {
		t.Fatalf("removed = %v, want [3]", got)
	}
	sm.RestartRedirector(3)
	sm.Run(60 * time.Second)

	pl := sm.Plane()
	if got := pl.Removed(); len(got) != 0 {
		t.Fatalf("removed after restart = %v, want none", got)
	}
	p3, ok := pl.Placement(3)
	if !ok || !p3.SubRoot || p3.Parent != 0 {
		t.Fatalf("restarted node placement = %+v, want west sub-root under 0", p3)
	}
	g, _, ok := sm.Redirectors[0].Tree().ComponentGlobal(0)
	if !ok || g.Count != 6 {
		t.Fatalf("post-restart aggregate count = %d (ok=%v), want 6", g.Count, ok)
	}
}
