package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestLeaseReachesNonRootMember: the control plane runs on the tree root
// while the lease holder's demand arrives only at the other member. The
// lease rides the published agreement set to that member's own engine,
// which holds the credit within ReclaimBound() windows of the grant and
// admits the leased rate.
func TestLeaseReachesNonRootMember(t *testing.T) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	a := s.MustAddPrincipal("A", 0)
	c := s.MustAddPrincipal("C", 0) // no agreement: lease credit only
	s.MustSetAgreement(sp, a, 0.5, 1)
	sm, err := New(Config{
		Engine:      core.Config{Mode: core.Provider, System: s, ProviderPrincipal: sp, NumRedirectors: 2},
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 200, Count: 1}},
		Names:       []string{"S", "A", "C"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := sm.EnableControlPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	if !sm.Redirectors[0].Tree().IsRoot() {
		t.Fatal("the control plane is not on redirector 0")
	}
	sm.NewClient(1, workload.Config{Principal: int(c), Rate: 80}).SetActive(true)

	const grant, rate = 5 * time.Second, 40.0
	sm.At(grant, func() {
		if _, err := plane.GrantLease("S", "C", rate, 0); err != nil {
			t.Error(err)
		}
	})
	holder := sm.Redirectors[1].Engine()
	bound := time.Duration(plane.ReclaimBound()) * holder.Window()
	var credit []float64
	sm.At(grant+bound+holder.Window()/2, func() { credit = holder.LeaseCredits() })
	sm.Run(grant + 3*time.Second)

	if credit == nil || credit[c] != rate {
		t.Fatalf("member 1's lease credit %v within %d windows of the grant, want %v req/s for C",
			credit, plane.ReclaimBound(), rate)
	}
	if before := sm.Admit.MeanRateBetween(int(c), time.Second, grant); before != 0 {
		t.Fatalf("C admitted %.1f req/s before its lease", before)
	}
	if got := sm.Admit.MeanRateBetween(int(c), grant+time.Second, grant+3*time.Second); math.Abs(got-rate) > 2 {
		t.Fatalf("C admitted %.1f req/s at member 1 on its lease, want %v", got, rate)
	}
}
