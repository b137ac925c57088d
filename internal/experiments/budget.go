package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// budgetLead is the rollout gate lead used by ext-budget. Lease grant and
// revocation ride the same epoch-gated rollout as any renegotiation, so the
// reclaim bound is lead+1 windows: the capacity change is staged behind an
// epoch gate of lead windows and every redirector swaps at the next window
// boundary past it.
const budgetLead = 2

// budgetOutcome is everything one ext-budget run produces: the figure data,
// the owner's published capacity sampled one reclaim bound after the grant
// and after the revocation, and the under-floor checkpoints.
type budgetOutcome struct {
	sm *sim.Sim
	// S's published capacity sampled reclaim-bound windows after the grant
	// (must be nominal minus the leased rate) and after the revocation
	// (must be nominal again).
	capAfterGrant, capAfterRevoke float64
	reclaimBound                  int
	leaseVersion                  uint64
	// Under-floor counters: every phase's count is a delta from its own
	// settled mark, so EWMA warm-up and rollout transients are excluded.
	warmA1, warmA2, warmB                            int64
	burstA1, burstA2, burstB                         int64
	leasedMarkA1, leasedMarkA2, leasedMarkB          int64
	leasedA1, leasedA2, leasedB                      int64
	reclaimedMarkA1, reclaimedMarkA2, reclaimedMarkB int64
}

// runBudget executes one deterministic hierarchical-budget run. Provider S
// (160 req/s) delegates through a budget tree compiled by internal/budget:
// team T1 holds [0.5, 1] and splits it between services A1 and A2 ([0.5, 1]
// each — 40 req/s floors), tenant B holds [0.25, 1] (40 floor), and S keeps
// the last quarter unallocated. C is a principal with no standing agreement
// — a batch tenant that can only run on leased capacity.
//
// Phase 1 (0–40 s): A1 bursts to 300 req/s while A2 sits at its floor and B
// under it; A1 borrows every idle share but cannot push A2 under 40. At
// t=40 s the control plane grants C a 40 req/s lease out of S's unallocated
// quarter and C starts long-lived work; the set-aside rolls out within the
// reclaim bound and C runs entirely on lease credit. At t=80 s the lease is
// revoked mid-run: C's credit vanishes, S's published capacity is restored
// within reclaim-bound windows, and A1 re-absorbs the idle share.
func runBudget() (*budgetOutcome, uint64, error) {
	spec := budget.Spec{Roots: []budget.Node{{
		Name: "S", Capacity: 160,
		Children: []budget.Node{
			{Name: "T1", Floor: 0.5, Ceil: 1, Children: []budget.Node{
				{Name: "A1", Floor: 0.5, Ceil: 1},
				{Name: "A2", Floor: 0.5, Ceil: 1},
			}},
			{Name: "B", Floor: 0.25, Ceil: 1},
		},
	}}}
	s, err := budget.Compile(spec)
	if err != nil {
		return nil, 0, err
	}
	c := s.MustAddPrincipal("C", 0)
	sp, _ := s.Lookup("S")
	a1, _ := s.Lookup("A1")
	a2, _ := s.Lookup("A2")
	b, _ := s.Lookup("B")

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
		},
		Redirectors: 2,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 80, Count: 2}},
		Names:       []string{"S", "T1", "A1", "A2", "B", "C"},
		MaxBacklog:  200,
	})
	if err != nil {
		return nil, 0, err
	}
	plane, err := sm.EnableControlPlane(budgetLead)
	if err != nil {
		return nil, 0, err
	}
	sm.NewClient(0, workload.Config{Principal: int(a1), Rate: 300}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(a2), Rate: 40}).SetActive(true)
	sm.NewClient(0, workload.Config{Principal: int(b), Rate: 30}).SetActive(true)
	batch := sm.NewClient(1, workload.Config{Principal: int(c), Rate: 40})

	out := &budgetOutcome{sm: sm, reclaimBound: plane.ReclaimBound()}
	window := sm.Redirectors[0].Engine().Window()
	bound := time.Duration(out.reclaimBound) * window

	var leaseID budget.LeaseID
	sm.At(settle, func() {
		out.warmA1 = sm.Auditor.UnderMC(int(a1))
		out.warmA2 = sm.Auditor.UnderMC(int(a2))
		out.warmB = sm.Auditor.UnderMC(int(b))
	})
	sm.At(39*time.Second, func() {
		out.burstA1 = sm.Auditor.UnderMC(int(a1)) - out.warmA1
		out.burstA2 = sm.Auditor.UnderMC(int(a2)) - out.warmA2
		out.burstB = sm.Auditor.UnderMC(int(b)) - out.warmB
	})
	// The grant: C leases 30 req/s of S's capacity over the same API an
	// operator would hit (Plane.GrantLease is what POST /v1/leases calls),
	// and starts its long-lived work on the leased credit.
	sm.At(40*time.Second, func() {
		ls, err := plane.GrantLease("S", "C", 40, 0)
		if err != nil {
			panic(fmt.Sprintf("ext-budget: grant rejected: %v", err))
		}
		leaseID = ls.ID
		batch.SetActive(true)
	})
	// One reclaim bound past the grant, the set-aside has rolled out to the
	// member that serves C, away from the control-plane host.
	sm.At(40*time.Second+bound+window/2, func() {
		out.capAfterGrant = sm.Redirectors[1].Engine().Capacities()[sp]
	})
	sm.At(40*time.Second+2*settle, func() {
		out.leasedMarkA1 = sm.Auditor.UnderMC(int(a1))
		out.leasedMarkA2 = sm.Auditor.UnderMC(int(a2))
		out.leasedMarkB = sm.Auditor.UnderMC(int(b))
	})
	sm.At(79*time.Second, func() {
		out.leasedA1 = sm.Auditor.UnderMC(int(a1)) - out.leasedMarkA1
		out.leasedA2 = sm.Auditor.UnderMC(int(a2)) - out.leasedMarkA2
		out.leasedB = sm.Auditor.UnderMC(int(b)) - out.leasedMarkB
	})
	// The mid-run revocation. C keeps demanding; without credit its work is
	// cut off and the capacity flows back to the agreement plane.
	sm.At(80*time.Second, func() {
		if _, err := plane.RevokeLease(leaseID); err != nil {
			panic(fmt.Sprintf("ext-budget: revoke rejected: %v", err))
		}
	})
	sm.At(80*time.Second+bound+window/2, func() {
		out.capAfterRevoke = sm.Redirectors[1].Engine().Capacities()[sp]
	})
	sm.At(80*time.Second+2*settle, func() {
		out.reclaimedMarkA1 = sm.Auditor.UnderMC(int(a1))
		out.reclaimedMarkA2 = sm.Auditor.UnderMC(int(a2))
		out.reclaimedMarkB = sm.Auditor.UnderMC(int(b))
	})

	sm.Run(120 * time.Second)
	out.leaseVersion = plane.LeaseTable().Version
	return out, sm.Digest(math.Float64bits(out.capAfterGrant),
		math.Float64bits(out.capAfterRevoke), out.leaseVersion), nil
}

// ExtBudget is the hierarchical-budget experiment: entitlements fold down a
// declarative org→team→service budget tree (internal/budget) instead of a
// flat agreement list, and a lease carries capacity to a principal with no
// standing agreement. A1's 300 req/s burst soaks every idle share but a
// settled window never serves sibling A2 (or tenant B) under its floor; a
// mid-run 40 req/s lease to batch tenant C sets the rate aside out of S's
// published capacity within reclaim-bound windows and C runs on lease
// credit alone; revocation cuts C off and restores S's capacity within the
// same bound. The whole run replays bit-identically: the experiment
// executes twice and compares digests.
func ExtBudget() (*Result, error) {
	first, replayIdentical, err := replayed(runBudget)
	if err != nil {
		return nil, err
	}
	sm := first.sm
	aud := sm.Auditor
	res := &Result{
		ID:       "ext-budget",
		Title:    "Hierarchical budgets: tree floors under burst, lease grant and reclaim",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("burst", 0, 40*time.Second, settle),
			trim("leased", 40*time.Second, 80*time.Second, settle),
			trim("reclaimed", 80*time.Second, 120*time.Second, settle),
		},
		Values: map[string]float64{
			"set-aside@capacity":       first.capAfterGrant,
			"restored@capacity":        first.capAfterRevoke,
			"bound@reclaim":            float64(first.reclaimBound),
			"version@leases":           float64(first.leaseVersion),
			"mixed-version@windows":    float64(aud.MixedVersion()),
			"A1-under-floor@burst":     float64(first.burstA1),
			"A2-under-floor@burst":     float64(first.burstA2),
			"B-under-floor@burst":      float64(first.burstB),
			"A1-under-floor@leased":    float64(first.leasedA1),
			"A2-under-floor@leased":    float64(first.leasedA2),
			"B-under-floor@leased":     float64(first.leasedB),
			"A1-under-floor@reclaimed": float64(aud.UnderMC(2) - first.reclaimedMarkA1),
			"A2-under-floor@reclaimed": float64(aud.UnderMC(3) - first.reclaimedMarkA2),
			"B-under-floor@reclaimed":  float64(aud.UnderMC(4) - first.reclaimedMarkB),
			"identical@replay":         replayIdentical,
		},
		Expected: []Expectation{
			// Tree floors: A1 = A2 = 160·0.5·0.5 = 40, B = 160·0.25 = 40,
			// S keeps the last 40 unallocated. A1's burst takes its floor
			// plus every idle share (S's 40, B's 10): 90. A2 holds its
			// floor exactly; B is served its full sub-floor demand.
			{Phase: "burst", Series: "A1", Paper: 90},
			{Phase: "burst", Series: "A2", Paper: 40},
			{Phase: "burst", Series: "B", Paper: 30},
			{Phase: "burst", Series: "C", Paper: 0, AbsTol: 2},
			// Leased: C runs 40 req/s purely on lease credit; the set-aside
			// shrinks the tree's published floors to 3/4 (30 each) and the
			// window LP hands the optional surplus to the burst, so A2
			// settles at its shrunken floor and A1 at 60.
			{Phase: "leased", Series: "C", Paper: 40},
			{Phase: "leased", Series: "B", Paper: 30},
			{Phase: "leased", Series: "A2", Paper: 30},
			{Phase: "leased", Series: "A1", Paper: 60},
			// Reclaimed: revocation cuts C off mid-demand and A1 re-absorbs
			// the freed share.
			{Phase: "reclaimed", Series: "A1", Paper: 90},
			{Phase: "reclaimed", Series: "A2", Paper: 40},
			{Phase: "reclaimed", Series: "B", Paper: 30},
			{Phase: "reclaimed", Series: "C", Paper: 0, AbsTol: 2},
			// The set-aside and the reclaim both land within reclaim-bound
			// windows of the mutation.
			{Phase: "capacity", Series: "set-aside", Paper: 120, AbsTol: 0.1},
			{Phase: "capacity", Series: "restored", Paper: 160, AbsTol: 0.1},
			{Phase: "reclaim", Series: "bound", Paper: float64(budgetLead + 1), AbsTol: 0.1},
			{Phase: "leases", Series: "version", Paper: 2, AbsTol: 0.1},
			// No window anywhere mixed configuration versions, and no
			// settled window served a tree principal under its floor.
			{Phase: "windows", Series: "mixed-version", Paper: 0, AbsTol: 0.1},
			{Phase: "burst", Series: "A1-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "burst", Series: "A2-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "burst", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "leased", Series: "A1-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "leased", Series: "A2-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "leased", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "reclaimed", Series: "A1-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "reclaimed", Series: "A2-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "reclaimed", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			// Bit-identical replay: same digests across two full runs.
			{Phase: "replay", Series: "identical", Paper: 1, AbsTol: 0.01},
		},
		Notes: []string{
			"budget tree S(160) → {T1[0.5]{A1[0.5], A2[0.5]}, B[0.25]}; floors A1=A2=B=40, S keeps 40",
			fmt.Sprintf("lease mutations ride the epoch-gated rollout: reclaim bound %d windows (lead %d + 1)",
				first.reclaimBound, budgetLead),
			"C holds no agreement — every request it runs mid-lease is admitted on lease credit alone",
		},
	}
	return res, nil
}
