package experiments

import (
	"fmt"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// hierOutcome is everything one ext-hier run produces: the figure data
// plus the plane's post-crash shape.
type hierOutcome struct {
	sm *sim.Sim
	// Promoted west sub-root placement after the crash.
	promotedParent  int
	promotedSubRoot bool
	// The remaining west leaf's parent (must be the promoted sub-root,
	// never a sibling leaf or a foreign region).
	leafParent int
	removed    int
	levels     int
	// Under-floor counters at the settled pre-crash mark and once the
	// repaired plane settled again.
	preA, preB, postA, postB int64
}

// runHier executes one deterministic hierarchical-plane run: six
// redirectors in two regions (east{0,1,2}, west{3,4,5}) under a global
// tier, provider S (100 req/s) with A [0.7,1] and B [0.3,1]. At t=60 s
// the west regional sub-root (node 3) is killed; the survivors must
// recompile the plane — promoting node 4 into the global tier — and keep
// the 70/30 split converged.
func runHier() (*hierOutcome, uint64, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.7, 1)
	s.MustSetAgreement(sp, b, 0.3, 1)
	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
			NumRedirectors:    6,
		},
		Redirectors: 6,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Topology: &topology.Spec{
			Regions: []topology.Region{
				{Name: "east", Members: []int{0, 1, 2}},
				{Name: "west", Members: []int{3, 4, 5}},
			},
			Fanout: 2,
		},
		Names:          []string{"S", "A", "B"},
		FailureTimeout: 2 * time.Second,
		MaxBacklog:     100,
	})
	if err != nil {
		return nil, 0, err
	}
	// A's demand lands on an east leaf, B's on a west leaf: post-crash
	// convergence needs aggregates to cross the repaired global tier.
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 200}).SetActive(true)
	sm.NewClient(4, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)

	out := &hierOutcome{sm: sm, levels: sm.Plane().Levels()}
	sm.At(59*time.Second, func() {
		out.preA, out.preB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})
	sm.At(60*time.Second, func() { sm.FailRedirector(3) })
	sm.At(60*time.Second+2*settle, func() {
		out.postA, out.postB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})
	sm.Run(120 * time.Second)

	pl := sm.Plane()
	if p4, ok := pl.Placement(4); ok {
		out.promotedParent = int(p4.Parent)
		out.promotedSubRoot = p4.SubRoot
	}
	if p5, ok := pl.Placement(5); ok {
		out.leafParent = int(p5.Parent)
	}
	out.removed = len(pl.Removed())
	return out, sm.Digest(uint64(out.promotedParent), uint64(out.leafParent), uint64(out.removed)), nil
}

// ExtHierPlane is the hierarchical combining-plane experiment: a
// two-region fleet aggregates through regional sub-trees into a global
// tier, a regional sub-root crashes mid-run, and the survivors recompile
// the plane around it — the region's members re-parent through the
// promoted sub-root into the global tier, never sideways to a sibling
// leaf. Enforcement must stay converged (A 70 / B 30) in both phases,
// with no mixed-version windows and zero settled under-floor windows, and
// the whole run replays bit-identically (the experiment executes twice
// and compares digests).
func ExtHierPlane() (*Result, error) {
	first, replayIdentical, err := replayed(runHier)
	if err != nil {
		return nil, err
	}
	subRoot := 0.0
	if first.promotedSubRoot {
		subRoot = 1.0
	}
	sm := first.sm
	res := &Result{
		ID:       "ext-hier",
		Title:    "Hierarchical combining plane: regional sub-root crash and recompile",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("healthy", 0, 60*time.Second, settle),
			trim("failed", 60*time.Second, 120*time.Second, settle),
		},
		Values: map[string]float64{
			"levels@plane":           float64(first.levels),
			"reconfigurations@tree":  float64(sm.Reconfigurations),
			"removed@tree":           float64(first.removed),
			"promoted-parent@west":   float64(first.promotedParent),
			"promoted-subroot@west":  subRoot,
			"leaf-parent@west":       float64(first.leafParent),
			"mixed-version@windows":  float64(sm.Auditor.MixedVersion()),
			"A-under-floor@settled":  float64(first.preA),
			"B-under-floor@settled":  float64(first.preB),
			"A-under-floor@repaired": float64(sm.Auditor.UnderMC(1) - first.postA),
			"B-under-floor@repaired": float64(sm.Auditor.UnderMC(2) - first.postB),
			"identical@replay":       replayIdentical,
		},
		Expected: []Expectation{
			{Phase: "healthy", Series: "A", Paper: 70},
			{Phase: "healthy", Series: "B", Paper: 30},
			// B's 200 req/s at the west leaf still exceeds its 30 floor
			// and A's its 70: the split survives the sub-root crash.
			{Phase: "failed", Series: "A", Paper: 70},
			{Phase: "failed", Series: "B", Paper: 30},
			{Phase: "plane", Series: "levels", Paper: 3, AbsTol: 0.1},
			{Phase: "tree", Series: "reconfigurations", Paper: 1, AbsTol: 0.5},
			{Phase: "tree", Series: "removed", Paper: 1, AbsTol: 0.1},
			// The promoted west sub-root hangs off the global root, and
			// the surviving west leaf hangs under it — not sideways.
			{Phase: "west", Series: "promoted-parent", Paper: 0, AbsTol: 0.1},
			{Phase: "west", Series: "promoted-subroot", Paper: 1, AbsTol: 0.1},
			{Phase: "west", Series: "leaf-parent", Paper: 4, AbsTol: 0.1},
			// No window anywhere mixed agreement versions.
			{Phase: "windows", Series: "mixed-version", Paper: 0, AbsTol: 0.1},
			// Zero settled under-floor windows before and after repair.
			{Phase: "settled", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "settled", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "repaired", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "repaired", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			// Bit-identical replay: same digests across two full runs.
			{Phase: "replay", Series: "identical", Paper: 1, AbsTol: 0.01},
		},
		Notes: []string{
			"regions east{0,1,2} / west{3,4,5}, fanout 2, global root 0",
			fmt.Sprintf("west sub-root (node 3) dies at t=60 s; detection timeout 2 s; plane recompiled %d time(s)",
				sm.Reconfigurations),
		},
	}
	return res, nil
}
