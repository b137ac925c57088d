package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// reconfigLead is the rollout gate lead used by ext-reconfig: the paper's
// combining tree needs one epoch to broadcast the update to every leaf and
// one of margin, so a mutation accepted at epoch E swaps fleet-wide at the
// window whose epoch is E+2.
const reconfigLead = 2

// reconfigOutcome is everything one ext-reconfig run produces: the figure
// data and the rollout checkpoints.
type reconfigOutcome struct {
	sm *sim.Sim
	// gateEpoch is the epoch gate assigned to the renegotiation; swapEpoch
	// is the root epoch at which the engine had promoted the staged
	// generation (observed one window after the gate).
	gateEpoch, swapEpoch int
	stagedAfterGate      core.Version // 0 once the rollout converged
	rollouts             uint64
	planeVersion         uint64
	// Under-floor counters: before the renegotiation (from a settled start)
	// and after it converged, to run end.
	preA, preB, postA, postB int64
}

// runReconfig executes one deterministic mid-run SLA renegotiation:
// community principals A and B (320 req/s each) start with B granting A
// [0.5, 0.5] — mandatory entitlements 480/160 — and at t=60 s the control
// plane renegotiates the grant to [0.25, 0.25] (400/240). The accepted
// mutation is staged behind an epoch gate of lead 2, piggybacked on the
// combining tree's broadcasts, and every redirector swaps at the same
// window boundary.
func runReconfig() (*reconfigOutcome, uint64, error) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:           core.Community,
			System:         s,
			NumRedirectors: 2,
		},
		Redirectors: 2,
		Servers: []sim.ServerSpec{
			{Owner: a, Capacity: 160, Count: 2},
			{Owner: b, Capacity: 160, Count: 2},
		},
		Names:      []string{"A", "B"},
		MaxBacklog: 200,
	})
	if err != nil {
		return nil, 0, err
	}
	plane, err := sm.EnableControlPlane(reconfigLead)
	if err != nil {
		return nil, 0, err
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 600}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 600}).SetActive(true)

	out := &reconfigOutcome{sm: sm}
	window := sm.Redirectors[0].Engine().Window()

	// The renegotiation: B halves A's grant mid-run, over the same API an
	// operator would hit (Plane.SetAgreement is what POST /v1/agreements
	// calls).
	sm.At(60*time.Second, func() {
		if _, err := plane.SetAgreement("B", "A", 0.25, 0.25); err != nil {
			panic(fmt.Sprintf("ext-reconfig: renegotiation rejected: %v", err))
		}
		out.gateEpoch = sm.Redirectors[0].Engine().Rollout().GateEpoch
	})
	// One window past the gate, the rollout must have converged: every
	// member's engine promoted the staged generation (Staged == 0) in exactly
	// one epoch-gated swap.
	sm.At(60*time.Second+time.Duration(reconfigLead+1)*window+window/2, func() {
		out.stagedAfterGate, out.rollouts = fleetRollout(sm)
		out.swapEpoch = sm.Redirectors[0].Tree().Epoch()
	})

	// Under-floor audit bounds: settled windows before the renegotiation,
	// and every window after the swap has settled.
	sm.At(59*time.Second, func() {
		out.preA, out.preB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})
	sm.At(60*time.Second+2*settle, func() {
		out.postA, out.postB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})

	sm.Run(120 * time.Second)
	out.planeVersion = plane.Version()
	return out, sm.Digest(out.rollouts), nil
}

// fleetRollout folds the members' rollout state: the newest generation any
// member's engine still stages (0 once all promoted) and the fewest
// rollouts any of them completed.
func fleetRollout(sm *sim.Sim) (staged core.Version, rollouts uint64) {
	rollouts = math.MaxUint64
	for _, rn := range sm.Redirectors {
		info := rn.Engine().Rollout()
		staged, rollouts = max(staged, info.Staged), min(rollouts, info.Rollouts)
	}
	return staged, rollouts
}

// ExtReconfig is the dynamic-reconfiguration experiment: a mid-run SLA
// renegotiation through the versioned control plane. B initially grants A
// half of its 320 req/s mandatorily (entitlements 480/160); at t=60 s the
// grant is renegotiated to a quarter (400/240) over the admin API. The
// versioned snapshot rides the combining tree's epoch broadcasts and every
// redirector swaps at the same gated window boundary, so no window mixes
// old and new entitlements and no settled window serves a principal under
// its (current-version) mandatory floor. The whole run replays
// bit-identically: the experiment executes twice and compares digests.
func ExtReconfig() (*Result, error) {
	first, replayIdentical, err := replayed(runReconfig)
	if err != nil {
		return nil, err
	}
	converged := 1.0
	if first.stagedAfterGate != 0 {
		converged = 0.0
	}
	sm := first.sm
	res := &Result{
		ID:       "ext-reconfig",
		Title:    "Dynamic reconfiguration: mid-run SLA renegotiation, epoch-gated rollout",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("initial", 0, 60*time.Second, settle),
			trim("renegotiated", 60*time.Second, 120*time.Second, settle),
		},
		Values: map[string]float64{
			"version@plane":           float64(first.planeVersion),
			"rollouts@plane":          float64(first.rollouts),
			"converged-by-gate@plane": converged,
			"mixed-version@windows":   float64(sm.Auditor.MixedVersion()),
			"A-under-floor@initial":   float64(first.preA),
			"B-under-floor@initial":   float64(first.preB),
			"A-under-floor@converged": float64(sm.Auditor.UnderMC(0) - first.postA),
			"B-under-floor@converged": float64(sm.Auditor.UnderMC(1) - first.postB),
			"identical@replay":        replayIdentical,
		},
		Expected: []Expectation{
			// B grants A [0.5, 0.5] of 320: entitlements 480/160.
			{Phase: "initial", Series: "A", Paper: 480},
			{Phase: "initial", Series: "B", Paper: 160},
			// Renegotiated to [0.25, 0.25]: 400/240.
			{Phase: "renegotiated", Series: "A", Paper: 400},
			{Phase: "renegotiated", Series: "B", Paper: 240},
			{Phase: "plane", Series: "version", Paper: 1, AbsTol: 0.1},
			{Phase: "plane", Series: "rollouts", Paper: 1, AbsTol: 0.1},
			// The staged generation promoted within one window of the gate.
			{Phase: "plane", Series: "converged-by-gate", Paper: 1, AbsTol: 0.1},
			// No window anywhere mixed old and new entitlements.
			{Phase: "windows", Series: "mixed-version", Paper: 0, AbsTol: 0.1},
			// Zero under-floor windows once settled, before and after.
			{Phase: "initial", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "initial", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "converged", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "converged", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			// Bit-identical replay: same digests across two full runs.
			{Phase: "replay", Series: "identical", Paper: 1, AbsTol: 0.01},
		},
		Notes: []string{
			fmt.Sprintf("gate epoch %d, swap observed by epoch %d (lead %d windows)",
				first.gateEpoch, first.swapEpoch, reconfigLead),
			"renegotiation flows through ctrlplane.Plane — the same path as POST /v1/agreements",
			"snapshot distribution piggybacks on combining-tree broadcasts: zero extra messages",
		},
	}
	return res, nil
}
