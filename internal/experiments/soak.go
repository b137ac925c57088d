package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// soakLead is the rollout gate lead for the soak's renegotiation: wider than
// ext-reconfig's because the root is killed shortly after publishing and the
// gate must still be ahead of every survivor's epoch when it crosses.
const soakLead = 4

// soakSeed seeds the fault schedule; the whole run is a pure function of it.
const soakSeed = 0x50AC

// Soak timeline (window = 100 ms, so epoch ≈ 10·t in seconds). The crash
// offsets are chosen off window boundaries so event order inside a tick is
// never ambiguous, and both restarts happen more than 128 windows (the
// auditor's mixed-version ring span) after the matching crash, so a
// restarted node replaying its durable window sequence — which permanently
// lags the survivors' — cannot alias a pre-renegotiation slot.
const (
	soakCrashLeaf   = 29550 * time.Millisecond // r2 dies before the set exists
	soakRenegotiate = 30050 * time.Millisecond // B halves A's grant
	soakCrashRoot   = 30750 * time.Millisecond // r0 dies after publish, before fleet convergence
	soakRestartLeaf = 43050 * time.Millisecond
	soakRestartRoot = 44050 * time.Millisecond
	soakBaseline    = 46 * time.Second // under-floor counters re-baselined here
	soakEnd         = 90 * time.Second
)

// soakOutcome is everything one ext-soak run produces.
type soakOutcome struct {
	sm *sim.Sim
	// Version-monotonicity violations observed by the 500 ms sampling loop
	// (each member's set version and the control-plane version must never
	// move backwards, crashes and restarts included).
	monotoneViolations int
	// rollouts is the survivor's promotion count: it commits the staged set
	// on its own crossing, whoever else is dead.
	rollouts     uint64
	planeVersion uint64
	converged    bool // every engine enforces the newest set at run end
	reconverged  bool // every tree holds the newest set at run end
	preA, preB   int64
	postA, postB int64
}

// runSoak executes one deterministic crash/recovery soak: the ext-reconfig
// renegotiation with a redirector killed just before the new set exists,
// the root killed just after publishing it, and both restarted from their
// durable stores minutes (of virtual time) later.
func runSoak() (*soakOutcome, uint64, error) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:   core.Community,
			System: s,
		},
		Redirectors: 3,
		Servers: []sim.ServerSpec{
			{Owner: a, Capacity: 160, Count: 2},
			{Owner: b, Capacity: 160, Count: 2},
		},
		Names:      []string{"A", "B"},
		MaxBacklog: 200,
		// Failure detection drives the tree rebuilds; 2 s is well clear of
		// the (zero-delay) tree RTT.
		FailureTimeout: 2 * time.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp("", "rsa-soak-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	if err := sm.EnablePersistence(dir); err != nil {
		return nil, 0, err
	}
	plane, err := sm.EnableControlPlane(soakLead)
	if err != nil {
		return nil, 0, err
	}
	// Demand spans the fleet so the crashes actually remove load: A arrives
	// at the root and the middle node, B at the middle node and the leaf.
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 300}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 300}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 300}).SetActive(true)
	sm.NewClient(2, workload.Config{Principal: int(b), Rate: 300}).SetActive(true)

	out := &soakOutcome{sm: sm}

	plan := fault.NewSchedule(soakSeed).
		CrashRedirector(soakCrashLeaf, 2).
		CrashRedirector(soakCrashRoot, 0).
		RestartRedirector(soakRestartLeaf, 2).
		RestartRedirector(soakRestartRoot, 0)
	sm.InjectFaults(plan)

	sm.At(soakRenegotiate, func() {
		if _, err := plane.SetAgreement("B", "A", 0.25, 0.25); err != nil {
			panic(fmt.Sprintf("ext-soak: renegotiation rejected: %v", err))
		}
	})

	// Sampling loop: each member's accepted set version and the
	// control-plane version must be monotone through every crash and restart.
	lastSet := make([]uint64, len(sm.Redirectors))
	var lastPlane uint64
	for t := 500 * time.Millisecond; t < soakEnd; t += 500 * time.Millisecond {
		sm.At(t, func() {
			if plane.Version() < lastPlane {
				out.monotoneViolations++
			}
			lastPlane = plane.Version()
			for i, rn := range sm.Redirectors {
				if v := rn.Engine().LastSetVersion(); v < lastSet[i] {
					out.monotoneViolations++
				} else {
					lastSet[i] = v
				}
			}
		})
	}

	// Under-floor audit bounds: settled windows before the first crash
	// (excluding the cold fleet-wide warm-up, where the EWMA estimators and
	// the combining tree are still converging), and every window after both
	// restarts settled.
	var warmA, warmB int64
	sm.At(2*settle, func() {
		warmA, warmB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})
	sm.At(soakCrashLeaf-500*time.Millisecond, func() {
		out.preA = sm.Auditor.UnderMC(int(a)) - warmA
		out.preB = sm.Auditor.UnderMC(int(b)) - warmB
	})
	sm.At(soakBaseline, func() {
		out.postA, out.postB = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b))
	})

	sm.Run(soakEnd)

	out.rollouts = sm.Redirectors[1].Engine().Rollout().Rollouts
	out.planeVersion = plane.Version()
	out.converged, out.reconverged = true, true
	for _, rn := range sm.Redirectors {
		if info := rn.Engine().Rollout(); info.Staged != 0 || info.SetVersion != out.planeVersion {
			out.converged = false
		}
		if cu := rn.Tree().Config(); cu == nil || cu.Version != out.planeVersion {
			out.reconverged = false
		}
	}
	if err := sm.ClosePersistence(); err != nil {
		return nil, 0, err
	}
	return out, sm.Digest(out.rollouts, out.planeVersion), nil
}

// ExtSoak is the restart-safety soak: a mid-run renegotiation with the
// leaf killed just before the new agreement set exists, the root killed
// just after publishing it, and both processes later restarted from their
// durable stores. The rollout must commit anyway — the survivor promotes on
// its own crossing, waiting on no dead member — and the restarted nodes
// must rejoin the combining tree, recover their carried credit and
// demand estimates, learn the newest set through the rejoin handshake, and
// re-enter enforcement without a single settled under-floor window, a
// mixed-version window, or a version moving backwards. The whole run
// executes twice and must replay bit-identically.
func ExtSoak() (*Result, error) {
	first, replayIdentical, err := replayed(runSoak)
	if err != nil {
		return nil, err
	}
	converged := 0.0
	if first.converged {
		converged = 1.0
	}
	reconverged := 0.0
	if first.reconverged {
		reconverged = 1.0
	}
	sm := first.sm
	res := &Result{
		ID:       "ext-soak",
		Title:    "Crash-recovery soak: kill root and leaf mid-renegotiation, restart from durable state",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("initial", 0, soakCrashLeaf, settle),
			trim("recovered", 50*time.Second, soakEnd, settle),
		},
		Values: map[string]float64{
			"version@plane":           float64(first.planeVersion),
			"rollouts@plane":          float64(first.rollouts),
			"converged@plane":         converged,
			"reconverged@fleet":       reconverged,
			"monotone-violations@ver": float64(first.monotoneViolations),
			"mixed-version@windows":   float64(sm.Auditor.MixedVersion()),
			"A-under-floor@initial":   float64(first.preA),
			"B-under-floor@initial":   float64(first.preB),
			"A-under-floor@recovered": float64(sm.Auditor.UnderMC(0) - first.postA),
			"B-under-floor@recovered": float64(sm.Auditor.UnderMC(1) - first.postB),
			"reconfigurations@fleet":  float64(sm.Reconfigurations),
			"identical@replay":        replayIdentical,
		},
		Expected: []Expectation{
			// B grants A [0.5, 0.5] of 320: entitlements 480/160.
			{Phase: "initial", Series: "A", Paper: 480},
			{Phase: "initial", Series: "B", Paper: 160},
			// Renegotiated to [0.25, 0.25] and fully recovered: 400/240.
			{Phase: "recovered", Series: "A", Paper: 400},
			{Phase: "recovered", Series: "B", Paper: 240},
			{Phase: "plane", Series: "version", Paper: 1, AbsTol: 0.1},
			// The survivor promoted the staged set exactly once with two of
			// three members dead, and every engine, the restarted ones
			// included, enforces the newest set at the end.
			{Phase: "plane", Series: "rollouts", Paper: 1, AbsTol: 0.1},
			{Phase: "plane", Series: "converged", Paper: 1, AbsTol: 0.1},
			// Every tree node holds the newest set at run end.
			{Phase: "fleet", Series: "reconverged", Paper: 1, AbsTol: 0.1},
			// Versions never move backwards, crashes included.
			{Phase: "ver", Series: "monotone-violations", Paper: 0, AbsTol: 0.1},
			// No window anywhere mixed old and new entitlements.
			{Phase: "windows", Series: "mixed-version", Paper: 0, AbsTol: 0.1},
			// Zero settled under-floor windows before the chaos and after
			// both restarts converged.
			{Phase: "initial", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "initial", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "recovered", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "recovered", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			// Bit-identical replay: same digests across two full runs.
			{Phase: "replay", Series: "identical", Paper: 1, AbsTol: 0.01},
		},
		Notes: []string{
			"r2 killed 0.5 s before the renegotiation exists, r0 (root) killed 0.7 s after publishing it",
			"both restart >128 windows later from their persist stores: credit, estimate, window seq, set",
			fmt.Sprintf("tree reconfigurations across the run: %d; restarts rejoin via the tree handshake",
				sm.Reconfigurations),
			"the control-plane host persists each accepted set at publish time, so the root crash loses nothing",
		},
	}
	return res, nil
}
