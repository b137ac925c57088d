package experiments

import (
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExtChaos is the deterministic chaos experiment: a seeded fault schedule
// kills one of provider S's two servers mid-run, the §2.2 capacity
// re-interpretation shrinks every entitlement to the surviving hardware, and
// the enforcement plane re-converges to the reduced split — then returns to
// the original split when the server restarts. The run is audited: after a
// settling period in each phase, no window may serve a principal below its
// (re-interpreted) mandatory floor.
//
// S sells 400 req/s: A holds [0.8, 1.0] (mandatory 320), B holds [0.2, 1.0]
// (mandatory 80). The capacity lives on two 200 req/s servers; crashing
// S-srv1 at t=60 s halves the effective capacity, so the recomputed floors
// are A 160 / B 40, and the restart at t=120 s restores 320 / 80. (The
// numbers are chosen so the 100 ms windows carry integral floors — 32/8
// full, 16/4 degraded — letting the audit demand exactly zero under-floor
// windows once converged, with no credit-carry quantization noise.)
func ExtChaos() (*Result, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 400)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
		},
		Redirectors: 2,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 200, Count: 2}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  200,
	})
	if err != nil {
		return nil, err
	}
	reint := sm.EnableCapacityReinterpretation()
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 600}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)

	// The fault plan is seeded and explicit: replaying it reproduces the run
	// bit-for-bit.
	plan := fault.NewSchedule(42).
		CrashBackend(60*time.Second, "S-srv1").
		RestartBackend(120*time.Second, "S-srv1")
	sm.InjectFaults(plan)

	// Freeze the under-floor counters once each post-fault phase has had
	// settle time to converge; any increment after that is an enforcement
	// violation against the re-interpreted floors.
	type snap struct{ a, b int64 }
	var atConverged, atDegradedEnd, atRestConverged, atEnd snap
	take := func(dst *snap) func() {
		return func() { dst.a, dst.b = sm.Auditor.UnderMC(int(a)), sm.Auditor.UnderMC(int(b)) }
	}
	sm.At(60*time.Second+2*settle, take(&atConverged))
	sm.At(119*time.Second, take(&atDegradedEnd))
	sm.At(120*time.Second+2*settle, take(&atRestConverged))

	sm.Run(180 * time.Second)
	take(&atEnd)()

	degTrans, recTrans := reint.Transitions()
	res := &Result{
		ID:       "ext-chaos",
		Title:    "Chaos: backend crash, capacity re-interpretation, recovery",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("full", 0, 60*time.Second, settle),
			trim("degraded", 60*time.Second, 120*time.Second, settle),
			trim("restored", 120*time.Second, 180*time.Second, settle),
		},
		Values: map[string]float64{
			"degraded-transitions@plane":  float64(degTrans),
			"recovered-transitions@plane": float64(recTrans),
			"degraded-windows@plane":      float64(sm.Auditor.Degraded()),
			"A-under-floor@converged":     float64(atDegradedEnd.a - atConverged.a),
			"B-under-floor@converged":     float64(atDegradedEnd.b - atConverged.b),
			"A-under-floor@reconverged":   float64(atEnd.a - atRestConverged.a),
			"B-under-floor@reconverged":   float64(atEnd.b - atRestConverged.b),
		},
		Expected: []Expectation{
			{Phase: "full", Series: "A", Paper: 320},
			{Phase: "full", Series: "B", Paper: 80},
			// One of two 200 req/s servers down: floors re-interpret to half.
			{Phase: "degraded", Series: "A", Paper: 160},
			{Phase: "degraded", Series: "B", Paper: 40},
			{Phase: "restored", Series: "A", Paper: 320},
			{Phase: "restored", Series: "B", Paper: 80},
			{Phase: "plane", Series: "degraded-transitions", Paper: 1, AbsTol: 0.1},
			{Phase: "plane", Series: "recovered-transitions", Paper: 1, AbsTol: 0.1},
			// Converged enforcement: zero windows below the recomputed floor.
			{Phase: "converged", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "converged", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "reconverged", Series: "A-under-floor", Paper: 0, AbsTol: 0.1},
			{Phase: "reconverged", Series: "B-under-floor", Paper: 0, AbsTol: 0.1},
		},
		Notes: []string{
			"fault plan (seed 42): crash S-srv1 @60 s, restart @120 s — replayable bit-for-bit",
			"entitlements re-interpret automatically: no renegotiation, no restart",
		},
	}
	return res, nil
}
