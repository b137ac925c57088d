package experiments

import (
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// settle is how long after a phase switch measurements start: the demand
// estimator, combining tree and server queue need a few seconds to converge
// (the paper's plots show the same transition ramps).
const settle = 8 * time.Second

// Fig6 reproduces "Sharing Agreements in a Service Provider Context"
// (Layer-7): one 320 req/s server; A [0.2,1] with two 135 req/s clients via
// R1; B [0.8,1] with one client via R2. Phases: both active / A only / both.
func Fig6() (*Result, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.2, 1)
	s.MustSetAgreement(sp, b, 0.8, 1)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
		},
		Redirectors: 2,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 320, Count: 1}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  160,
	})
	if err != nil {
		return nil, err
	}

	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
	b1 := sm.NewClient(1, workload.Config{Principal: int(b), Rate: workload.RateL7})

	a1.SetActive(true)
	a2.SetActive(true)
	b1.SetActive(true)
	sm.At(60*time.Second, func() { b1.SetActive(false) })
	sm.At(120*time.Second, func() { b1.SetActive(true) })
	sm.Run(180 * time.Second)

	res := &Result{
		ID:       "fig6",
		Title:    "L7: sharing agreements respected in a provider context",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("phase1", 0, 60*time.Second, settle),
			trim("phase2", 60*time.Second, 120*time.Second, settle),
			trim("phase3", 120*time.Second, 180*time.Second, settle),
		},
		Expected: []Expectation{
			// B under its 256 req/s mandatory level: all 135 served;
			// A absorbs the remainder (paper: "around 190").
			{Phase: "phase1", Series: "A", Paper: 185},
			{Phase: "phase1", Series: "B", Paper: 135},
			// B inactive: A limited only by its two client machines.
			{Phase: "phase2", Series: "A", Paper: 270},
			{Phase: "phase2", Series: "B", Paper: 0},
			// B returns: the system adapts back.
			{Phase: "phase3", Series: "A", Paper: 185},
			{Phase: "phase3", Series: "B", Paper: 135},
		},
		Notes: []string{"paper Figure 6; client rate 135 req/s (WebBench behind redirect proxy)"},
	}
	return res, nil
}

// Fig7 reproduces "Optimization of a Global Metric" (Layer-7, community):
// both A and B hold [0.2, 1] on a 250 req/s server; A generates twice B's
// load and is served at twice B's rate, equalizing queue fractions.
func Fig7() (*Result, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 250)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.2, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:   core.Community,
			System: s,
		},
		Redirectors: 2,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 250, Count: 1}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  125,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		c := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
		c.SetActive(true)
	}
	c := sm.NewClient(1, workload.Config{Principal: int(b), Rate: workload.RateL7})
	c.SetActive(true)
	sm.Run(90 * time.Second)

	res := &Result{
		ID:       "fig7",
		Title:    "L7: optional tickets follow request rates (community max-min)",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("steady", 0, 90*time.Second, settle),
		},
		Expected: []Expectation{
			{Phase: "steady", Series: "A", Paper: 250.0 * 2 / 3},
			{Phase: "steady", Series: "B", Paper: 250.0 / 3},
		},
		Notes: []string{"paper Figure 7; server restricted to 250 req/s"},
	}
	return res, nil
}

// Fig8 reproduces "Impact of Network Delay" (Layer-7): the combining tree
// carries a 10 s one-way lag. B ([0.2,1], one client, at the leaf
// redirector) starts alone and conservatively uses half its mandatory
// tickets until the first global broadcast arrives; A ([0.8,1], two
// clients, at the root) joins later, competing with B for one lag period
// before the agreements are enforced.
func Fig8() (*Result, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 320)
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
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 320, Count: 1}},
		TreeDelay:   10 * time.Second,
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  160,
	})
	if err != nil {
		return nil, err
	}

	// A's clients at the root (redirector 0), B's at the leaf (1): the leaf
	// is the node that must wait a full lag for its first global view.
	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
	b1 := sm.NewClient(1, workload.Config{Principal: int(b), Rate: workload.RateL7})

	b1.SetActive(true)
	sm.At(40*time.Second, func() { a1.SetActive(true); a2.SetActive(true) })
	sm.At(100*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.Run(140 * time.Second)

	res := &Result{
		ID:       "fig8",
		Title:    "L7: graceful behavior under 10 s combining-tree delay",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			// Phase 1: before the first broadcast reaches the leaf (10 s),
			// B conservatively uses half of its 64 req/s mandatory share.
			{Name: "phase1", From: 2 * time.Second, To: 9 * time.Second},
			// Phase 2: global view arrived; B limited only by its client.
			{Name: "phase2", From: 14 * time.Second, To: 39 * time.Second},
			// Phase 3: A active but invisible to the leaf for one lag:
			// competition (not asserted; see Notes).
			{Name: "phase3", From: 42 * time.Second, To: 49 * time.Second},
			// Phase 4: agreements enforced: A 80%, B 20% of 320.
			{Name: "phase4", From: 56 * time.Second, To: 99 * time.Second},
			// Phase 6: A gone and the leaf knows: B back to full client rate.
			{Name: "phase6", From: 115 * time.Second, To: 139 * time.Second},
		},
		Expected: []Expectation{
			{Phase: "phase1", Series: "B", Paper: 30, RelTol: 0.25},
			{Phase: "phase2", Series: "B", Paper: 135},
			{Phase: "phase4", Series: "A", Paper: 255},
			{Phase: "phase4", Series: "B", Paper: 65, RelTol: 0.15},
			{Phase: "phase6", Series: "B", Paper: 135},
		},
		Notes: []string{
			"paper Figure 8; one-way tree delay 10 s",
			"phase3/phase5 are the lag transitions where requests compete; asserted only by shape",
		},
	}
	return res, nil
}
