package experiments

import (
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig9 reproduces "Sharing Agreements in a Community Context" (Layer-4):
// A and B each own a 320 req/s server; B shares its server with A under a
// [0.5, 0.5] agreement. Client machines generate 400 req/s each (no proxy
// at Layer 4). A's client count steps 2 → 0 → 1 → 0.
func Fig9() (*Result, error) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:   core.Community,
			System: s,
		},
		Redirectors: 1,
		Servers: []sim.ServerSpec{
			{Owner: a, Capacity: 320, Count: 1},
			{Owner: b, Capacity: 320, Count: 1},
		},
		Names:      []string{"A", "B"},
		MaxBacklog: 160,
	})
	if err != nil {
		return nil, err
	}

	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	b1 := sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4})

	a1.SetActive(true)
	a2.SetActive(true)
	b1.SetActive(true)
	sm.At(60*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.At(120*time.Second, func() { a1.SetActive(true) })
	sm.At(180*time.Second, func() { a1.SetActive(false) })
	sm.Run(240 * time.Second)

	res := &Result{
		ID:       "fig9",
		Title:    "L4: community agreements respected when both own servers",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("phase1", 0, 60*time.Second, settle),
			trim("phase2", 60*time.Second, 120*time.Second, settle),
			trim("phase3", 120*time.Second, 180*time.Second, settle),
			trim("phase4", 180*time.Second, 240*time.Second, settle),
		},
		Expected: []Expectation{
			// A uses its own server plus half of B's: 480; B keeps 160.
			{Phase: "phase1", Series: "A", Paper: 480},
			{Phase: "phase1", Series: "B", Paper: 160},
			// A idle: B reclaims its full server.
			{Phase: "phase2", Series: "A", Paper: 0},
			{Phase: "phase2", Series: "B", Paper: 320},
			// A back with one client (400 req/s < its 480 entitlement):
			// B's server only carries A's overflow of 80.
			{Phase: "phase3", Series: "A", Paper: 400},
			{Phase: "phase3", Series: "B", Paper: 240},
			{Phase: "phase4", Series: "B", Paper: 320},
		},
		Notes: []string{"paper Figure 9; client rate 400 req/s (raw WebBench)"},
	}
	return res, nil
}

// Fig10 reproduces "Maximization of Service Provider Income" (Layer-4):
// a provider with two 320 req/s servers, customers A [0.8,1] and B [0.2,1],
// with A paying more per optional request. A's client count steps
// 2 → 0 → 1 → 0 while B keeps one client.
func Fig10() (*Result, error) {
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 640)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:              core.Provider,
			System:            s,
			ProviderPrincipal: sp,
			Prices:            map[agreement.Principal]float64{a: 2, b: 1},
		},
		Redirectors: 1,
		Servers:     []sim.ServerSpec{{Owner: sp, Capacity: 320, Count: 2}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  160,
	})
	if err != nil {
		return nil, err
	}

	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	b1 := sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4})

	a1.SetActive(true)
	a2.SetActive(true)
	b1.SetActive(true)
	sm.At(60*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.At(120*time.Second, func() { a1.SetActive(true) })
	sm.At(180*time.Second, func() { a1.SetActive(false) })
	sm.Run(240 * time.Second)

	res := &Result{
		ID:       "fig10",
		Title:    "L4: provider income maximized, agreements respected",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("phase1", 0, 60*time.Second, settle),
			trim("phase2", 60*time.Second, 120*time.Second, settle),
			trim("phase3", 120*time.Second, 180*time.Second, settle),
			trim("phase4", 180*time.Second, 240*time.Second, settle),
		},
		Expected: []Expectation{
			// B pinned to its 20% mandatory (128); top payer A takes the rest.
			{Phase: "phase1", Series: "A", Paper: 512},
			{Phase: "phase1", Series: "B", Paper: 128},
			// A idle: all of B's demand (one 400 req/s client) is served.
			{Phase: "phase2", Series: "B", Paper: 400},
			// A with one client gets first preference; B takes the remainder.
			{Phase: "phase3", Series: "A", Paper: 400},
			{Phase: "phase3", Series: "B", Paper: 240},
			{Phase: "phase4", Series: "B", Paper: 400},
		},
		Notes: []string{"paper Figure 10; price(A) > price(B)"},
	}
	return res, nil
}
