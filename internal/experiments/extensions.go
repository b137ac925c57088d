package experiments

import (
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExtReselling exercises the hierarchical agreement model of §2.1 (the
// sub-ASP reselling case the paper says its techniques "naturally extend
// to"): ASP S (400 req/s) grants sub-ASP M [0.5, 0.8] of its resources; M
// resells [0.4, 0.6] of its currency to each of its customers X and Y.
//
// The flow computation gives X and Y a guaranteed 0.4·(0.5·400) = 80 req/s
// each, M retains 200·(1−0.8) = 40, and S keeps 400·0.5 = 200 — exactly
// partitioning capacity under full overload. When X goes idle, the max–min
// scheduler redistributes its share between M and Y.
func ExtReselling() (*Result, error) {
	s := agreement.New()
	asp := s.MustAddPrincipal("S", 400)
	m := s.MustAddPrincipal("M", 0)
	x := s.MustAddPrincipal("X", 0)
	y := s.MustAddPrincipal("Y", 0)
	s.MustSetAgreement(asp, m, 0.5, 0.8)
	s.MustSetAgreement(m, x, 0.4, 0.6)
	s.MustSetAgreement(m, y, 0.4, 0.6)

	sm, err := sim.New(sim.Config{
		Engine: core.Config{
			Mode:   core.Community,
			System: s,
		},
		Redirectors: 1,
		Servers:     []sim.ServerSpec{{Owner: asp, Capacity: 400, Count: 1}},
		Names:       []string{"S", "M", "X", "Y"},
		MaxBacklog:  200,
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range []struct {
		p    agreement.Principal
		offD time.Duration
	}{{asp, 0}, {m, 0}, {x, 60 * time.Second}, {y, 0}} {
		c := sm.NewClient(0, workload.Config{Principal: int(spec.p), Rate: 200})
		c.SetActive(true)
		if spec.offD > 0 {
			cc := c
			sm.At(spec.offD, func() { cc.SetActive(false) })
		}
	}
	sm.Run(120 * time.Second)

	res := &Result{
		ID:       "ext-resell",
		Title:    "Hierarchical sub-ASP reselling (paper §2.1 extension)",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("overload", 0, 60*time.Second, settle),
			trim("X-idle", 60*time.Second, 120*time.Second, settle),
		},
		Expected: []Expectation{
			// Full overload: mandatory floors exactly partition 400.
			{Phase: "overload", Series: "S", Paper: 200},
			{Phase: "overload", Series: "M", Paper: 40, RelTol: 0.15},
			{Phase: "overload", Series: "X", Paper: 80},
			{Phase: "overload", Series: "Y", Paper: 80},
			// X idle: its 80 redistributed max–min between M and Y.
			{Phase: "X-idle", Series: "S", Paper: 200},
			{Phase: "X-idle", Series: "M", Paper: 100},
			{Phase: "X-idle", Series: "Y", Paper: 100},
			{Phase: "X-idle", Series: "X", Paper: 0},
		},
		Notes: []string{
			"transitive entitlements: MC_X = 0.4·(0.5·400) = 80 via two agreement hops",
			"all demands 200 req/s against a 400 req/s ASP",
		},
	}
	return res, nil
}

// ExtDynamicCapacity exercises the §2.2 dynamic-interpretation property:
// "changes in a principal's resource levels affect the amount available to
// others via agreements". In the Figure 9 community, B's server degrades
// from 320 to 160 req/s mid-run; A's transitive entitlement follows the
// physical resources down (480 → 400) without any renegotiation, and B's
// retained half shrinks to 80.
func ExtDynamicCapacity() (*Result, error) {
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
	for i := 0; i < 2; i++ {
		sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4}).SetActive(true)
	}
	sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4}).SetActive(true)

	sm.At(60*time.Second, func() {
		sm.Servers[b][0].SetCapacity(160)
		if _, err := sm.UpdateCapacities([]float64{320, 160}); err != nil {
			panic(err)
		}
	})
	sm.Run(120 * time.Second)

	res := &Result{
		ID:       "ext-dynamic",
		Title:    "Dynamic re-interpretation under capacity change (paper §2.2)",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("full", 0, 60*time.Second, settle),
			trim("degraded", 60*time.Second, 120*time.Second, settle),
		},
		Expected: []Expectation{
			{Phase: "full", Series: "A", Paper: 480},
			{Phase: "full", Series: "B", Paper: 160},
			// B's server at 160: A's entitlement 320 + 80, B retains 80.
			{Phase: "degraded", Series: "A", Paper: 400},
			{Phase: "degraded", Series: "B", Paper: 80},
		},
		Notes: []string{
			"B's server capacity halves at t=60 s; entitlements re-scale from cached flows",
		},
	}
	return res, nil
}

// ExtFailover exercises the "dynamic" in the dynamic combining tree: one
// of three redirectors dies mid-run; the survivors detect the silence,
// re-parent around the failure, and keep the aggregate agreements intact.
// A's demand arrives at two redirectors (one of which dies), B's at the
// third; the post-failure allocation must still honor the 70/30 split
// because A's surviving redirector picks up the enforcement.
func ExtFailover() (*Result, error) {
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
		},
		Redirectors:    3,
		Servers:        []sim.ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Names:          []string{"S", "A", "B"},
		FailureTimeout: 2 * time.Second,
		MaxBacklog:     100,
	})
	if err != nil {
		return nil, err
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 100}).SetActive(true)
	sm.NewClient(2, workload.Config{Principal: int(a), Rate: 100}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)
	sm.At(60*time.Second, func() { sm.FailRedirector(2) })
	sm.Run(120 * time.Second)

	res := &Result{
		ID:       "ext-failover",
		Title:    "Redirector failure and combining-tree reconfiguration",
		Recorder: sm.Recorder,
		Phases: []metrics.Phase{
			trim("healthy", 0, 60*time.Second, settle),
			trim("failed", 60*time.Second, 120*time.Second, settle),
		},
		Values: map[string]float64{
			"reconfigurations@failed": float64(sm.Reconfigurations),
		},
		Expected: []Expectation{
			{Phase: "healthy", Series: "A", Paper: 70},
			{Phase: "healthy", Series: "B", Paper: 30},
			// A's remaining 100 req/s demand still exceeds its 70
			// mandatory share: the split survives the failure.
			{Phase: "failed", Series: "A", Paper: 70},
			{Phase: "failed", Series: "B", Paper: 30},
			{Phase: "failed", Series: "reconfigurations", Paper: 1, AbsTol: 0.5},
		},
		Notes: []string{
			"redirector 2 (carrying half of A's load) dies at t=60 s; detection timeout 2 s",
		},
	}
	return res, nil
}

// ExtLocality exercises the locality-cost extension of §3.1.2: the
// redirector caps the load it pushes to B's (remote) server at 280 req/s.
// Without the cap the Figure 9 optimum is A 480 / B 160; under the cap the
// max–min point shifts to A 400 / B 200.
func ExtLocality() (*Result, error) {
	run := func(withCap bool) (*sim.Sim, error) {
		s := agreement.New()
		a := s.MustAddPrincipal("A", 320)
		b := s.MustAddPrincipal("B", 320)
		s.MustSetAgreement(b, a, 0.5, 0.5)
		cfg := core.Config{
			Mode:   core.Community,
			System: s,
		}
		if withCap {
			cfg.LocalityCaps = []float64{math.Inf(1), 280}
		}
		sm, err := sim.New(sim.Config{
			Engine:      cfg,
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
		for i := 0; i < 2; i++ {
			sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4}).SetActive(true)
		}
		sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4}).SetActive(true)
		sm.Run(40 * time.Second)
		return sm, nil
	}

	capped, err := run(true)
	if err != nil {
		return nil, err
	}
	uncapped, err := run(false)
	if err != nil {
		return nil, err
	}
	mean := func(sm *sim.Sim, i int) float64 {
		return sm.Recorder.MeanRateBetween(i, 10*time.Second, 39*time.Second)
	}
	res := &Result{
		ID:    "ext-local",
		Title: "Locality caps on remote servers (paper §3.1.2 extension)",
		Values: map[string]float64{
			"A@capped":   mean(capped, 0),
			"B@capped":   mean(capped, 1),
			"A@uncapped": mean(uncapped, 0),
			"B@uncapped": mean(uncapped, 1),
		},
		Expected: []Expectation{
			{Phase: "uncapped", Series: "A", Paper: 480},
			{Phase: "uncapped", Series: "B", Paper: 160},
			// With ≤280 req/s pushable to B's server the mandatory floors
			// are unsatisfiable and the scheduler falls back to pure
			// max–min: θ = 0.5 ⇒ A 400, B 200.
			{Phase: "capped", Series: "A", Paper: 400},
			{Phase: "capped", Series: "B", Paper: 200},
		},
		Notes: []string{
			"cap 280 req/s on B's server from this redirector",
			"infeasible mandatory floors degrade gracefully to the floor-free max–min LP",
		},
	}
	return res, nil
}
