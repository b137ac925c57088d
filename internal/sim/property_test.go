package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestRandomScenarioInvariants is the end-to-end soak: random agreement
// graphs, random demands, random redirector counts — after convergence the
// full stack must uphold the paper's two core guarantees:
//
//  1. Safety: no server processes more than its capacity.
//  2. Mandatory guarantee: a principal whose demand meets or exceeds its
//     mandatory rate is served at least ≈ that rate.
func TestRandomScenarioInvariants(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			runRandomScenario(t, rng)
		})
	}
}

// TestRandomPhasedScenarioInvariants adds random load phase changes on top
// of the static soak: clients toggle on and off mid-run, and the guarantees
// must hold during the final stable phase regardless of history.
func TestRandomPhasedScenarioInvariants(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		s := agreement.New()
		sp := s.MustAddPrincipal("S", float64(200+rng.Intn(300)))
		a := s.MustAddPrincipal("A", 0)
		b := s.MustAddPrincipal("B", 0)
		lbA := 0.2 + rng.Float64()*0.5
		lbB := 0.9 - lbA
		s.MustSetAgreement(sp, a, lbA, 1)
		s.MustSetAgreement(sp, b, lbB, 1)
		sm, err := New(Config{
			Engine: core.Config{
				Mode:              core.Provider,
				System:            s,
				ProviderPrincipal: sp,
				NumRedirectors:    2,
			},
			Redirectors: 2,
			Servers:     []ServerSpec{{Owner: sp, Capacity: s.Capacity(sp), Count: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		demandA := float64(100 + rng.Intn(400))
		demandB := float64(100 + rng.Intn(400))
		ca := sm.NewClient(0, workload.Config{Principal: int(a), Rate: demandA})
		cb := sm.NewClient(1, workload.Config{Principal: int(b), Rate: demandB})
		ca.SetActive(true)
		cb.SetActive(true)
		// Random churn: toggle each client a few times before t=40 s.
		for i := 0; i < 3; i++ {
			at := time.Duration(5+rng.Intn(35)) * time.Second
			c := ca
			if rng.Intn(2) == 0 {
				c = cb
			}
			sm.At(at, func() { c.SetActive(!c.Active()) })
		}
		// Force both on for the final stable phase.
		sm.At(40*time.Second, func() { ca.SetActive(true); cb.SetActive(true) })
		sm.Run(70 * time.Second)

		acc, err := s.SystemAccess()
		if err != nil {
			t.Fatal(err)
		}
		servedA := sm.Recorder.MeanRateBetween(int(a), 52*time.Second, 69*time.Second)
		servedB := sm.Recorder.MeanRateBetween(int(b), 52*time.Second, 69*time.Second)
		checkFloor := func(name string, served, demand, mc float64) {
			if demand >= mc && mc > 5 && served < mc*0.88-5 {
				t.Errorf("trial %d: %s served %.1f below mandatory %.1f after churn",
					trial, name, served, mc)
			}
		}
		checkFloor("A", servedA, demandA, acc.MC[a])
		checkFloor("B", servedB, demandB, acc.MC[b])
		if total := servedA + servedB; total > s.Capacity(sp)*1.02 {
			t.Errorf("trial %d: total %.1f exceeds capacity %.1f", trial, total, s.Capacity(sp))
		}
	}
}

func runRandomScenario(t *testing.T, rng *rand.Rand) {
	t.Helper()
	s := agreement.New()
	n := 2 + rng.Intn(3) // owners+users
	owners := 0
	for i := 0; i < n; i++ {
		capacity := 0.0
		if rng.Float64() < 0.7 || (i == n-1 && owners == 0) {
			capacity = float64(100 + rng.Intn(300))
			owners++
		}
		s.MustAddPrincipal(string(rune('A'+i)), capacity)
	}
	for i := 0; i < n; i++ {
		if s.Capacity(agreement.Principal(i)) == 0 {
			continue // only owners grant
		}
		budget := 0.9
		for j := 0; j < n; j++ {
			if j == i || rng.Float64() < 0.4 {
				continue
			}
			lb := rng.Float64() * budget * 0.8
			ub := lb + rng.Float64()*(1-lb)
			if s.SetAgreement(agreement.Principal(i), agreement.Principal(j), lb, ub) != nil {
				continue
			}
			budget -= lb
		}
	}
	redirectors := 1 + rng.Intn(3)
	var servers []ServerSpec
	for i := 0; i < n; i++ {
		if c := s.Capacity(agreement.Principal(i)); c > 0 {
			servers = append(servers, ServerSpec{Owner: agreement.Principal(i), Capacity: c, Count: 1})
		}
	}
	sm, err := New(Config{
		Engine: core.Config{
			Mode:           core.Community,
			System:         s,
			NumRedirectors: redirectors,
		},
		Redirectors: redirectors,
		Servers:     servers,
	})
	if err != nil {
		t.Fatal(err)
	}

	demand := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			continue // idle principal
		}
		demand[i] = float64(50 + rng.Intn(400))
		sm.NewClient(rng.Intn(redirectors), workload.Config{
			Principal: i,
			Rate:      demand[i],
		}).SetActive(true)
	}

	const (
		warm    = 12 * time.Second
		measure = 20 * time.Second
	)
	sm.Run(warm + measure)

	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		served := sm.Recorder.MeanRateBetween(i, warm, warm+measure)
		// Safety at the principal level: nobody above demand.
		if served > demand[i]*1.05+5 {
			t.Errorf("%s served %.1f with demand %.1f (scenario %v)",
				s.Name(agreement.Principal(i)), served, demand[i], s)
		}
		// Mandatory guarantee (with estimator/carry slack).
		if demand[i] >= acc.MC[i] && acc.MC[i] > 5 {
			if served < acc.MC[i]*0.9-5 {
				t.Errorf("%s served %.1f below mandatory %.1f (demand %.1f, scenario %v)",
					s.Name(agreement.Principal(i)), served, acc.MC[i], demand[i], s)
			}
		}
	}
	// Server safety: completions bounded by capacity.
	for owner, srvs := range sm.Servers {
		for _, srv := range srvs {
			rate := float64(srv.Completed) / (warm + measure).Seconds()
			if rate > srv.Capacity()*1.02 {
				t.Errorf("server of %s processed %.1f/s above capacity %.1f",
					s.Name(owner), rate, srv.Capacity())
			}
		}
	}
}
