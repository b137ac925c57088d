// Provider income maximization: a service provider with two servers and
// two customers at different price points (the paper's Figure 10 scenario).
// The scheduler pins the cheaper customer to its mandatory share whenever
// the higher payer has demand.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	sys := repro.NewSystem()
	s := sys.MustAddPrincipal("S", 640) // provider: two 320 req/s servers
	a := sys.MustAddPrincipal("A", 0)
	b := sys.MustAddPrincipal("B", 0)
	sys.MustSetAgreement(s, a, 0.8, 1.0) // A: 80% guaranteed, pays 2/req extra
	sys.MustSetAgreement(s, b, 0.2, 1.0) // B: 20% guaranteed, pays 1/req extra

	sm, err := sim.New(sim.Config{
		Engine: repro.EngineConfig{
			Mode:              repro.Provider,
			System:            sys,
			ProviderPrincipal: s,
			Prices:            map[repro.Principal]float64{a: 2, b: 1},
		},
		Redirectors: 1,
		Servers:     []sim.ServerSpec{{Owner: s, Capacity: 320, Count: 2}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  160,
	})
	if err != nil {
		log.Fatal(err)
	}

	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	b1 := sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4})
	a1.SetActive(true)
	a2.SetActive(true)
	b1.SetActive(true)
	sm.At(30*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.Run(60 * time.Second)

	phases := []metrics.Phase{
		{Name: "contended", From: 8 * time.Second, To: 29 * time.Second},
		{Name: "A idle", From: 38 * time.Second, To: 59 * time.Second},
	}
	fmt.Println("Processed requests/second by phase (provider, price A > price B):")
	fmt.Print(metrics.FormatPhaseMeans(sm.Recorder.PhaseMeans(phases)))

	// Income estimate from the contended phase: A beyond its mandatory
	// share earns 2/request; B is pinned to mandatory and earns nothing.
	rateA := sm.Recorder.MeanRateBetween(int(a), 8*time.Second, 29*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 8*time.Second, 29*time.Second)
	income := 2*(rateA-512) + 1*(rateB-128)
	fmt.Printf("\ncontended-phase income above mandatory: %.1f/s", income)
	fmt.Printf(" (A %.0f req/s of its 512 guarantee, B pinned to %.0f)\n", rateA, rateB)
}
