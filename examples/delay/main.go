// Wide-area delay: two redirectors coordinate through a combining tree with
// a 10-second one-way lag (the paper's Figure 8 scenario). The output shows
// the conservative half-mandatory start, the competition window while the
// lag hides A's arrival, and enforcement once the global view catches up.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	sys := repro.NewSystem()
	s := sys.MustAddPrincipal("S", 320)
	a := sys.MustAddPrincipal("A", 0)
	b := sys.MustAddPrincipal("B", 0)
	sys.MustSetAgreement(s, a, 0.8, 1.0)
	sys.MustSetAgreement(s, b, 0.2, 1.0)

	sm, err := sim.New(sim.Config{
		Engine: repro.EngineConfig{
			Mode:              repro.Provider,
			System:            sys,
			ProviderPrincipal: s,
		},
		Redirectors: 2,
		Servers:     []sim.ServerSpec{{Owner: s, Capacity: 320, Count: 1}},
		TreeDelay:   10 * time.Second, // the deliberately large WAN lag
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  160,
	})
	if err != nil {
		log.Fatal(err)
	}

	// B's single client reaches the leaf redirector: it starts blind and
	// must behave conservatively for one lag period.
	bClient := sm.NewClient(1, workload.Config{Principal: int(b), Rate: workload.RateL7})
	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL7})

	bClient.SetActive(true)
	sm.At(40*time.Second, func() { a1.SetActive(true); a2.SetActive(true) })
	sm.At(100*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.Run(140 * time.Second)

	phases := []metrics.Phase{
		{Name: "conservative", From: 2 * time.Second, To: 9 * time.Second},
		{Name: "B alone", From: 14 * time.Second, To: 39 * time.Second},
		{Name: "lag/compete", From: 42 * time.Second, To: 49 * time.Second},
		{Name: "enforced", From: 56 * time.Second, To: 99 * time.Second},
		{Name: "B again", From: 115 * time.Second, To: 139 * time.Second},
	}
	fmt.Println("Processed requests/second by phase (10 s combining-tree lag):")
	fmt.Print(metrics.FormatPhaseMeans(sm.Recorder.PhaseMeans(phases)))
	fmt.Println("\nPer-second series (note the 10 s transitions):")
	if err := sm.Recorder.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
