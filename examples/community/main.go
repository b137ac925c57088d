// Community sharing: two organizations pool their servers under a
// [0.5, 0.5] agreement (the paper's Figure 9 scenario) and the simulation
// shows the aggregate pool following A's client population up and down.
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
	a := sys.MustAddPrincipal("A", 320)
	b := sys.MustAddPrincipal("B", 320)
	// B lets A use exactly half of its server, guaranteed.
	sys.MustSetAgreement(b, a, 0.5, 0.5)

	sm, err := sim.New(sim.Config{
		Engine: repro.EngineConfig{
			Mode:   repro.Community,
			System: sys,
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
		log.Fatal(err)
	}

	a1 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	a2 := sm.NewClient(0, workload.Config{Principal: int(a), Rate: workload.RateL4})
	b1 := sm.NewClient(0, workload.Config{Principal: int(b), Rate: workload.RateL4})

	a1.SetActive(true)
	a2.SetActive(true)
	b1.SetActive(true)
	sm.At(30*time.Second, func() { a1.SetActive(false); a2.SetActive(false) })
	sm.At(60*time.Second, func() { a1.SetActive(true) })
	sm.Run(90 * time.Second)

	phases := []metrics.Phase{
		{Name: "A:2 clients", From: 8 * time.Second, To: 29 * time.Second},
		{Name: "A:idle", From: 38 * time.Second, To: 59 * time.Second},
		{Name: "A:1 client", From: 68 * time.Second, To: 89 * time.Second},
	}
	fmt.Println("Processed requests/second by phase (community, B shares 50% with A):")
	fmt.Print(metrics.FormatPhaseMeans(sm.Recorder.PhaseMeans(phases)))
	fmt.Println("\nFull per-second series:")
	if err := sm.Recorder.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
