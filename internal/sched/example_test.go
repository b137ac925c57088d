package sched_test

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// The Figure 10 window decision: a 640 req/s provider, customer A [0.8, 1]
// paying twice B's price [0.2, 1], both overloaded.
func ExampleProvider_Schedule() {
	p, err := sched.NewProvider(
		[]float64{512, 128}, // mandatory rates
		[]float64{128, 512}, // optional rates
		[]float64{2, 1},     // prices beyond mandatory
		640)
	if err != nil {
		panic(err)
	}
	plan, err := p.Schedule([]float64{800, 400})
	if err != nil {
		panic(err)
	}
	fmt.Printf("A=%.0f B=%.0f income=%.0f\n", plan.X[0], plan.X[1], plan.Income)
	// Output: A=512 B=128 income=0
}

// The Figure 7 window decision: A and B both hold [0.2, 1] agreements with a
// 250 req/s owner and A has twice B's load, so the max–min plan serves A at
// twice B's rate.
func ExampleCommunity_Schedule() {
	s := agreement.New()
	owner := s.MustAddPrincipal("S", 250)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(owner, a, 0.2, 1)
	s.MustSetAgreement(owner, b, 0.2, 1)
	acc, err := s.SystemAccess()
	if err != nil {
		panic(err)
	}
	c, err := sched.NewCommunity(acc, s.Capacities(), nil)
	if err != nil {
		panic(err)
	}
	plan, err := c.Schedule([]float64{0, 270, 135})
	if err != nil {
		panic(err)
	}
	fmt.Printf("A=%.1f B=%.1f theta=%.3f\n", plan.Total[a], plan.Total[b], plan.Theta)
	// Output: A=166.7 B=83.3 theta=0.617
}
