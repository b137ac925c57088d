package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/sched"
)

// ringCommunity builds an n-principal community in which everybody owns
// 320 req/s and shares [0.3, 0.6] of it with its successor.
func ringCommunity(t testing.TB, n int) *Engine {
	t.Helper()
	s := agreement.New()
	ps := make([]agreement.Principal, n)
	for i := range ps {
		ps[i] = s.MustAddPrincipal(fmt.Sprintf("P%d", i), 320)
	}
	for i := range ps {
		s.MustSetAgreement(ps[i], ps[(i+1)%n], 0.3, 0.6)
	}
	e, err := NewEngine(Config{Mode: Community, System: s, Window: 100 * time.Millisecond, NumRedirectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// boundaryDriver feeds a redirector the two scheduling calls of a window
// boundary — Presolve on broadcast arrival, then StartWindow — over a global
// demand vector that moves every window when churn is set.
type boundaryDriver struct {
	r      *Redirector
	global []float64
	churn  bool
	window int
}

func (d *boundaryDriver) step(t testing.TB) {
	d.window++
	now := time.Duration(d.window) * 100 * time.Millisecond
	if d.churn {
		for i := range d.global {
			d.global[i] = 8 + float64((d.window*7+i*13)%23) + float64(d.window)/1024
		}
	}
	d.r.SetGlobal(d.global, now)
	d.r.Presolve(now)
	if err := d.r.StartWindow(now); err != nil {
		t.Fatal(err)
	}
}

// TestWindowBoundaryAllocs pins the scheduling half of a window boundary at
// zero allocations in both modes, with the plan cache hit (still demand) and
// defeated (a new demand vector every window: quantize, recycle a cache
// entry, solve, copy the plan out, split it into credits).
func TestWindowBoundaryAllocs(t *testing.T) {
	community := ringCommunity(t, 12)
	provider, _, _ := providerEngine(t, 1)
	for _, tc := range []struct {
		name  string
		e     *Engine
		churn bool
	}{
		{"community/hit", community, false},
		{"community/miss", community, true},
		{"provider/hit", provider, false},
		{"provider/miss", provider, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &boundaryDriver{r: tc.e.NewRedirector(0), global: make([]float64, tc.e.NumPrincipals()), churn: tc.churn}
			for i := range d.global {
				d.global[i] = 20
			}
			before := tc.e.Stats().Solves()
			// Two turns of the ring: every entry's buffers are sized.
			for w := 0; w < 2*sched.CacheCap+2; w++ {
				d.step(t)
			}
			if allocs := testing.AllocsPerRun(50, func() { d.step(t) }); allocs != 0 {
				t.Fatalf("Presolve + StartWindow allocate %v times per window, want 0", allocs)
			}
			solves := tc.e.Stats().Solves() - before
			if tc.churn && solves < int64(d.window) {
				t.Fatalf("%d solves over %d churning windows: the cache was not defeated", solves, d.window)
			}
			if !tc.churn && solves != 1 {
				t.Fatalf("%d solves over %d still windows, want 1", solves, d.window)
			}
		})
	}
}

// TestEngineMemoryBounded shows an engine 10⁵ distinct demand vectors. Its
// plan cache must never hold more than sched.CacheCap of them, and the heap
// in use after 10⁵ must be within 5 % of what it was after 10³ — a cache that
// keeps what it has seen grows by the plan and key of every vector.
func TestEngineMemoryBounded(t *testing.T) {
	vectors := 100_000
	if testing.Short() {
		vectors = 20_000
	}
	e, _, _ := communityEngine(t, 1)
	d := &boundaryDriver{r: e.NewRedirector(0), global: make([]float64, e.NumPrincipals()), churn: true}
	heapInUse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	var early uint64
	for d.window < vectors {
		d.step(t)
		if n := e.snapshot().plans.Len(); n > sched.CacheCap {
			t.Fatalf("window %d: plan cache holds %d vectors, cap %d", d.window, n, sched.CacheCap)
		}
		if d.window == 1000 {
			early = heapInUse()
		}
	}
	if solves := e.Stats().Solves(); solves < int64(vectors) {
		t.Fatalf("%d solves for %d vectors: the vectors were not distinct", solves, vectors)
	}
	if late := heapInUse(); float64(late) > 1.05*float64(early) {
		t.Fatalf("heap in use grew from %d B after 10³ vectors to %d B after %d", early, late, vectors)
	}
}
