package admission

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// TestStartWindowAllocs pins the boundary at zero allocations in both modes:
// fold, carry import, schedule (a plan-cache hit), arm the spare pool, flip,
// retire. Two windows warm it up — the second is the first to re-arm a pool
// that has been through a retirement.
func TestStartWindowAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(testing.TB, int) (*Plane, *core.Redirector, agreement.Principal, agreement.Principal)
		demand []float64
	}{
		{"community", communityPlane, []float64{48, 8}},
		{"provider", providerPlane, []float64{0, 64, 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, red, _, _ := tc.build(t, 4)
			warm(t, pl, red, tc.demand, 2)
			now := 200 * time.Millisecond
			// Admits stay outside the measurement: under -race sync.Pool
			// drops a quarter of what it is handed, so the shard hint
			// allocates there (TestCommunityStealAndRejectAllocs pins the
			// admit path).
			allocs := testing.AllocsPerRun(100, func() {
				red.SetGlobal(tc.demand, now)
				if err := pl.StartWindow(now); err != nil {
					t.Fatal(err)
				}
				now += 100 * time.Millisecond
			})
			if allocs != 0 {
				t.Fatalf("StartWindow allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestRearmedPoolStraggler walks an admit that outlives its window through
// the states pool rotation can show it. It holds the pool of window w; after
// one boundary every cell it touches is poison and it must report closed;
// after two the same pool is live again for window w+2, and neither the dry
// verdict it reached in window w nor one it stores late may reject a
// principal the new window funds.
func TestRearmedPoolStraggler(t *testing.T) {
	pl, red, a, _ := providerPlane(t, 4)
	demand := []float64{0, 64, 16}
	warm(t, pl, red, demand, 3)
	held := pl.cur.Load()
	stamp := held.gen.Load()
	for i := 0; i < 400; i++ {
		pl.Admit(a)
	}
	// Whole requests leave a fraction behind; take it too, so that the next
	// sweep finds nothing at all and marks A dry.
	pl.AdmitCost(a, -1, pl.CreditsRemaining(a))
	pl.Admit(a)
	if !held.isDry(int(a)) || pl.CreditsRemaining(a) >= 1 {
		t.Fatalf("setup: A should be drained and marked dry (dry=%v, credit=%v)", held.isDry(int(a)), pl.CreditsRemaining(a))
	}

	boundary := func(now time.Duration) {
		t.Helper()
		for i := 0; i < 64; i++ {
			pl.Admit(a)
		}
		red.SetGlobal(demand, now)
		if err := pl.StartWindow(now); err != nil {
			t.Fatal(err)
		}
	}
	boundary(300 * time.Millisecond)
	if pl.cur.Load() == held {
		t.Fatal("the boundary did not flip pools")
	}
	// The dry flag must not decide for a retired pool either: a cost-2
	// request skips it and runs into the poison.
	if _, ok, _, closed := held.admit(0, int(a), -1, 2); ok || !closed {
		t.Fatalf("admit on the retired pool: ok=%v closed=%v, want closed", ok, closed)
	}

	boundary(400 * time.Millisecond)
	if pl.cur.Load() != held {
		t.Fatal("two boundaries did not bring the held pool back")
	}
	if held.dry[a].Load() != stamp {
		t.Fatalf("setup: the old dry stamp should still be in place")
	}
	if held.isDry(int(a)) {
		t.Fatal("a dry verdict from window w rejects principal A in window w+2")
	}
	held.dry[a].Store(stamp) // the straggler's store landing after the re-arm
	if held.isDry(int(a)) {
		t.Fatal("a late dry store from window w rejects principal A in window w+2")
	}
	if pl.CreditsRemaining(a) < 1 {
		t.Fatalf("setup: window w+2 should fund A (credit %v)", pl.CreditsRemaining(a))
	}
	// And the straggler's own retry, on the pointer it held all along, draws
	// the new window's credit like anyone else.
	if _, ok, _, closed := held.admit(0, int(a), -1, 1); !ok || closed {
		t.Fatalf("admit on the re-armed pool: ok=%v closed=%v, want admitted", ok, closed)
	}
}

// TestPoolRotationStress runs admits flat out against 10⁴ boundaries (run it
// with -race) and checks, every window and per principal, the two things
// recycling a pool could break. Conservation: what has been admitted never
// exceeds what was armed minus what retirement took back — a cell re-armed
// while a stale admit still draws on it must not mint credit. Dry flags: no
// principal is marked dry in the live pool while that pool holds more of its
// credit than admits in flight can account for.
func TestPoolRotationStress(t *testing.T) {
	boundaries := 10_000
	if testing.Short() {
		boundaries = 1_000
	}
	for _, tc := range []struct {
		name    string
		build   func(testing.TB, int) (*Plane, *core.Redirector, agreement.Principal, agreement.Principal)
		demands [][]float64
	}{
		{"community", communityPlane, [][]float64{{48, 8}, {8, 48}, {30, 30}}},
		{"provider", providerPlane, [][]float64{{0, 64, 16}, {0, 16, 64}, {0, 40, 40}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, red, a, b := tc.build(t, 4)
			workers := 2 * runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					p, cost := a, 1.0
					if g%2 == 1 {
						p = b
					}
					if g%4 >= 2 {
						cost = 2 // never short-circuits on the dry flag: always sweeps
					}
					for i := 0; !stop.Load(); i++ {
						pl.AdmitCost(p, -1, cost)
						if g%2 == 1 && i%8 == 0 {
							runtime.Gosched() // B drains slowly: its credit outlives most of a window
						}
					}
				}(g)
			}
			defer func() { stop.Store(true); wg.Wait() }()

			n := pl.n
			armed, collected := make([]float64, n), make([]float64, n)
			// account books the pool just armed and the one just retired:
			// window 0's pool at New (nothing retired), then each boundary's.
			account := func() {
				for p := 0; p < n; p++ {
					for k := 0; k < n; k++ {
						armed[p] += pl.expMatrix[p][k]
						collected[p] += pl.remMatrix[p][k]
					}
					if pl.mode == core.Provider {
						armed[p] += pl.expTotal[p]
						collected[p] += pl.remTotal[p]
					}
				}
			}
			account()
			// An admit in flight can hold less than its cost in gathered
			// fragments outside every cell; only more than all of them could
			// hold proves a dry mark wrong.
			inFlight := 2 * float64(workers)
			checkDry := func(w int) {
				cp := pl.cur.Load()
				for p := 0; p < n; p++ {
					if !cp.isDry(p) {
						continue
					}
					if credit := pl.CreditsRemaining(agreement.Principal(p)); credit > inFlight+1 {
						t.Fatalf("window %d: principal %d is marked dry while its pool holds %v credits", w, p, credit)
					}
				}
			}
			now := time.Duration(0)
			for w := 0; w < boundaries; w++ {
				// Let every window see traffic before it ends.
				admits, rejects := pl.Counts()
				for seen := admits + rejects; seen < admits+rejects+uint64(4*workers); {
					runtime.Gosched()
					ad, rj := pl.Counts()
					seen = ad + rj
				}
				checkDry(w)
				red.SetGlobal(tc.demands[w%len(tc.demands)], now)
				if err := pl.StartWindow(now); err != nil {
					t.Fatal(err)
				}
				checkDry(w)
				now += 100 * time.Millisecond
				account()
				for p := 0; p < n; p++ {
					admitted := 0.0
					for s := range pl.shards {
						admitted += pl.shards[s].admitted[p].load()
					}
					if limit := armed[p] - collected[p]; admitted > limit+1e-6*float64(w+1) {
						t.Fatalf("window %d: principal %d admitted %v, armed − collected = %v", w, p, admitted, limit)
					}
				}
			}
			if admits, _ := pl.Counts(); admits == 0 {
				t.Fatal("no admissions at all — plane wedged")
			}
		})
	}
}

func BenchmarkPlaneStartWindow(b *testing.B) {
	b.Run("community", func(b *testing.B) {
		pl, red, _, _ := communityPlane(b, 4)
		demand := []float64{48, 8}
		warm(b, pl, red, demand, 2)
		now := 200 * time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			red.SetGlobal(demand, now)
			if err := pl.StartWindow(now); err != nil {
				b.Fatal(err)
			}
			now += 100 * time.Millisecond
		}
	})
}
