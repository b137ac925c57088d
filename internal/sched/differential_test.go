package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agreement"
)

// randomAccess builds a consistent random entitlement structure: MI/OI are
// random sparse non-negative matrices and MC/OC are their column sums, the
// invariant agreement.SystemAccess guarantees.
func randomAccess(rng *rand.Rand, n int) *agreement.Access {
	acc := &agreement.Access{
		MI: make([][]float64, n),
		OI: make([][]float64, n),
		MC: make([]float64, n),
		OC: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		acc.MI[k] = make([]float64, n)
		acc.OI[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				acc.MI[k][i] = math.Round(rng.Float64()*100) / 4
			}
			if rng.Float64() < 0.5 {
				acc.OI[k][i] = math.Round(rng.Float64()*100) / 4
			}
			acc.MC[i] += acc.MI[k][i]
			acc.OC[i] += acc.OI[k][i]
		}
	}
	return acc
}

// TestCommunityFastMatchesSlow is the tentpole's differential guarantee: the
// compiled fast path (template mutation + pooled warm-started solver) must
// produce the same plan as rebuilding and solving the LP from scratch. Both
// paths share one pivot sequence, so for all-positive queues the match is
// exact; the test asserts the issue's 1e-6 budget.
func TestCommunityFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(4)
		acc := randomAccess(rng, n)
		capacity := make([]float64, n)
		for k := range capacity {
			// Around the column sums so floors are mostly feasible but the
			// fallback path is exercised too.
			capacity[k] = math.Round(rng.Float64()*400) / 2
		}
		var locality []float64
		if rng.Intn(2) == 0 {
			locality = make([]float64, n)
			for k := range locality {
				locality[k] = math.Round(rng.Float64() * 300)
			}
		}
		c, err := NewCommunity(acc, capacity, locality)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for rep := 0; rep < 4; rep++ {
			queues := make([]float64, n)
			for i := range queues {
				queues[i] = 1 + math.Round(rng.Float64()*500)/2 // all positive
			}
			fast, err := c.Schedule(queues)
			if err != nil {
				t.Fatalf("iter %d: fast: %v", iter, err)
			}
			slow, err := c.scheduleSlow(queues)
			if err != nil {
				t.Fatalf("iter %d: slow: %v", iter, err)
			}
			if math.Abs(fast.Theta-slow.Theta) > 1e-6 {
				t.Fatalf("iter %d rep %d: theta fast %g slow %g (queues %v)",
					iter, rep, fast.Theta, slow.Theta, queues)
			}
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					if math.Abs(fast.X[i][k]-slow.X[i][k]) > 1e-6 {
						t.Fatalf("iter %d rep %d: X[%d][%d] fast %g slow %g (queues %v)",
							iter, rep, i, k, fast.X[i][k], slow.X[i][k], queues)
					}
				}
			}
		}
	}
}

// TestCommunityFastMatchesSlowZeroQueues covers the structural divergence:
// for zero queues the slow path omits rows while the fast path keeps them at
// trivial values. Pivot sequences then differ, so only θ and per-cell values
// are compared (both optima), not pivot-order artifacts — the 1e-6 budget of
// the issue still applies because the zero-queue principal's row is forced.
func TestCommunityFastMatchesSlowZeroQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		acc := randomAccess(rng, n)
		capacity := make([]float64, n)
		for k := range capacity {
			capacity[k] = 50 + math.Round(rng.Float64()*400)
		}
		c, err := NewCommunity(acc, capacity, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		queues := make([]float64, n)
		for i := range queues {
			if rng.Intn(3) > 0 {
				queues[i] = 1 + math.Round(rng.Float64()*300)
			}
		}
		fast, err := c.Schedule(queues)
		if err != nil {
			t.Fatalf("iter %d: fast: %v", iter, err)
		}
		slow, err := c.scheduleSlow(queues)
		if err != nil {
			t.Fatalf("iter %d: slow: %v", iter, err)
		}
		if math.Abs(fast.Theta-slow.Theta) > 1e-6 {
			t.Fatalf("iter %d: theta fast %g slow %g (queues %v)", iter, fast.Theta, slow.Theta, queues)
		}
		for i := 0; i < n; i++ {
			// A zero queue admits nothing either way; served totals for
			// positive queues must match.
			if math.Abs(fast.Total[i]-slow.Total[i]) > 1e-6 && queues[i] > 0 {
				t.Fatalf("iter %d: total[%d] fast %g slow %g (queues %v)",
					iter, i, fast.Total[i], slow.Total[i], queues)
			}
			if queues[i] == 0 && fast.Total[i] > 1e-9 {
				t.Fatalf("iter %d: zero queue served %g", iter, fast.Total[i])
			}
		}
	}
}

func TestProviderFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(6)
		mc := make([]float64, n)
		oc := make([]float64, n)
		prices := make([]float64, n)
		for i := 0; i < n; i++ {
			mc[i] = math.Round(rng.Float64()*100) / 2
			oc[i] = math.Round(rng.Float64()*100) / 2
			prices[i] = math.Round(rng.Float64()*10) / 2
		}
		capacity := math.Round(rng.Float64() * 400)
		p, err := NewProvider(mc, oc, prices, capacity)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for rep := 0; rep < 4; rep++ {
			queues := make([]float64, n)
			for i := range queues {
				queues[i] = 1 + math.Round(rng.Float64()*300)/2
			}
			fast, err := p.Schedule(queues)
			if err != nil {
				t.Fatalf("iter %d: fast: %v", iter, err)
			}
			slow, err := p.scheduleSlow(queues)
			if err != nil {
				t.Fatalf("iter %d: slow: %v", iter, err)
			}
			if math.Abs(fast.Income-slow.Income) > 1e-6 {
				t.Fatalf("iter %d: income fast %g slow %g (queues %v)",
					iter, fast.Income, slow.Income, queues)
			}
			for i := 0; i < n; i++ {
				if math.Abs(fast.X[i]-slow.X[i]) > 1e-6 {
					t.Fatalf("iter %d: X[%d] fast %g slow %g (queues %v)",
						iter, i, fast.X[i], slow.X[i], queues)
				}
			}
		}
	}
}

// FuzzPlanCacheKey checks the quantization invariant: two vectors mapping to
// the same cache key differ by at most one quantum per coordinate, so a
// cache hit can only substitute a plan whose input was within quantization
// distance of the request.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(80.0, 40.0, 80.0, 40.0)
	f.Add(80.0, 40.0, 80.0000004, 40.0)
	f.Add(0.0, 0.0, 1e-7, 0.0)
	f.Add(1e18, 5.0, 1e18, 5.0)
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 float64) {
		for _, v := range []float64{a0, a1, b0, b1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1e12 {
				return // schedulers reject these before any cache lookup
			}
		}
		ka := quantize(nil, []float64{a0, a1})
		kb := quantize(nil, []float64{b0, b1})
		same := ka[0] == kb[0] && ka[1] == kb[1]
		if same {
			for i, pair := range [][2]float64{{a0, b0}, {a1, b1}} {
				if math.Abs(pair[0]-pair[1]) > DefaultQuantum {
					t.Fatalf("colliding keys but coordinate %d differs by %g > quantum %g",
						i, math.Abs(pair[0]-pair[1]), DefaultQuantum)
				}
			}
		} else if a0 == b0 && a1 == b1 {
			t.Fatal("identical vectors produced different keys")
		}
	})
}
