package sched

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func copyInt(dst, src *int) { *dst = *src }

func samePlan(a, b *Plan) bool {
	if a.Theta != b.Theta {
		return false
	}
	for i := range a.X {
		for k := range a.X[i] {
			if a.X[i][k] != b.X[i][k] {
				return false
			}
		}
	}
	return true
}

// solveTo is a cache solve callback that stores v and counts its calls.
func solveTo(v int, calls *int) func(*int) error {
	return func(plan *int) error {
		if calls != nil {
			*calls++
		}
		*plan = v
		return nil
	}
}

func TestPlanCacheHitsQuantizedVectors(t *testing.T) {
	stats := &metrics.SolverStats{}
	c := NewPlanCache(stats, copyInt)
	solves, plan := 0, 0

	hit, err := c.Do([]float64{80, 40}, &plan, solveTo(7, &solves))
	if err != nil || hit || plan != 7 {
		t.Fatalf("first Do = (%d, %v, %v)", plan, hit, err)
	}
	// Within half a quantum: same key, no new solve.
	plan = 0
	hit, err = c.Do([]float64{80 + 4e-7, 40}, &plan, solveTo(8, &solves))
	if err != nil || !hit || plan != 7 {
		t.Fatalf("quantized Do = (%d, %v, %v)", plan, hit, err)
	}
	// More than a quantum away: distinct key.
	if hit, _ = c.Do([]float64{80 + 5e-6, 40}, &plan, solveTo(9, &solves)); hit {
		t.Fatal("vector a few quanta away hit the cache")
	}
	// A warm-only lookup (nil destination) still counts and still hits.
	if hit, _ = c.Do([]float64{80, 40}, nil, solveTo(10, &solves)); !hit {
		t.Fatal("warm-only lookup missed")
	}
	if solves != 2 {
		t.Fatalf("solves = %d, want 2", solves)
	}
	if stats.CacheHits() != 2 || stats.CacheMisses() != 2 || stats.Solves() != 2 {
		t.Fatalf("stats = %d hits / %d misses / %d solves, want 2/2/2",
			stats.CacheHits(), stats.CacheMisses(), stats.Solves())
	}
}

// TestPlanCacheSerializesCallers shares one cache — and through it one
// scheduler, which has a single solver state — among goroutines looking up
// overlapping vectors: the cache lock is the only thing keeping two solves
// apart, and every caller must get the plan of the vector it asked for (run
// with -race).
func TestPlanCacheSerializesCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acc := randomAccess(rng, 3)
	sch, err := NewCommunity(acc, []float64{200, 150, 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// More vectors than the ring holds, so entries are recycled under load.
	queues := make([][]float64, 2*CacheCap)
	want := make([]*Plan, len(queues))
	for g := range queues {
		queues[g] = []float64{1 + float64(g)*7, 30 + float64(g), 5 + 2*float64(g)}
		if want[g], err = sch.Schedule(queues[g]); err != nil {
			t.Fatal(err)
		}
	}
	c := NewPlanCache(nil, (*Plan).CopyFrom)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var plan Plan
			for rep := 0; rep < 200; rep++ {
				g := (w*5 + rep*3) % len(queues)
				_, err := c.Do(queues[g], &plan, func(p *Plan) error { return sch.ScheduleInto(queues[g], p) })
				if err != nil {
					t.Error(err)
					return
				}
				if !samePlan(&plan, want[g]) {
					t.Errorf("worker %d: plan for vector %d differs from the reference", w, g)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > CacheCap {
		t.Fatalf("Len = %d exceeds the cap %d", c.Len(), CacheCap)
	}
}

func TestPlanCacheDoesNotRetainErrors(t *testing.T) {
	c := NewPlanCache(nil, copyInt)
	boom := errors.New("boom")
	plan := -1
	if _, err := c.Do([]float64{5}, &plan, func(*int) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 || plan != -1 {
		t.Fatalf("failed solve retained or delivered: Len = %d, plan = %d", c.Len(), plan)
	}
	hit, err := c.Do([]float64{5}, &plan, solveTo(9, nil))
	if err != nil || hit || plan != 9 {
		t.Fatalf("retry Do = (%d, %v, %v)", plan, hit, err)
	}
}

// TestPlanCacheBounded shows 10⁵ distinct vectors through one cache: it never
// holds more than CacheCap of them, and an evicted vector is simply solved
// again.
func TestPlanCacheBounded(t *testing.T) {
	c := NewPlanCache(nil, copyInt)
	plan := 0
	for i := 0; i < 100_000; i++ {
		if _, err := c.Do([]float64{float64(i), 1}, &plan, solveTo(i, nil)); err != nil {
			t.Fatal(err)
		}
		if plan != i {
			t.Fatalf("vector %d got plan %d", i, plan)
		}
		if n := c.Len(); n > CacheCap {
			t.Fatalf("after %d vectors Len = %d exceeds the cap %d", i+1, n, CacheCap)
		}
	}
	hit, err := c.Do([]float64{0, 1}, &plan, solveTo(100, nil))
	if err != nil || hit || plan != 100 {
		t.Fatalf("post-eviction Do = (%d, %v, %v)", plan, hit, err)
	}
}

// TestPlanCacheKeepsTheHotVector is the reconfig_churn shape: one vector
// looked up every window, with as many one-shot vectors in between as fit
// without a full turn of the hand. The hot vector must never be solved twice.
func TestPlanCacheKeepsTheHotVector(t *testing.T) {
	for between := 1; between < CacheCap; between++ {
		c := NewPlanCache(nil, copyInt)
		hot, hotSolves, plan, next := []float64{80, 40}, 0, 0, 0
		for window := 0; window < 20*CacheCap; window++ {
			if _, err := c.Do(hot, &plan, solveTo(-1, &hotSolves)); err != nil || plan != -1 {
				t.Fatalf("hot lookup = (%d, %v)", plan, err)
			}
			for k := 0; k < between; k++ {
				next++
				if _, err := c.Do([]float64{float64(next), 0}, &plan, solveTo(next, nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hotSolves != 1 {
			t.Fatalf("%d one-shot vectors between lookups: hot vector solved %d times, want 1", between, hotSolves)
		}
	}
}

func TestPlanCacheSaturatesExtremeQueues(t *testing.T) {
	// Far beyond int64 quanta both vectors saturate to one key — still a
	// deterministic lookup, never an overflow panic.
	k1 := quantize(nil, []float64{1e300})
	k2 := quantize(nil, []float64{2e300})
	if k1[0] != k2[0] {
		t.Fatal("saturated coordinates should share a key")
	}
}

// cacheAllocFixture is a scheduler, its cache and CacheCap+1 distinct demand
// vectors, already cycled through the cache twice: the ring is full, every
// entry's plan and key buffers are sized, and the next lookup of vector 0 is
// a miss that recycles an entry.
type cacheAllocFixture[P any] struct {
	cache  *PlanCache[P]
	queues [][]float64
	solve  func(q []float64, plan *P) error
	dst    P
	next   int
}

func (f *cacheAllocFixture[P]) lookup(t testing.TB, wantHit bool) {
	q := f.queues[f.next%len(f.queues)]
	hit, err := f.cache.Do(q, &f.dst, func(plan *P) error { return f.solve(q, plan) })
	if err != nil || hit != wantHit {
		t.Fatalf("Do = (hit %v, %v), want hit %v", hit, err, wantHit)
	}
}

// cached makes sure the next vector is in the cache, whatever the ring held.
func (f *cacheAllocFixture[P]) cached(t testing.TB) {
	q := f.queues[f.next%len(f.queues)]
	if _, err := f.cache.Do(q, nil, func(plan *P) error { return f.solve(q, plan) }); err != nil {
		t.Fatal(err)
	}
}

func (f *cacheAllocFixture[P]) warm(t testing.TB) {
	for f.next = 0; f.next < 2*len(f.queues); f.next++ {
		f.lookup(t, false)
	}
}

func communityFixture(t testing.TB) *cacheAllocFixture[Plan] {
	const n = 12
	rng := rand.New(rand.NewSource(12))
	acc := randomAccess(rng, n)
	capacity := make([]float64, n)
	for k := range capacity {
		capacity[k] = 400
	}
	sch, err := NewCommunity(acc, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &cacheAllocFixture[Plan]{cache: NewPlanCache(nil, (*Plan).CopyFrom), solve: sch.ScheduleInto}
	for v := 0; v <= CacheCap; v++ {
		q := make([]float64, n)
		for i := range q {
			q[i] = 1 + 40*rng.Float64()
		}
		f.queues = append(f.queues, q)
	}
	f.warm(t)
	return f
}

func providerFixture(t testing.TB) *cacheAllocFixture[ProviderPlan] {
	const n = 47
	rng := rand.New(rand.NewSource(47))
	mc, oc, prices := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range mc {
		mc[i], oc[i], prices[i] = 10*rng.Float64(), 10*rng.Float64(), 1+rng.Float64()
	}
	sch, err := NewProvider(mc, oc, prices, 300)
	if err != nil {
		t.Fatal(err)
	}
	f := &cacheAllocFixture[ProviderPlan]{cache: NewPlanCache(nil, (*ProviderPlan).CopyFrom), solve: sch.ScheduleInto}
	for v := 0; v <= CacheCap; v++ {
		q := make([]float64, n)
		for i := range q {
			q[i] = 20 * rng.Float64()
		}
		f.queues = append(f.queues, q)
	}
	f.warm(t)
	return f
}

// TestPlanCacheDoAllocs pins the window boundary's scheduling step at zero
// allocations: a hit, and a miss (quantize, recycle an entry, rewrite the
// template, solve, extract, copy out) once the ring is warm.
func TestPlanCacheDoAllocs(t *testing.T) {
	check := func(name string, lookup func(hit bool), advance func()) {
		// With CacheCap+1 vectors taken round-robin every lookup is a miss,
		// and repeating the vector just solved is a hit.
		if n := testing.AllocsPerRun(50, func() { lookup(false); advance() }); n != 0 {
			t.Errorf("%s: a warm miss allocates %v times, want 0", name, n)
		}
		lookup(false)
		if n := testing.AllocsPerRun(50, func() { lookup(true) }); n != 0 {
			t.Errorf("%s: a hit allocates %v times, want 0", name, n)
		}
	}
	cf := communityFixture(t)
	check("community n=12", func(hit bool) { cf.lookup(t, hit) }, func() { cf.next++ })
	pf := providerFixture(t)
	check("provider n=47", func(hit bool) { pf.lookup(t, hit) }, func() { pf.next++ })
}

func BenchmarkPlanCacheDo(b *testing.B) {
	f := communityFixture(b)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.lookup(b, false)
			f.next++
		}
	})
	b.Run("hit", func(b *testing.B) {
		// The framework runs this body once per b.N it tries: the first run
		// leaves the vector cached for the next.
		f.cached(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.lookup(b, true)
		}
	})
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
