package repro

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// The benchmarks below regenerate every figure of the paper's evaluation:
// each iteration runs the full (virtual-time) experiment and reports the
// headline measured rates as custom metrics, so `go test -bench=.` prints
// the numbers next to the timing. EXPERIMENTS.md records the
// paper-vs-measured comparison.

// benchFigure runs one experiment per iteration and reports the given
// (phase, series) means as custom benchmark metrics.
func benchFigure(b *testing.B, id string, metricsWanted [][2]string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last == nil {
		return
	}
	if v := last.Violations(); len(v) > 0 {
		b.Fatalf("%s no longer reproduces the paper: %v", id, v)
	}
	for _, m := range metricsWanted {
		if val, ok := last.Measured(m[0], m[1]); ok {
			b.ReportMetric(val, m[1]+"@"+m[0]+"_req/s")
		}
	}
}

// BenchmarkFig1EndpointViolation regenerates the intro example: end-point
// enforcement yields (A:30, B:70) against B's 80% SLA; coordinated yields
// (A:20, B:80).
func BenchmarkFig1EndpointViolation(b *testing.B) {
	benchFigure(b, "fig1", [][2]string{{"endpoint", "B"}, {"coordinated", "B"}})
}

// BenchmarkFig3FlowComputation regenerates the currency valuation example
// (A 600/400, B 760/1340, C 1140/960).
func BenchmarkFig3FlowComputation(b *testing.B) {
	benchFigure(b, "fig3", nil)
}

// BenchmarkFig6L7SharingAgreements regenerates Figure 6: provider context,
// B's 135 req/s fully served under its 80% mandatory share, A absorbing the
// remainder, across two redirectors.
func BenchmarkFig6L7SharingAgreements(b *testing.B) {
	benchFigure(b, "fig6", [][2]string{{"phase1", "A"}, {"phase1", "B"}})
}

// BenchmarkFig7GlobalResponseTime regenerates Figure 7: equal agreements,
// A's doubled load served at twice B's rate (max-min fairness).
func BenchmarkFig7GlobalResponseTime(b *testing.B) {
	benchFigure(b, "fig7", [][2]string{{"steady", "A"}, {"steady", "B"}})
}

// BenchmarkFig8NetworkDelay regenerates Figure 8: 10 s combining-tree lag —
// conservative half-mandatory start, competition during the lag, then
// enforcement at 255/65.
func BenchmarkFig8NetworkDelay(b *testing.B) {
	benchFigure(b, "fig8", [][2]string{{"phase1", "B"}, {"phase4", "A"}, {"phase4", "B"}})
}

// BenchmarkFig9L4Community regenerates Figure 9: community sharing with
// per-phase rates 480/160 → 0/320 → 400/240 → 0/320.
func BenchmarkFig9L4Community(b *testing.B) {
	benchFigure(b, "fig9", [][2]string{{"phase1", "A"}, {"phase1", "B"}, {"phase3", "B"}})
}

// BenchmarkFig10ProviderIncome regenerates Figure 10: income maximization
// pinning B to its 128 req/s mandatory share while A pays for the rest.
func BenchmarkFig10ProviderIncome(b *testing.B) {
	benchFigure(b, "fig10", [][2]string{{"phase1", "A"}, {"phase1", "B"}})
}

// BenchmarkAblationExplicitVsImplicitQueuing regenerates the §4.1 anomaly:
// explicit window queuing depresses throughput versus the credit scheme.
func BenchmarkAblationExplicitVsImplicitQueuing(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("abl-queue")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Values["implicit@T=32"], "implicit@T=32_req/s")
		b.ReportMetric(last.Values["explicit@T=32"], "explicit@T=32_req/s")
	}
}

// BenchmarkAblationTreeVsPairwise regenerates the coordination-cost claim:
// 2(n−1) tree messages per epoch versus n(n−1) pairwise.
func BenchmarkAblationTreeVsPairwise(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("abl-tree")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Values["tree@n=64"], "tree@n=64_msgs")
		b.ReportMetric(last.Values["pairwise@n=64"], "pairwise@n=64_msgs")
	}
}

// BenchmarkExtHierarchicalReselling regenerates the sub-ASP extension
// (§2.1): transitive reselling gives X and Y 80 req/s guarantees through
// two agreement hops.
func BenchmarkExtHierarchicalReselling(b *testing.B) {
	benchFigure(b, "ext-resell", [][2]string{{"overload", "X"}, {"X-idle", "M"}})
}

// BenchmarkExtLocalityCaps regenerates the locality extension (§3.1.2): a
// 280 req/s cap on B's server shifts the max–min point from 480/160 to
// 400/200.
func BenchmarkExtLocalityCaps(b *testing.B) {
	benchFigure(b, "ext-local", [][2]string{{"capped", "A"}, {"capped", "B"}})
}

// BenchmarkAblationWindowSize regenerates the window-length sweep: the
// 100 ms window tracks phase changes tightly; multi-second windows lag.
func BenchmarkAblationWindowSize(b *testing.B) {
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("abl-window")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Values["error@w=100ms"], "err@100ms_req/s")
		b.ReportMetric(last.Values["error@w=2s"], "err@2s_req/s")
	}
}

// BenchmarkAblationConservativeFallback regenerates the blind-redirector
// ablation: MC/R claiming vs the 2× entitlement violation of full claiming.
func BenchmarkAblationConservativeFallback(b *testing.B) {
	benchFigure(b, "abl-conservative", [][2]string{
		{"conservative", "B"}, {"aggressive", "B"},
	})
}

// BenchmarkExtDynamicCapacity regenerates the §2.2 dynamic-interpretation
// property: halving B's server re-scales A's transitive entitlement from
// 480 to 400 req/s mid-run.
func BenchmarkExtDynamicCapacity(b *testing.B) {
	benchFigure(b, "ext-dynamic", [][2]string{{"degraded", "A"}, {"degraded", "B"}})
}

// BenchmarkExtFailover regenerates the redirector-failure scenario: the
// combining tree reconfigures and the 70/30 split survives.
func BenchmarkExtFailover(b *testing.B) {
	benchFigure(b, "ext-failover", [][2]string{{"failed", "A"}, {"failed", "B"}})
}

// --- Microbenchmarks: the per-request and per-window costs that make the
// scheme viable at the paper's 100 ms windows. ---

func benchEngine(b *testing.B) (*Engine, Principal, Principal) {
	b.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	bb := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(bb, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{Mode: core.Community, System: s, NumRedirectors: 2})
	if err != nil {
		b.Fatal(err)
	}
	return eng, a, bb
}

// BenchmarkAdmitPerRequest measures the per-request admission cost (the
// paper's L4 switch spends <15% CPU; ours is nanoseconds per decision).
func BenchmarkAdmitPerRequest(b *testing.B) {
	eng, a, _ := benchEngine(b)
	r := eng.NewRedirector(0)
	r.SetGlobal([]float64{1e12, 1e12}, 0)
	for i := 0; i < 200; i++ {
		r.Admit(a)
	}
	if err := r.StartWindow(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Admit(a)
	}
}

// benchPlane builds a sharded admission plane over a community with enough
// capacity (and a warmed-up grant) that a full benchmark run never drains
// the window's credits — every iteration measures the admit path, not the
// reject path.
func benchPlane(b *testing.B, shards int) (*admission.Plane, Principal) {
	b.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 1e9)
	bb := s.MustAddPrincipal("B", 1e9)
	s.MustSetAgreement(bb, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Community, System: s, NumRedirectors: 1, Window: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	red := eng.NewRedirector(0)
	pl, err := admission.New(admission.Config{Redirector: red, Engine: eng, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	demand := []float64{1e9, 1e9}
	for w := 0; w < 3; w++ {
		red.AddWindowSample(demand, nil, 0, 0)
		red.SetGlobal(demand, time.Duration(w)*time.Second)
		if err := pl.StartWindow(time.Duration(w) * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	return pl, a
}

// BenchmarkAdmitParallel measures concurrent admission throughput through
// the sharded admission plane: shards=1 serializes every CAS on one credit
// cell (the moral equivalent of the old global mutex), shards=8 gives each
// core its own cache line. On multi-core hardware the sharded variant
// scales near-linearly; the steals/op metric confirms the steady state
// stays on the shard-local fast path.
func BenchmarkAdmitParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pl, a := benchPlane(b, shards)
			var rejected atomic.Int64
			b.ReportAllocs()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if !pl.Admit(a).Admitted {
						rejected.Add(1)
					}
				}
			})
			b.StopTimer()
			if r := rejected.Load(); r > 0 {
				b.Fatalf("%d rejects: credits drained mid-run, timings are polluted", r)
			}
			b.ReportMetric(float64(pl.Steals())/float64(b.N), "steals/op")
		})
	}
}

// BenchmarkWindowSchedule measures one full window computation (EWMA fold +
// LP solve + credit refill) — the work done every 100 ms.
func BenchmarkWindowSchedule(b *testing.B) {
	eng, a, bb := benchEngine(b)
	r := eng.NewRedirector(0)
	for i := 0; i < 80; i++ {
		r.Admit(a)
	}
	for i := 0; i < 40; i++ {
		r.Admit(bb)
	}
	r.SetGlobal([]float64{80, 40}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.StartWindow(time.Duration(i) * 100 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowScheduleSteadyState measures the fast path's common case:
// four redirectors, each on its own engine, re-scheduling an unchanged queue
// vector window after window, where each engine's plan cache collapses its
// windows' solves into one LP solve total. The fleet's cache hit rate is
// reported alongside the timing.
func BenchmarkWindowScheduleSteadyState(b *testing.B) {
	const R = 4
	engs := make([]*Engine, R)
	reds := make([]*core.Redirector, R)
	for ri := range reds {
		eng, a, bb := benchEngine(b)
		engs[ri], reds[ri] = eng, eng.NewRedirector(ri)
		for i := 0; i < 80; i++ {
			reds[ri].Admit(a)
		}
		for i := 0; i < 40; i++ {
			reds[ri].Admit(bb)
		}
		reds[ri].SetGlobal([]float64{80, 40}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		for _, r := range reds {
			if err := r.StartWindow(now); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	var hits, solves int64
	for _, eng := range engs {
		hits += eng.Stats().CacheHits()
		solves += eng.Stats().Solves()
	}
	b.ReportMetric(float64(hits)/float64(b.N*R), "cache_hit_rate")
	b.ReportMetric(float64(solves)/float64(b.N*R), "solves/window")
}

// TestWindowComputationBudget is a performance regression guard: one window
// computation must complete in a small fraction of the 100 ms window even
// for a ten-principal community, or the enforcement scheme stops being
// "fine-grained".
func TestWindowComputationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := agreement.New()
	var ps []Principal
	for i := 0; i < 10; i++ {
		ps = append(ps, s.MustAddPrincipal(string(rune('A'+i)), 100))
	}
	for i := 0; i+1 < 10; i++ {
		s.MustSetAgreement(ps[i], ps[i+1], 0.3, 0.7)
	}
	eng, err := core.NewEngine(core.Config{Mode: core.Community, System: s, NumRedirectors: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := eng.NewRedirector(0)
	q := make([]float64, 10)
	for i := range q {
		q[i] = 50
		for j := 0; j < 50; j++ {
			r.Admit(ps[i])
		}
	}
	r.SetGlobal(q, 0)
	const windows = 50
	start := time.Now()
	for w := 0; w < windows; w++ {
		if err := r.StartWindow(time.Duration(w) * 100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	per := time.Since(start) / windows
	if per > 10*time.Millisecond {
		t.Fatalf("window computation takes %v, exceeds 10%% of the 100 ms window", per)
	}
}

// BenchmarkFlowsTenPrincipals measures folding a 10-principal transitive
// agreement chain into entitlements (done once per agreement change).
func BenchmarkFlowsTenPrincipals(b *testing.B) {
	s := agreement.New()
	var ps []Principal
	for i := 0; i < 10; i++ {
		ps = append(ps, s.MustAddPrincipal(string(rune('A'+i)), 100))
	}
	for i := 0; i+1 < 10; i++ {
		s.MustSetAgreement(ps[i], ps[i+1], 0.3, 0.7)
	}
	for i := 0; i+2 < 10; i += 2 {
		s.MustSetAgreement(ps[i+2], ps[i], 0.2, 0.4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SystemAccess(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowTraceOverhead measures the observability cost added to
// every window: filling one trace record, snapshotting the combining-tree
// counters, and committing into the ring + auditor. The path must stay at
// 0 allocs/op — it runs inside the window loop's critical section.
func BenchmarkWindowTraceOverhead(b *testing.B) {
	eng, _, _ := benchEngine(b)
	o := eng.NewObserver(0, nil, 0)
	o.SetTreeInfo(func() obs.TreeInfo {
		return obs.TreeInfo{Epoch: 1, GlobalEpoch: 1, MsgsIn: 2, MsgsOut: 2}
	})
	rec := o.NewRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Window = uint64(i)
		rec.Conservative = i%7 == 0
		rec.CacheHit = i%2 == 0
		for p := range rec.Local {
			rec.Local[p] = float64(i)
			rec.Granted[p] = float64(i)
			rec.Floor[p] = float64(i)
			rec.Ceil[p] = float64(i + 1)
			rec.Arrived[p] = float64(i)
			rec.Served[p] = float64(i)
		}
		o.FillTree(rec)
		o.Commit(rec)
	}
}

// BenchmarkWindowScheduleTraced is BenchmarkWindowSchedule with an observer
// attached — the delta between the two is the real-world tracing overhead
// of the full window computation.
func BenchmarkWindowScheduleTraced(b *testing.B) {
	eng, a, bb := benchEngine(b)
	r := eng.NewRedirector(0)
	r.SetObserver(eng.NewObserver(0, nil, 0))
	for i := 0; i < 80; i++ {
		r.Admit(a)
	}
	for i := 0; i < 40; i++ {
		r.Admit(bb)
	}
	r.SetGlobal([]float64{80, 40}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.StartWindow(time.Duration(i) * 100 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanOverhead measures the per-request cost of the tracing span
// path on the admission fast path. Both variants must stay at 0 allocs/op:
// /off is the price every request pays when tracing is disabled (one
// predicted branch per stamp), /sampled the full Begin → stamps → Finish
// record path with 1% head sampling plus a slowest-8 tail keeper — the
// production sweep configuration.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		tr := obs.NewTracer(obs.TraceConfig{}, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.Begin("alpha")
			sp.StampAdmit(obs.VerdictAdmit, 0)
			sp.StampBackend()
			sp.Finish()
		}
	})
	b.Run("sampled", func(b *testing.B) {
		tr := obs.NewTracer(obs.TraceConfig{SampleEvery: 100, SlowestK: 8}, 0)
		tr.StartWindow(1, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.Begin("alpha")
			sp.StampAdmit(obs.VerdictAdmit, 0)
			sp.StampBackend()
			sp.Finish()
		}
	})
}
