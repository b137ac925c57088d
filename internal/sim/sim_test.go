package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/workload"
)

func testEngine(t testing.TB, redirectors int) (core.Config, agreement.Principal, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.7, 1)
	s.MustSetAgreement(sp, b, 0.3, 1)
	eng := core.Config{
		Mode:              core.Provider,
		System:            s,
		ProviderPrincipal: sp,
		NumRedirectors:    redirectors,
	}
	return eng, sp, a, b
}

func TestConfigValidation(t *testing.T) {
	eng, sp, _, _ := testEngine(t, 1)
	cases := []Config{
		{},
		{Engine: eng},
		{Engine: eng, Redirectors: 1},
		{Engine: eng, Redirectors: 1, Servers: []ServerSpec{{Owner: sp, Capacity: 0, Count: 1}}},
		{Engine: eng, Redirectors: 1, Servers: []ServerSpec{{Owner: sp, Capacity: 10, Count: 1}}, Names: []string{"x"}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEndToEndEnforcement(t *testing.T) {
	eng, sp, a, b := testEngine(t, 1)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 1,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Names:       []string{"S", "A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ca := sm.NewClient(0, workload.Config{Principal: int(a), Rate: 200})
	cb := sm.NewClient(0, workload.Config{Principal: int(b), Rate: 200})
	ca.SetActive(true)
	cb.SetActive(true)
	sm.Run(30 * time.Second)

	// Both overloaded: mandatory shares bind — A 70/s, B 30/s.
	rateA := sm.Recorder.MeanRateBetween(int(a), 10*time.Second, 29*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 10*time.Second, 29*time.Second)
	if math.Abs(rateA-70) > 5 || math.Abs(rateB-30) > 5 {
		t.Fatalf("rates = %.1f/%.1f, want ≈70/30", rateA, rateB)
	}
}

func TestAdmitRecorderTracksAdmissions(t *testing.T) {
	eng, sp, a, _ := testEngine(t, 1)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 1,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sm.NewClient(0, workload.Config{Principal: int(a), Rate: 50})
	c.SetActive(true)
	sm.Run(10 * time.Second)
	adm := sm.Admit.MeanRateBetween(int(a), 5*time.Second, 9*time.Second)
	if math.Abs(adm-50) > 5 {
		t.Fatalf("admit rate = %.1f, want ≈50", adm)
	}
}

func TestMultiServerLeastLoaded(t *testing.T) {
	eng, sp, a, _ := testEngine(t, 1)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 1,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 50, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sm.NewClient(0, workload.Config{Principal: int(a), Rate: 60})
	c.SetActive(true)
	sm.Run(20 * time.Second)
	s0 := sm.Servers[sp][0]
	s1 := sm.Servers[sp][1]
	if s0.Completed == 0 || s1.Completed == 0 {
		t.Fatalf("load not spread: %d/%d", s0.Completed, s1.Completed)
	}
	ratio := float64(s0.Completed) / float64(s1.Completed)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("imbalanced spread: %d vs %d", s0.Completed, s1.Completed)
	}
}

func TestTwoRedirectorsShareEnforcement(t *testing.T) {
	eng, sp, a, b := testEngine(t, 2)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A's load split across both redirectors; B's on one.
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 100}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(a), Rate: 100}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 200}).SetActive(true)
	sm.Run(30 * time.Second)
	rateA := sm.Recorder.MeanRateBetween(int(a), 10*time.Second, 29*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 10*time.Second, 29*time.Second)
	if math.Abs(rateA-70) > 6 || math.Abs(rateB-30) > 6 {
		t.Fatalf("rates = %.1f/%.1f, want ≈70/30 across redirectors", rateA, rateB)
	}
}

func TestSizeAwareScheduling(t *testing.T) {
	// Equal [0.5, 0.5] shares of a 100-units/s provider; A sends 12 KB
	// requests (cost 2 at a 6 KB mean), B sends 3 KB (cost 0.5). Byte-
	// weighted enforcement gives each 50 units/s: A ≈ 25 req/s, B ≈ 100.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.5, 0.5)
	s.MustSetAgreement(sp, b, 0.5, 0.5)
	eng := core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, NumRedirectors: 1,
	}
	sm, err := New(Config{
		Engine:           eng,
		Redirectors:      1,
		Servers:          []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Names:            []string{"S", "A", "B"},
		MeanRequestBytes: 6144,
	})
	if err != nil {
		t.Fatal(err)
	}
	sm.NewClient(0, workload.Config{
		Principal: int(a), Rate: 100, Sizes: workload.FixedSize(12288),
	}).SetActive(true)
	sm.NewClient(0, workload.Config{
		Principal: int(b), Rate: 300, Sizes: workload.FixedSize(3072),
	}).SetActive(true)
	sm.Run(30 * time.Second)

	rateA := sm.Recorder.MeanRateBetween(int(a), 10*time.Second, 29*time.Second)
	rateB := sm.Recorder.MeanRateBetween(int(b), 10*time.Second, 29*time.Second)
	if math.Abs(rateA-25) > 3 || math.Abs(rateB-100) > 8 {
		t.Fatalf("rates = %.1f/%.1f req/s, want ≈25/100 (equal byte shares)", rateA, rateB)
	}
	// Byte-weighted work is equal: 2·A ≈ 0.5·B.
	if work := 2 * rateA / (0.5 * rateB); work < 0.85 || work > 1.15 {
		t.Fatalf("byte-share ratio = %.2f, want ≈1", work)
	}
}

func TestResponseTimesRecorded(t *testing.T) {
	// Figure 7 setup: community, equal agreements, A with twice B's load.
	// Max–min equalizes served queue fractions, so both principals see
	// comparable response times — the metric the community LP stands for.
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 250)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.2, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)
	eng := core.Config{Mode: core.Community, System: s, NumRedirectors: 1}
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 1,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 250, Count: 1}},
		Names:       []string{"S", "A", "B"},
		MaxBacklog:  125,
	})
	if err != nil {
		t.Fatal(err)
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 270}).SetActive(true)
	sm.NewClient(0, workload.Config{Principal: int(b), Rate: 135}).SetActive(true)
	sm.Run(30 * time.Second)

	if sm.Latency[a].Count() == 0 || sm.Latency[b].Count() == 0 {
		t.Fatal("no latency observations")
	}
	meanA := sm.Latency[a].Mean().Seconds()
	meanB := sm.Latency[b].Mean().Seconds()
	if meanA <= 0 || meanB <= 0 {
		t.Fatalf("means = %v/%v", meanA, meanB)
	}
	// Equal served fractions ⇒ response times within 2× of each other.
	ratio := meanA / meanB
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("response-time ratio = %.2f (A %.3fs, B %.3fs), want ≈1", ratio, meanA, meanB)
	}
	if sm.Latency[a].Quantile(0.95) < sm.Latency[a].Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
}

func TestSetTreeDelayAndStop(t *testing.T) {
	eng, sp, a, _ := testEngine(t, 2)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sm.SetTreeDelay(2 * time.Second)
	c := sm.NewClient(1, workload.Config{Principal: int(a), Rate: 100})
	c.SetActive(true)
	sm.Run(time.Second)
	// Leaf redirector (1) cannot have received a broadcast yet.
	if _, _, ok := sm.Redirectors[1].WindowStats(); ok {
		t.Fatal("broadcast arrived before the delay elapsed")
	}
	sm.Run(6 * time.Second)
	if _, _, ok := sm.Redirectors[1].WindowStats(); !ok {
		t.Fatal("broadcast never arrived")
	}
	sm.Stop() // window driver halts; no further events accumulate
	pendingBefore := sm.Clock.Pending()
	sm.Run(7 * time.Second)
	if sm.Clock.Pending() > pendingBefore {
		t.Fatal("events still accumulating after Stop")
	}
}

// TestTraceDepthWiresObservability: every member traces at the default
// ring depth, and every observer folds into the one shared Auditor.
func TestTraceDepthWiresObservability(t *testing.T) {
	eng, sp, a, b := testEngine(t, 2)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
		Names:       []string{"S", "A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rn := range sm.Redirectors {
		if o := rn.Observer(); o == nil || o.Auditor() != sm.Auditor {
			t.Fatalf("redirector %d: observer not folding into the shared auditor", i)
		}
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 150}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 150}).SetActive(true)
	sm.Run(5 * time.Second)

	// ~50 windows per redirector in 5 s of virtual time at the 100 ms
	// default; the shared auditor sees both redirectors' commits.
	if got := sm.Auditor.Windows(); got < 80 {
		t.Fatalf("auditor saw %d windows, want ≥80", got)
	}
	if sm.Auditor.Served(int(a)) <= 0 || sm.Auditor.Served(int(b)) <= 0 {
		t.Fatal("auditor accumulated no served volume")
	}
	for i, rn := range sm.Redirectors {
		recs := rn.Observer().Ring().Snapshot(0)
		if len(recs) == 0 {
			t.Fatalf("observer %d has an empty trace ring", i)
		}
		last := recs[len(recs)-1]
		if last.Redirector != i {
			t.Fatalf("observer %d record labeled redirector %d", i, last.Redirector)
		}
		if last.TreeMsgsOut == 0 && last.TreeMsgsIn == 0 {
			t.Fatalf("observer %d has no tree message counts", i)
		}
	}
}

// TestControlPlaneRacesParallelWindows runs control-plane mutations from a
// separate goroutine while the simulation's (serial) window loop schedules
// redirector windows against the same engine — the engine-side locking the
// real front-ends rely on, which the race detector must bless (CI runs this
// package under -race). The name predates the serial simulator. Determinism
// is irrelevant here; only synchronization is under test.
func TestControlPlaneRacesParallelWindows(t *testing.T) {
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng := core.Config{Mode: core.Community, System: s, NumRedirectors: 4}
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 4,
		Servers: []ServerSpec{
			{Owner: a, Capacity: 160, Count: 2},
			{Owner: b, Capacity: 160, Count: 2},
		},
		Names: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := sm.EnableControlPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 400}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 400}).SetActive(true)

	root := sm.Redirectors[0].Engine() // the control-plane host
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			lb := 0.25
			if i%2 == 1 {
				lb = 0.5
			}
			if _, err := plane.SetAgreement("B", "A", lb, lb); err != nil {
				t.Error(err)
				return
			}
			if _, err := root.UpdateSystem(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sm.Run(20 * time.Second)
	<-done
	if plane.Version() == 0 {
		t.Fatal("no mutation landed")
	}
}

// TestPersistentRunCompactsRecordLog runs a durable fleet for 600 windows:
// each member appends one record per window and compacts its record log
// every 256 appends, as a node process does, so each log ends with at most
// 256 records behind one checkpoint — and still replays to the newest
// window.
func TestPersistentRunCompactsRecordLog(t *testing.T) {
	eng, sp, a, b := testEngine(t, 2)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sm.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 80}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 80}).SetActive(true)
	sm.Run(60 * time.Second)
	if err := sm.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	for i := range sm.Redirectors {
		sub := filepath.Join(dir, fmt.Sprintf("r%d", i))
		wal, err := os.ReadFile(filepath.Join(sub, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		// Frames: 4-byte payload length, 4-byte CRC, payload.
		frames := 0
		for off := 0; off+8 <= len(wal); off += 8 + int(binary.LittleEndian.Uint32(wal[off:])) {
			frames++
		}
		if frames == 0 || frames > 256+1 {
			t.Fatalf("redirector %d: record log holds %d frames after 600 windows, want at most 257", i, frames)
		}
		st, err := persist.Open(sub)
		if err != nil {
			t.Fatal(err)
		}
		last, ok := st.LastWindow()
		st.Close()
		if windows, _, _ := sm.Redirectors[i].WindowStats(); !ok || last.WindowSeq != windows {
			t.Fatalf("redirector %d: newest record is window %d (%v), want %d", i, last.WindowSeq, ok, windows)
		}
	}
}

// TestAdmitsGoThroughTheAdmissionPlane: every request the simulation
// admitted was decided by the member's admission plane, the path l4 and l7
// admit on — each redirector's plane counts exactly the admissions recorded
// for the one principal whose client it serves.
func TestAdmitsGoThroughTheAdmissionPlane(t *testing.T) {
	eng, sp, a, b := testEngine(t, 2)
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 2,
		Servers:     []ServerSpec{{Owner: sp, Capacity: 100, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sm.NewClient(0, workload.Config{Principal: int(a), Rate: 150}).SetActive(true)
	sm.NewClient(1, workload.Config{Principal: int(b), Rate: 150}).SetActive(true)
	sm.Run(20 * time.Second)
	for i, p := range []agreement.Principal{a, b} {
		recorded := 0.0
		for _, v := range sm.Admit.Series(int(p)) {
			recorded += v
		}
		admits, rejects := sm.Redirectors[i].Admission().Counts()
		if recorded == 0 || rejects == 0 || float64(admits) != recorded {
			t.Fatalf("redirector %d: plane admitted %d (rejected %d), recorder holds %v admissions",
				i, admits, rejects, recorded)
		}
	}
}
