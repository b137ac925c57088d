package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/loadgen"
)

// Pinned replay outcomes: a change that moves either is a change to what
// the simulator computes, and must say so.
var (
	wantPlay   = [6]int{2444, 1457, 987, 1623, 272, 1351}
	wantDigest = uint64(0xb704e86eedcc6818)
)

// playOnce builds a fresh one-redirector sim, replays seeded loadgen
// schedules for principals A and B, and returns the full outcome tuple.
func playOnce(t *testing.T) [6]int {
	t.Helper()
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
	dur := 20 * time.Second
	schedA := loadgen.Stream{Principal: int(a), Rate: 120, Process: loadgen.Poisson, Seed: 11}.Schedule(dur)
	schedB := loadgen.Stream{Principal: int(b), Rate: 80, Process: loadgen.Bursty, Seed: 12,
		BurstOn: 2 * time.Second, BurstOff: 2 * time.Second}.Schedule(dur)
	stA := sm.PlaySchedule(0, int(a), schedA)
	stB := sm.PlaySchedule(0, int(b), schedB)
	sm.Run(dur + time.Second)
	return [6]int{stA.Submitted, stA.Admitted, stA.Denied,
		stB.Submitted, stB.Admitted, stB.Denied}
}

func TestPlayScheduleDeterministicReplay(t *testing.T) {
	// The loadgen arrival processes replayed over virtual time must yield
	// the exact same admit/deny outcome on every run — schedules are
	// seeded and the simulator itself is deterministic.
	first := playOnce(t)
	if first != wantPlay {
		t.Errorf("replay outcome %v, pinned %v", first, wantPlay)
	}
	if first[0] == 0 || first[3] == 0 {
		t.Fatalf("no submissions: %v", first)
	}
	if first[1] == 0 {
		t.Fatalf("principal A had nothing admitted: %v", first)
	}
	// A at 120/s against a floor of 70: the open-loop stream must see
	// denials once both principals contend (no retries to mask them).
	if first[2] == 0 {
		t.Fatalf("overloaded open-loop stream saw no denials: %v", first)
	}
	for run := 1; run < 3; run++ {
		if again := playOnce(t); again != first {
			t.Fatalf("replay %d diverged: %v vs %v", run, again, first)
		}
	}
}

// divergentDigest runs a three-redirector community fleet whose members
// never agree on the global aggregate — the tree delay exceeds the window,
// so the root plans on fresher queues than its children, and demand differs
// per redirector — with failure detection armed and a mid-run crash and
// restart, and returns the run's digest.
func divergentDigest(t *testing.T) uint64 {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng := core.Config{Mode: core.Community, System: s, NumRedirectors: 3}
	sm, err := New(Config{
		Engine:      eng,
		Redirectors: 3,
		Servers: []ServerSpec{
			{Owner: a, Capacity: 160, Count: 2},
			{Owner: b, Capacity: 160, Count: 2},
		},
		Names:          []string{"A", "B"},
		MaxBacklog:     200,
		TreeDelay:      250 * time.Millisecond,
		FailureTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dur = 30 * time.Second
	for ri, st := range []loadgen.Stream{
		{Principal: int(a), Rate: 300, Process: loadgen.Poisson, Seed: 21},
		{Principal: int(b), Rate: 250, Process: loadgen.Bursty, Seed: 22,
			BurstOn: 2 * time.Second, BurstOff: time.Second},
		{Principal: int(b), Rate: 350, Process: loadgen.Poisson, Seed: 23},
	} {
		sm.PlaySchedule(ri, st.Principal, st.Schedule(dur))
	}
	sm.At(10050*time.Millisecond, func() { sm.FailRedirector(2) })
	sm.At(20050*time.Millisecond, func() { sm.RestartRedirector(2) })
	sm.Run(dur)
	if sm.Reconfigurations == 0 {
		t.Fatal("the crash was never detected: the scenario lost its failure-detection leg")
	}
	// The root plans on fresher queues than its child: in most windows both
	// traced, they scheduled against different global aggregates.
	rootGlobal := map[uint64][]float64{}
	for _, rec := range sm.Redirectors[0].Observer().Ring().Snapshot(0) {
		rootGlobal[rec.Window] = rec.Global
	}
	same, differ := 0, 0
	for _, rec := range sm.Redirectors[1].Observer().Ring().Snapshot(0) {
		if g, ok := rootGlobal[rec.Window]; ok && slices.Equal(g, rec.Global) {
			same++
		} else if ok {
			differ++
		}
	}
	if differ <= same {
		t.Fatalf("root and child agreed on the aggregate in %d of %d windows: nothing diverged",
			same, same+differ)
	}
	return sm.Digest()
}

// TestReplayIndependentOfScheduler pins determinism by construction: the
// same scenario digests identically with one OS thread and with four,
// because nothing in the simulator runs on a second goroutine.
func TestReplayIndependentOfScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := divergentDigest(t)
	if one != wantDigest {
		t.Errorf("digest %#x at GOMAXPROCS=1, pinned %#x", one, wantDigest)
	}
	runtime.GOMAXPROCS(4)
	if four := divergentDigest(t); four != one {
		t.Fatalf("digest %#x at GOMAXPROCS=4, %#x at 1", four, one)
	}
}
