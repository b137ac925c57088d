package l4

import (
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/persist"
)

// TestBootRestore pins the crash-recovery boot path at Layer 4: a switch
// handed a store holding a window record and a newer agreement set resumes
// from them — window sequence restored, recovered set staged and
// committed — and keeps appending its own records to the same store.
func TestBootRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Community, System: s, Window: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// What the previous process left behind: a renegotiated set (v3) and
	// the last window's state.
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Clone()
	if err := prev.SetAgreement(b, a, 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	set := prev.Snapshot(3)
	if err := st.SaveSet(set); err != nil {
		t.Fatal(err)
	}
	ws := persist.WindowState{
		WindowSeq:  42,
		Epoch:      42,
		SetVersion: 3,
		Estimate:   []float64{7, 5},
		Credit:     [][]float64{{3, 0}, {1, 2}},
	}
	if err := st.AppendWindow(ws); err != nil {
		t.Fatal(err)
	}

	bk, err := NewBackend("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	r, err := NewRedirector(Config{
		Engine:   eng,
		Services: []ServiceSpec{{Principal: a, Addr: "127.0.0.1:0"}},
		Backends: map[agreement.Principal][]string{b: {bk.Addr()}},
		Persist:  st,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The recovered set committed (gate 0) and version numbering resumed.
	if got := eng.LastSetVersion(); got != 3 {
		t.Fatalf("recovered set version = %d, want 3", got)
	}
	// The window sequence resumed from the durable record, not from zero.
	if windows, _, _ := r.WindowStats(); windows < 42 {
		t.Fatalf("window sequence = %d, want >= 42 (restored)", windows)
	}

	// The live process keeps extending the same log past the restored seq.
	deadline := time.Now().Add(5 * time.Second)
	for {
		last, ok := st.LastWindow()
		if ok && last.WindowSeq > 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable window record appended past the restored sequence")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close checkpointed: the log replays to the newest record.
	last, ok := st.LastWindow()
	if !ok || last.WindowSeq <= 42 {
		t.Fatalf("post-close LastWindow = (%+v, %v), want seq > 42", last, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowZeroFirstConnectionSpliced: the first connection a fresh switch
// accepts is spliced to a backend on window 0's blind grant, before any
// window boundary — nothing parks waiting for one.
func TestWindowZeroFirstConnectionSpliced(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	c := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(sp, c, 0.5, 1)
	// A window far longer than the test: every decision here is window 0's.
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	bk, err := NewBackend("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	r, err := NewRedirector(Config{
		Engine:   eng,
		Services: []ServiceSpec{{Principal: c, Addr: "127.0.0.1:0"}},
		Backends: map[agreement.Principal][]string{sp: {bk.Addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ok, err := Do(r.Addr(c), "GET /first", 5*time.Second); err != nil || !ok {
		t.Fatalf("first connection: ok=%v err=%v", ok, err)
	}
	if forwarded, parked, _, _ := r.Stats(); forwarded != 1 || parked != 0 {
		t.Fatalf("forwarded %d, parked %d; want the first connection spliced at once", forwarded, parked)
	}
	if windows, _, _ := r.WindowStats(); windows != 0 {
		t.Fatalf("%d window boundaries ran; the test needs window 0", windows)
	}
}
