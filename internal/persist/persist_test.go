package persist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/core"
)

// openStore opens a store under a test temp dir, failing the test on error.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestColdStart pins the empty/missing-directory contract: Open creates the
// directory, LastWindow reports nothing, and LoadNewestSet is (nil, nil).
func TestColdStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist", "yet")
	s := openStore(t, dir)
	defer s.Close()
	if _, ok := s.LastWindow(); ok {
		t.Fatal("cold store reported a window record")
	}
	set, err := s.LoadNewestSet()
	if err != nil || set != nil {
		t.Fatalf("cold store LoadNewestSet = (%v, %v), want (nil, nil)", set, err)
	}
}

// TestAppendReplay pins the round trip: appended records survive Close and
// reopen, with the newest record winning.
func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for w := 1; w <= 5; w++ {
		ws := WindowState{
			WindowSeq:  w,
			Epoch:      10 + w,
			SetVersion: uint64(w),
			Gate:       7,
			Credit:     [][]float64{{float64(w), 0}, {0, float64(w)}},
			Estimate:   []float64{float64(w) * 1.5, 2},
		}
		if err := s.AppendWindow(ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	ws, ok := s2.LastWindow()
	if !ok {
		t.Fatal("no record after replay")
	}
	if ws.WindowSeq != 5 || ws.Epoch != 15 || ws.SetVersion != 5 || ws.Gate != 7 {
		t.Fatalf("replayed record %+v, want window 5 / epoch 15 / set 5 / gate 7", ws)
	}
	if ws.Credit[0][0] != 5 || ws.Estimate[0] != 7.5 {
		t.Fatalf("replayed payload %+v", ws)
	}
}

// TestTornFinalRecord pins corruption tolerance: a crash mid-append leaves
// a torn frame at the tail; replay must truncate exactly that frame, keep
// the last complete record, and leave the log appendable.
func TestTornFinalRecord(t *testing.T) {
	tears := map[string]func(full []byte) []byte{
		// Only half the frame header made it out.
		"short-header": func(full []byte) []byte { return full[:4] },
		// Header complete, payload cut off.
		"short-payload": func(full []byte) []byte { return full[:len(full)-3] },
		// Whole frame present but a payload byte flipped (CRC mismatch).
		"bit-flip": func(full []byte) []byte {
			full[len(full)-2] ^= 0x40
			return full
		},
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir)
			if err := s.AppendWindow(WindowState{WindowSeq: 1, Epoch: 3}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendWindow(WindowState{WindowSeq: 2, Epoch: 4}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash: hand-append a torn third record.
			torn := appendFrame(nil, &WindowState{WindowSeq: 3, Epoch: 5})
			f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear(torn)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := openStore(t, dir)
			ws, ok := s2.LastWindow()
			if !ok || ws.WindowSeq != 2 || ws.Epoch != 4 {
				t.Fatalf("after torn tail: record %+v ok=%v, want window 2", ws, ok)
			}
			// The tail was truncated: a fresh append then replays cleanly.
			if err := s2.AppendWindow(WindowState{WindowSeq: 7, Epoch: 9}); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := openStore(t, dir)
			defer s3.Close()
			if ws, ok := s3.LastWindow(); !ok || ws.WindowSeq != 7 {
				t.Fatalf("post-truncate append lost: %+v ok=%v", ws, ok)
			}
		})
	}
}

// TestDuplicateRecordsNewestWins pins replay order: re-persisted duplicates
// of the same window (and of the same set version) resolve to the newest
// write, for both the log and the snapshot files.
func TestDuplicateRecordsNewestWins(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendWindow(WindowState{WindowSeq: 4, Epoch: 1, Estimate: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWindow(WindowState{WindowSeq: 4, Epoch: 2, Estimate: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	ws, ok := s2.LastWindow()
	if !ok || ws.Epoch != 2 || ws.Estimate[0] != 9 {
		t.Fatalf("duplicate window replay = %+v, want the newest write", ws)
	}

	sys := agreement.New()
	sys.MustAddPrincipal("A", 100)
	sys.MustAddPrincipal("B", 100)
	if err := s2.SaveSet(sys.Snapshot(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSet(sys.Snapshot(3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSet(sys.Snapshot(3)); err != nil { // idempotent re-save
		t.Fatal(err)
	}
	// A corrupt higher-versioned snapshot file must be skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "set-9.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, dir)
	defer s3.Close()
	set, err := s3.LoadNewestSet()
	if err != nil {
		t.Fatal(err)
	}
	if set == nil || set.Version != 3 {
		t.Fatalf("LoadNewestSet = %+v, want version 3", set)
	}
}

// TestSetLeasesSurviveStore: a set's lease list is part of what the store
// keeps, so a recovered member deposits the same lease credit.
func TestSetLeasesSurviveStore(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	sys := agreement.New()
	a := sys.MustAddPrincipal("A", 100)
	b := sys.MustAddPrincipal("B", 60)
	set := sys.Snapshot(2)
	set.Leases = []agreement.SetLease{{Holder: b, Owner: a, Rate: 40}}
	if err := s.SaveSet(set); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	got, err := s2.LoadNewestSet()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, set) {
		t.Fatalf("LoadNewestSet = %+v, want %+v", got, set)
	}
}

// TestCheckpointCompacts pins the checkpoint contract: the log shrinks to
// one record, the newest state survives reopen, and appends keep working on
// the compacted file.
func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for w := 1; w <= 50; w++ {
		if err := s.AppendWindow(WindowState{WindowSeq: w, Estimate: []float64{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("checkpoint did not compact: %d -> %d bytes", before.Size(), after.Size())
	}
	if err := s.AppendWindow(WindowState{WindowSeq: 51}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	if ws, ok := s2.LastWindow(); !ok || ws.WindowSeq != 51 {
		t.Fatalf("post-checkpoint state = %+v ok=%v, want window 51", ws, ok)
	}
}

// TestConcurrentWriterCheckpointer hammers AppendWindow from one goroutine
// and Checkpoint from another; run with -race. Afterwards the log must
// replay to the newest appended record.
func TestConcurrentWriterCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const writes = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for w := 1; w <= writes; w++ {
			if err := s.AppendWindow(WindowState{WindowSeq: w, Estimate: []float64{float64(w)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	ws, ok := s2.LastWindow()
	if !ok || ws.WindowSeq != writes {
		t.Fatalf("after concurrent writer+checkpointer: %+v ok=%v, want window %d", ws, ok, writes)
	}
}

// TestKillNineLosesAtMostOneWindow is the acceptance bound for crash
// recovery: a redirector persisting its post-schedule state every window
// and then killed -9 mid-window recovers, via RestoreState, exactly the
// credit accounting it persisted at the last window boundary — the only
// state lost is the window in flight.
func TestKillNineLosesAtMostOneWindow(t *testing.T) {
	sys := agreement.New()
	a := sys.MustAddPrincipal("A", 320)
	b := sys.MustAddPrincipal("B", 320)
	sys.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode:           core.Community,
		System:         sys,
		Window:         100 * time.Millisecond,
		NumRedirectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := openStore(t, dir)
	n := eng.NumPrincipals()
	red := eng.NewRedirector(0)
	global := []float64{60, 20}
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	persisted := WindowState{}
	for w := 1; w <= 6; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		red.SetGlobal(global, now)
		if err := red.StartWindow(now); err != nil {
			t.Fatal(err)
		}
		// Checkpoint the freshly scheduled window, exactly as the window
		// loop does, then admit traffic (which the checkpoint by design
		// does not see — that is the ≤ 1 window of loss).
		red.ExportCredits(matrix, nil)
		persisted = WindowState{
			WindowSeq: red.Windows,
			Credit:    deepCopy(matrix),
			Estimate:  red.ExportEstimate(nil),
		}
		if err := s.AppendWindow(persisted); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 25; k++ {
			red.Admit(a)
			red.Admit(b)
		}
	}
	// kill -9: nothing else is flushed; the store is reopened by the "new
	// process".
	s2 := openStore(t, dir)
	defer s2.Close()
	ws, ok := s2.LastWindow()
	if !ok {
		t.Fatal("no durable record after crash")
	}
	if ws.WindowSeq != persisted.WindowSeq {
		t.Fatalf("recovered window %d, want the last persisted %d", ws.WindowSeq, persisted.WindowSeq)
	}

	recovered := eng.NewRedirector(0)
	recovered.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, nil)
	if recovered.Windows != persisted.WindowSeq {
		t.Fatalf("recovered window counter %d, want %d", recovered.Windows, persisted.WindowSeq)
	}
	for i := 0; i < n; i++ {
		if got, want := recovered.ExportEstimate(nil)[i], persisted.Estimate[i]; got != want {
			t.Fatalf("estimate[%d] recovered %v, want %v", i, got, want)
		}
	}
	// Credit accounting: the last boundary's snapshot, not the mid-window
	// in-memory state, is the carry basis of the recovered window 0 — its
	// blind grant (MC_i/R, R = 1) plus at most one request per snapshot
	// cell. Neither the snapshot nor the crashed process's leftover is
	// re-minted.
	var recCredit, want float64
	for i := 0; i < n; i++ {
		recCredit += recovered.CreditsRemaining(agreement.Principal(i))
		want += eng.Access().MC[i]
		for k := 0; k < n; k++ {
			want += math.Min(1, persisted.Credit[i][k])
		}
	}
	if math.Abs(recCredit-want) > 1e-9 {
		t.Fatalf("recovered credit %v, want blind grant + carried snapshot %v", recCredit, want)
	}
}

// deepCopy clones a credit matrix so later exports cannot alias it.
func deepCopy(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

func TestLeaseTableRoundTripAndNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.LoadNewestLeases(); err != nil || got != nil {
		t.Fatalf("cold start: %v %v", got, err)
	}
	ledger := budget.NewLedger()
	if _, err := ledger.Grant("org", "svc", 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLeases(ledger.Snapshot(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Grant("org", "batch", 10, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLeases(ledger.Snapshot(2)); err != nil {
		t.Fatal(err)
	}
	// Re-saving an existing version is a no-op, and corrupt higher versions
	// are skipped in favor of the newest decodable table.
	if err := s.SaveLeases(ledger.Snapshot(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leases-3.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openStore(t, dir)
	defer s.Close()
	got, err := s.LoadNewestLeases()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Version != 2 || len(got.Leases) != 2 || got.Leases[1].Holder != "batch" {
		t.Fatalf("newest lease table: %+v", got)
	}
	restored := budget.NewLedger()
	if err := restored.Restore(got); err != nil {
		t.Fatal(err)
	}
	if restored.ReservedBy("org") != 40 {
		t.Fatalf("restored reservation = %v, want 40", restored.ReservedBy("org"))
	}
}

// TestSnapshotRetention pins what a long-lived state directory holds: after
// 100 saves of each kind only the newest two versions remain; a corrupt
// newest falls back to the one before it; a save older than both held is a
// no-op; and reading the newest snapshot back costs the same however many
// were ever saved.
func TestSnapshotRetention(t *testing.T) {
	sys := agreement.New()
	a := sys.MustAddPrincipal("A", 100)
	b := sys.MustAddPrincipal("B", 100)
	sys.MustSetAgreement(a, b, 0.2, 0.5)
	ledger := budget.NewLedger()
	if _, err := ledger.Grant("A", "B", 10, 0); err != nil {
		t.Fatal(err)
	}
	// Both histories end at version 100, so the file read back is the same.
	fill := func(dir string, saves int) {
		s := openStore(t, dir)
		defer s.Close()
		for v := uint64(101 - saves); v <= 100; v++ {
			if err := s.SaveSet(sys.Snapshot(v)); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveLeases(ledger.Snapshot(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	long, short := t.TempDir(), t.TempDir()
	fill(long, 100)
	fill(short, 3)

	entries, err := os.ReadDir(long)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != walName {
			names = append(names, e.Name())
		}
	}
	want := []string{"leases-100.json", "leases-99.json", "set-100.json", "set-99.json"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("after 100 saves the directory holds %v, want %v", names, want)
	}

	// Reading back costs the same after 3 saves as after 100.
	loadAllocs := func(dir string) float64 {
		s := openStore(t, dir)
		defer s.Close()
		return testing.AllocsPerRun(20, func() {
			if set, err := s.LoadNewestSet(); err != nil || set == nil {
				t.Fatalf("LoadNewestSet = (%v, %v)", set, err)
			}
		})
	}
	if l, sh := loadAllocs(long), loadAllocs(short); l != sh {
		t.Fatalf("LoadNewestSet allocates %v times after 100 saves and %v after 3", l, sh)
	}

	// A torn newest snapshot falls back to the previous version.
	for _, torn := range []string{"set-100.json", "leases-100.json"} {
		if err := os.WriteFile(filepath.Join(long, torn), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, long)
	defer s.Close()
	if set, err := s.LoadNewestSet(); err != nil || set == nil || set.Version != 99 {
		t.Fatalf("corrupt newest set: LoadNewestSet = (%+v, %v), want version 99", set, err)
	}
	if tbl, err := s.LoadNewestLeases(); err != nil || tbl == nil || tbl.Version != 99 {
		t.Fatalf("corrupt newest lease table: LoadNewestLeases = (%+v, %v), want version 99", tbl, err)
	}
	// A stale version is not written back.
	if err := s.SaveSet(sys.Snapshot(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(long, "set-50.json")); !os.IsNotExist(err) {
		t.Fatalf("a save older than both held versions reached the disk (stat err %v)", err)
	}
}
