package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// windowRecord builds an n-principal record the way a node's boundary does:
// one set of buffers it overwrites for every window.
func windowRecord(n int) WindowState {
	ws := WindowState{Gate: 7, Credit: make([][]float64, n), CreditTotal: make([]float64, n), Estimate: make([]float64, n)}
	for i := range ws.Credit {
		ws.Credit[i] = make([]float64, n)
	}
	return ws
}

func fillRecord(ws *WindowState, w int) {
	ws.WindowSeq, ws.Epoch, ws.SetVersion = w, w+10, uint64(w/5)
	for i := range ws.Credit {
		for k := range ws.Credit[i] {
			ws.Credit[i][k] = float64(w) + float64(i)/16 + float64(k)/256
		}
		ws.CreditTotal[i] = float64(w * i)
		ws.Estimate[i] = float64(w) / float64(i+1)
	}
}

// TestStoreOwnsItsRecord appends records from one set of caller buffers that
// is overwritten as soon as each append returns — what node.persistWindowLocked
// does at the next boundary, under a different mutex — while Checkpoint and
// LastWindow run on other goroutines. Run with -race: the store must keep
// nothing of the caller's. Every LastWindow, the compacted log and the
// reopened store must show a record exactly as it was appended.
func TestStoreOwnsItsRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	const n, windows = 4, 150
	want := func(w int) WindowState {
		ws := windowRecord(n)
		fillRecord(&ws, w)
		return ws
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got, ok := s.LastWindow()
			if !ok {
				continue
			}
			if exp := want(got.WindowSeq); !reflect.DeepEqual(got, exp) {
				t.Errorf("LastWindow returned a record nobody appended:\n got %+v\nwant %+v", got, exp)
				return
			}
		}
	}()

	ws := windowRecord(n)
	for w := 1; w <= windows; w++ {
		fillRecord(&ws, w)
		if err := s.AppendWindow(ws); err != nil {
			t.Fatal(err)
		}
		// The caller's buffers are its own again.
		for i := range ws.Credit {
			for k := range ws.Credit[i] {
				ws.Credit[i][k] = -1
			}
			ws.CreditTotal[i], ws.Estimate[i] = -1, -1
		}
	}
	close(done)
	wg.Wait()
	held, _ := s.LastWindow()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// What LastWindow handed out is the caller's to keep.
	if exp := want(windows); !reflect.DeepEqual(held, exp) {
		t.Fatalf("record held across Checkpoint and Close changed:\n got %+v\nwant %+v", held, exp)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	if got, ok := s2.LastWindow(); !ok || !reflect.DeepEqual(got, want(windows)) {
		t.Fatalf("reopened store: ok=%v\n got %+v\nwant %+v", ok, got, want(windows))
	}
}

// TestUnknownRecordVersionRefused pins the upgrade rule: a log whose frames
// are sound but carry another record version — a later build's, or the JSON
// record of builds before this format — fails Open with an error naming the
// version and the file, and is left exactly as it was. Cutting it back to a
// cold start would be indistinguishable from a crash that lost everything.
func TestUnknownRecordVersionRefused(t *testing.T) {
	current := appendFrame(nil, &WindowState{WindowSeq: 9, Epoch: 3})
	later := append([]byte{recordVersion + 1}, current[frameHeader+1:]...)
	for name, payload := range map[string][]byte{
		"later-version": later,
		"json-record":   []byte(`{"window_seq":9,"epoch":3}`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			log := append(append([]byte{}, current...), rawFrame(payload)...)
			path := filepath.Join(dir, walName)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a log holding an unknown record version")
			}
			if !errors.Is(err, errRecordVersion) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open error %q does not name the version mismatch and the file", err)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || string(after) != string(log) {
				t.Fatalf("the refused log was modified (%v): %d bytes, was %d", rerr, len(after), len(log))
			}
		})
	}
}

// TestAppendWindowAllocs pins the durable append at zero allocations: a
// 12-principal community record is encoded into the store's own buffer and
// goes out in one write and one fsync.
func TestAppendWindowAllocs(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	ws := windowRecord(12)
	fillRecord(&ws, 1)
	ws.CreditTotal = nil // community mode
	w := 0
	appendOne := func() {
		w++
		ws.WindowSeq = w
		if err := s.AppendWindow(ws); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	appendOne() // both of the store's buffers have held a frame now
	if n := testing.AllocsPerRun(20, appendOne); n != 0 {
		t.Fatalf("AppendWindow allocates %v times, want 0", n)
	}
}

func BenchmarkAppendWindow(b *testing.B) {
	b.Run("n=12", func(b *testing.B) {
		dir := b.TempDir()
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ws := windowRecord(12)
		fillRecord(&ws, 1)
		ws.CreditTotal = nil // community mode
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.WindowSeq = i
			if err := s.AppendWindow(ws); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if fi, err := os.Stat(filepath.Join(dir, walName)); err == nil {
			b.ReportMetric(float64(fi.Size())/float64(b.N), "bytes/record")
		}
	})
}
