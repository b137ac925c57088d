package node

import (
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

// testEngine is a two-principal community (A draws on B) with a short
// window and a silent logger.
func testEngine(t *testing.T, window time.Duration) (*core.Engine, *agreement.System, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Community, System: s, Window: window, Logger: obs.Nop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, a
}

func openStore(t *testing.T) *persist.Store {
	t.Helper()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// freeAddr reserves a loopback port and releases it for the caller to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// spyDetector is a treenet.Detector that never repairs anything and records
// the tree epoch each Check call saw.
type spyDetector struct {
	epochs []int
}

func (d *spyDetector) Check(node treenet.TreeNode, _ time.Duration) bool {
	d.epochs = append(d.epochs, node.(*combining.Node).Epoch())
	return false
}
func (d *spyDetector) Reparents() int { return 0 }

// TestBoundaryOrderAndHookLockRule drives the window loop through two
// boundaries on each node shape (window 0's trace record is committed when
// window 1 starts, window 1's when window 2 does) and reads the order of a
// boundary's steps off what each step leaves behind: the detector ran
// before the tree tick (each check saw the pre-tick epoch), tick and root
// push ran before StartWindow (window 1's record carries the post-tick
// epoch and, at a root, a global view),
// the rollout view and StartWindow ran before the durable append (the
// record holds the post-tick epoch and the window just started), the
// tracer's window moved after StartWindow (a span begun in the hook is
// tagged with the new window), and the hook ran after all of it with mu
// free.
func TestBoundaryOrderAndHookLockRule(t *testing.T) {
	cases := []struct {
		name       string
		tree       *treenet.Spec
		persist    bool
		detector   bool
		tick       int  // tree epochs per boundary (0 without a tree)
		wantGlobal bool // a global view exists at the first StartWindow
	}{
		{name: "single node", wantGlobal: true},
		{name: "single node, durable", persist: true, wantGlobal: true},
		{name: "tree root, durable", tree: &treenet.Spec{NodeID: 0, Parent: -1}, persist: true, tick: 1, wantGlobal: true},
		{name: "tree leaf with detector, durable",
			tree:    &treenet.Spec{NodeID: 1, Parent: 0, Peers: map[combining.NodeID]string{0: "127.0.0.1:1"}},
			persist: true, detector: true, tick: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, a := testEngine(t, 5*time.Millisecond)
			cfg := Config{Layer: "test", Engine: eng, Tree: tc.tree, Trace: &obs.TraceConfig{SampleEvery: 1}}
			var st *persist.Store
			if tc.persist {
				st = openStore(t)
				cfg.Persist = st
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			var spy *spyDetector
			if tc.detector {
				spy = &spyDetector{}
				n.wiring.Detector = spy
			}

			type seen struct {
				startErr error
				muFree   bool
				windows  int
				records  []obs.Record
				durable  persist.WindowState
				haveDur  bool
				spanWin  uint64
				checks   []int
			}
			second := make(chan seen, 1)
			calls := 0
			n.Start(func(startErr error) {
				if calls++; calls == 2 {
					s := seen{startErr: startErr, muFree: n.m.mu.TryLock()}
					if s.muFree {
						s.windows = n.m.red.Windows
						n.m.mu.Unlock()
					}
					s.records = n.Observer().Ring().Snapshot(4)
					if st != nil {
						s.durable, s.haveDur = st.LastWindow()
					}
					sp := n.Begin(a)
					s.spanWin = sp.Window
					sp.Finish()
					if spy != nil {
						s.checks = append(s.checks, spy.epochs...)
					}
					second <- s
				}
			})
			var s seen
			select {
			case s = <-second:
			case <-time.After(5 * time.Second):
				t.Fatal("no second window boundary within 5s")
			}

			if s.startErr != nil {
				t.Fatalf("second boundary: StartWindow error %v", s.startErr)
			}
			if !s.muFree {
				t.Fatal("hook ran with mu held")
			}
			if s.windows != 2 {
				t.Fatalf("second hook saw %d windows started, want 2 (one hook per boundary, after it)", s.windows)
			}
			if len(s.records) != 2 || s.records[0].Window != 0 || !s.records[0].Conservative || s.records[1].Window != 1 {
				t.Fatalf("window trace at the second hook = %+v, want exactly the blind window 0 and window 1", s.records)
			}
			if rec := s.records[1]; rec.TreeEpoch != tc.tick || rec.HaveGlobal != tc.wantGlobal {
				t.Fatalf("window 1 scheduled at tree epoch %d (global %v), want %d (%v): tick and root push precede StartWindow",
					rec.TreeEpoch, rec.HaveGlobal, tc.tick, tc.wantGlobal)
			}
			if spy != nil && (len(s.checks) != 2 || s.checks[0] != 0 || s.checks[1] != 1) {
				t.Fatalf("detector saw epochs %v, want [0 1]: each check precedes its boundary's tick", s.checks)
			}
			if tc.persist {
				if !s.haveDur || s.durable.WindowSeq != 2 || s.durable.Epoch != 2*tc.tick {
					t.Fatalf("durable record at the second hook = %+v (%v), want window 2 at epoch %d: the append follows the rollout view and StartWindow",
						s.durable, s.haveDur, 2*tc.tick)
				}
			}
			if s.spanWin != 2 {
				t.Fatalf("span begun in the second hook tagged window %d, want 2: the tracer's window follows StartWindow", s.spanWin)
			}
		})
	}
}

// TestSpanSetVersionMatchesWindowRecord checks that a request span and the
// trace record of the window it ran in carry the same config_version: the
// agreement-set version the window was scheduled against (7, recovered from
// the store), not the engine's generation counter, which the capacity
// change below moves while the set stays put. It checks window 0, armed at
// boot, and window 1, the first the loop schedules.
func TestSpanSetVersionMatchesWindowRecord(t *testing.T) {
	eng, sys, a := testEngine(t, 5*time.Millisecond)
	st := openStore(t)
	if err := st.SaveSet(sys.Snapshot(7)); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layer: "test", Engine: eng, Persist: st, Trace: &obs.TraceConfig{SampleEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := eng.UpdateCapacities([]float64{160, 320}); err != nil {
		t.Fatal(err)
	}
	spanVersion := make(map[uint64]uint64) // window → span config_version
	sp := n.Begin(a)
	spanVersion[sp.Window] = sp.ConfigVersion
	sp.Finish()
	first := make(chan *obs.Span, 1)
	calls := 0
	n.Start(func(error) {
		if calls++; calls == 1 {
			first <- n.Begin(a)
		}
	})
	select {
	case sp = <-first:
		spanVersion[sp.Window] = sp.ConfigVersion
		sp.Finish()
	case <-time.After(5 * time.Second):
		t.Fatal("no window boundary within 5s")
	}
	if len(spanVersion) != 2 {
		t.Fatalf("spans tagged windows %v, want 0 and 1", spanVersion)
	}
	// A window's record is committed when the next window starts.
	for deadline := time.Now().Add(5 * time.Second); n.Observer().Ring().Len() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("window 1's record never committed")
		}
	}
	checked := 0
	for _, rec := range n.Observer().Ring().Snapshot(obs.DefaultRingDepth) {
		want, ok := spanVersion[rec.Window]
		if !ok {
			continue
		}
		checked++
		if rec.ConfigVersion != 7 || want != rec.ConfigVersion {
			t.Fatalf("window %d: span config_version %d, record %d, want both 7 (the set version; generation %d)",
				rec.Window, want, rec.ConfigVersion, eng.Version())
		}
	}
	if checked != 2 {
		t.Fatalf("found records for %d of the spans' windows %v", checked, spanVersion)
	}
}

// TestCloseJoinsLoopThenCheckpoints pins the shutdown order: once Close
// returns no boundary runs and no hook is called, and the record log holds
// exactly the checkpoint — one frame, the newest window — with nothing
// appended behind it.
func TestCloseJoinsLoopThenCheckpoints(t *testing.T) {
	eng, _, _ := testEngine(t, 2*time.Millisecond)
	st := openStore(t)
	n, err := New(Config{Layer: "test", Engine: eng, Persist: st})
	if err != nil {
		t.Fatal(err)
	}
	var hooks atomic.Int64
	n.Start(func(error) { hooks.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for hooks.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("window loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	windows, _, _ := n.WindowStats()
	calls := hooks.Load()
	time.Sleep(20 * time.Millisecond) // ten windows' worth
	if w, _, _ := n.WindowStats(); w != windows || hooks.Load() != calls {
		t.Fatalf("after Close: windows %d -> %d, hook calls %d -> %d", windows, w, calls, hooks.Load())
	}
	last, ok := st.LastWindow()
	if !ok || last.WindowSeq != windows {
		t.Fatalf("LastWindow = %+v (%v), want window %d", last, ok, windows)
	}
	wal, err := os.ReadFile(filepath.Join(st.Dir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// One frame: 4-byte length, 4-byte CRC, payload.
	if len(wal) < 8 || len(wal) != 8+int(binary.LittleEndian.Uint32(wal[:4])) {
		t.Fatalf("record log is %d bytes, not exactly one checkpoint frame", len(wal))
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBootUnderBroadcastFlood restarts a recovered node 50 times on a fixed
// tree address while its parent floods it with broadcasts: the parent's
// writer redials the moment a write fails, so its next frames land while
// the restarted node is still between Listen and its rejoin announcement.
// Run under -race: inbound frames must wait for the boot to finish.
func TestBootUnderBroadcastFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, sys, _ := testEngine(t, time.Millisecond)
	st := openStore(t)
	if err := st.SaveSet(sys.Snapshot(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendWindow(persist.WindowState{
		WindowSeq: 42, Epoch: 42, SetVersion: 3,
		Estimate: []float64{7, 5}, Credit: [][]float64{{3, 0}, {1, 2}},
	}); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	parent, err := treenet.Listen(0, "127.0.0.1:0", func(int, combining.NodeID, interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	parent.SetPeer(1, addr)
	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		agg := combining.NewAggregate(2)
		for epoch := 43; ; epoch++ {
			select {
			case <-stop:
				return
			default:
			}
			parent.Send(1, &combining.Broadcast{Epoch: epoch, Agg: agg})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	defer flood.Wait()
	defer close(stop)

	landed := 0
	for boot := 0; boot < 50; boot++ {
		eng, _, _ := testEngine(t, time.Millisecond)
		n, err := New(Config{
			Layer: "test", Engine: eng, ID: 1, Persist: st,
			Tree: &treenet.Spec{
				NodeID: 1, Parent: 0, ListenAddr: addr,
				Peers: map[combining.NodeID]string{0: parent.Addr()},
			},
		})
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		n.Start(func(error) {})
		// Stay up until the parent is connected (bounded: its redial may be
		// backing off), so the next boot starts with a redial in flight.
		for wait := time.Now().Add(100 * time.Millisecond); time.Now().Before(wait); {
			if n.TreeStats().BytesReceived > 0 {
				landed++
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err := n.Close(); err != nil {
			t.Fatalf("boot %d: close: %v", boot, err)
		}
	}
	if landed == 0 {
		t.Fatal("no boot ever received a frame from the flooding parent; the test exercised nothing")
	}
	t.Logf("%d of 50 boots received frames from the flooding parent", landed)
}
