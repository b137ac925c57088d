package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func mkRecord(window uint64, n int) *Record {
	rec := NewRecord(n)
	rec.Window = window
	for i := 0; i < n; i++ {
		rec.Local[i] = float64(i + 1)
	}
	return rec
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(4, 2)
	for w := uint64(1); w <= 10; w++ {
		r.Append(mkRecord(w, 2))
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want ring depth 4", len(snap))
	}
	for i, rec := range snap {
		if want := uint64(7 + i); rec.Window != want {
			t.Errorf("snapshot[%d].Window = %d, want %d (oldest first)", i, rec.Window, want)
		}
	}
	if snap2 := r.Snapshot(2); len(snap2) != 2 || snap2[0].Window != 9 {
		t.Errorf("Snapshot(2) = %d records starting at %d, want 2 starting at 9",
			len(snap2), snap2[0].Window)
	}
}

func TestRingSnapshotCopiesVectors(t *testing.T) {
	r := NewRing(2, 2)
	rec := mkRecord(1, 2)
	r.Append(rec)
	snap := r.Snapshot(0)
	rec.Local[0] = 99 // caller keeps ownership; ring must hold a copy
	r.Append(rec)
	if snap[0].Local[0] != 1 {
		t.Fatalf("snapshot aliases writer's record: Local[0] = %g, want 1", snap[0].Local[0])
	}
}

func TestRingConcurrentAppendSnapshot(t *testing.T) {
	r := NewRing(8, 3)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, rec := range r.Snapshot(0) {
					if len(rec.Local) != 3 {
						t.Errorf("torn record: %d principals", len(rec.Local))
						return
					}
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			rec := NewRecord(3)
			rec.Redirector = id
			for i := uint64(1); i <= 500; i++ {
				rec.Window = i
				r.Append(rec)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if r.Len() != 1500 {
		t.Fatalf("Len = %d, want 1500", r.Len())
	}
}

func TestAuditorVerdicts(t *testing.T) {
	a := NewAuditor([]string{"A", "B"})

	// Window 1: A under-served (demand 10 ≥ floor 5, served 2); B fine.
	rec := NewRecord(2)
	rec.Conservative = true
	rec.Floor = []float64{5, 5}
	rec.Ceil = []float64{8, 8}
	rec.Arrived = []float64{10, 10}
	rec.Served = []float64{2, 6}
	a.Observe(rec)

	// Window 2: A over-admitted (served 10 > ceil 8 + carry 1); B's low
	// demand clips the floor, so serving 1 of 1 is conformant.
	rec2 := NewRecord(2)
	rec2.HaveGlobal = true
	rec2.CacheHit = true
	rec2.Floor = []float64{5, 5}
	rec2.Ceil = []float64{8, 8}
	rec2.Arrived = []float64{10, 1}
	rec2.Served = []float64{10, 1}
	a.Observe(rec2)

	// Window 3: solve error — MaxFloat64 ceiling disables the over check.
	rec3 := NewRecord(2)
	rec3.SolveErr = true
	rec3.Floor = []float64{0, 0}
	rec3.Ceil = []float64{math.MaxFloat64, math.MaxFloat64}
	rec3.Arrived = []float64{50, 50}
	rec3.Served = []float64{40, 40}
	a.Observe(rec3)

	if got := a.Windows(); got != 3 {
		t.Errorf("Windows = %d, want 3", got)
	}
	if got := a.Conservative(); got != 1 {
		t.Errorf("Conservative = %d, want 1", got)
	}
	if got := a.NoGlobal(); got != 2 {
		t.Errorf("NoGlobal = %d, want 2", got)
	}
	if got := a.SolveErrors(); got != 1 {
		t.Errorf("SolveErrors = %d, want 1", got)
	}
	if got := a.CacheHits(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
	if got := a.UnderMC(0); got != 1 {
		t.Errorf("UnderMC(A) = %d, want 1", got)
	}
	if got := a.UnderMC(1); got != 0 {
		t.Errorf("UnderMC(B) = %d, want 0", got)
	}
	if got := a.OverUB(0); got != 1 {
		t.Errorf("OverUB(A) = %d, want 1", got)
	}
	if got := a.OverUB(1); got != 0 {
		t.Errorf("OverUB(B) = %d, want 0", got)
	}
	if got := a.Served(0); got != 52 {
		t.Errorf("Served(A) = %g, want 52", got)
	}
	if got := a.Arrived(1); got != 61 {
		t.Errorf("Arrived(B) = %g, want 61", got)
	}
	if !strings.Contains(a.String(), "A under=1 over=1") {
		t.Errorf("String() = %q", a.String())
	}
}

// TestAuditorUnderFloorWholeRequests: a window is judged against
// min(Floor, Arrived) in whole requests, with the one request of slack per
// credit cell the carry gives.
func TestAuditorUnderFloorWholeRequests(t *testing.T) {
	for _, c := range []struct {
		cells           int
		arrived, served float64
		under           int64
	}{
		{0, 13, 13, 0}, // every request served
		{1, 14, 13, 0}, // a share of 13.6 admits 13 whole requests
		{1, 14, 12, 1}, // one request short beyond the carry
		{1, 20, 12, 1},
		{0, 0, 0, 0},
		{3, 14, 11, 0}, // 13.6 over three owners' cells: up to one short per cell
		{3, 14, 10, 1},
	} {
		a := NewAuditor([]string{"B"})
		rec := NewRecord(1)
		rec.Window, rec.HaveGlobal = 7, true
		rec.Floor, rec.Ceil, rec.Cells = []float64{13.6}, []float64{30}, c.cells
		rec.Arrived, rec.Served = []float64{c.arrived}, []float64{c.served}
		a.Observe(rec)
		if got := a.UnderMC(0); got != c.under {
			t.Errorf("share 13.6 in %d cells, %v arrived, %v admitted: %d under-floor windows, want %d",
				c.cells, c.arrived, c.served, got, c.under)
		}
	}
}

func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Observe(NewRecord(1))
	if a.Windows() != 0 || a.UnderMC(0) != 0 || a.Served(0) != 0 || a.Names() != nil {
		t.Fatal("nil auditor must be a no-op")
	}
	if a.String() != "auditor: disabled" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelInfo)
	// A record stamped at the epoch, handed to the handler directly, pins
	// the t= rendering.
	rec := slog.NewRecord(time.Unix(0, 0), LevelWarn, "floors dropped", 0)
	rec.Add("status", "Infeasible", "windows", 7)
	if err := l.With("comp", "sched").Handler().Handle(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	line := sb.String()
	for _, want := range []string{
		"t=1970-01-01T00:00:00Z", "level=warn", "comp=sched",
		`msg="floors dropped"`, "status=Infeasible", "windows=7",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q missing %q", line, want)
		}
	}
	sb.Reset()
	l.Debug("below threshold")
	if sb.Len() != 0 {
		t.Errorf("debug line emitted below min level: %q", sb.String())
	}
	if l.Enabled(context.Background(), LevelDebug) || !l.Enabled(context.Background(), LevelError) {
		t.Error("Enabled thresholds wrong")
	}
	sb.Reset()
	dangling := []any{"dangling"} // spread, so vet's slog check lets the odd count through
	l.Error("odd kv", dangling...)
	if !strings.Contains(sb.String(), "!BADKEY=dangling") {
		t.Errorf("odd kv not flagged: %q", sb.String())
	}
}

func TestObserverCommitAndTreeInfo(t *testing.T) {
	o := NewObserver(ObserverConfig{Redirector: 3, Names: []string{"A", "B"}, RingDepth: 8})
	o.SetTreeInfo(func() TreeInfo {
		return TreeInfo{Epoch: 5, GlobalEpoch: 4, MsgsIn: 10, MsgsOut: 6}
	})
	rec := o.NewRecord()
	if rec.Redirector != 3 || len(rec.Local) != 2 {
		t.Fatalf("NewRecord: redirector %d, %d principals", rec.Redirector, len(rec.Local))
	}
	o.FillTree(rec)
	rec.Window = 1
	rec.Arrived[0], rec.Served[0] = 4, 4
	o.Commit(rec)
	if o.Auditor().Windows() != 1 {
		t.Fatal("commit did not reach the auditor")
	}
	snap := o.Ring().Snapshot(0)
	if len(snap) != 1 || snap[0].TreeEpoch != 5 || snap[0].TreeMsgsIn != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestRecordPathZeroAlloc is the allocation guard behind
// BenchmarkWindowTraceOverhead: fill + commit of one window record must not
// touch the heap.
func TestRecordPathZeroAlloc(t *testing.T) {
	o := NewObserver(ObserverConfig{Names: []string{"A", "B", "C"}, RingDepth: 16})
	o.SetTreeInfo(func() TreeInfo { return TreeInfo{Epoch: 1} })
	rec := o.NewRecord()
	w := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		w++
		rec.Window = w
		rec.Conservative = w%3 == 0
		for i := range rec.Local {
			rec.Local[i] = float64(w)
			rec.Granted[i] = float64(w)
			rec.Arrived[i] = float64(w)
			rec.Served[i] = float64(w)
		}
		o.FillTree(rec)
		o.Commit(rec)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f times per window, want 0", allocs)
	}
}

// TestNewRingAllocs pins a default-depth ring at three allocations — the
// ring, its slots and one backing array for every slot's vectors — where a
// record per slot cost 2048 on every node boot and recovery. Each vector is
// capped at its length, so a slot can never grow into its neighbour's.
func TestNewRingAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() { NewRing(0, 48) }); got > 3 {
		t.Fatalf("NewRing allocates %v times, pin 3", got)
	}
	r := NewRing(4, 3)
	for i := range r.slots {
		rec := &r.slots[i].v
		for _, v := range [][]float64{rec.Local, rec.Global, rec.Granted, rec.Floor, rec.Ceil, rec.Arrived, rec.Served} {
			if len(v) != 3 || cap(v) != 3 {
				t.Fatalf("slot %d vector len %d cap %d, want 3 and 3", i, len(v), cap(v))
			}
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := NewObserver(ObserverConfig{Redirector: 0, Names: []string{"A", "B"}, RingDepth: 8})
	rec := o.NewRecord()
	rec.Window = 1
	rec.Floor[0], rec.Ceil[0] = 5, 8
	rec.Arrived[0], rec.Served[0] = 10, 2 // under-enforced
	o.Commit(rec)
	rec.Window = 2
	rec.Served[0] = 6
	o.Commit(rec)

	solver := &metrics.SolverStats{}
	solver.CacheMiss()
	solver.RecordSolve(250 * time.Microsecond)
	solver.CacheHit()

	h := NewHandler(HandlerConfig{
		Observers: []*Observer{o},
		Auditor:   o.Auditor(),
		Solver:    solver,
		Mode:      "provider",
		Window:    100 * time.Millisecond,
		Extra: func(w io.Writer) {
			WriteMetric(w, "rsa_l7_admitted_total", "counter", "test", 42)
		},
	})

	rr := httptest.NewRecorder()
	rr.Body.Reset()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	h.ServeHTTP(rr, req)
	body := rr.Body.String()
	for _, want := range []string{
		`rsa_redirector_info{mode="provider",window_ms="100"} 1`,
		"rsa_windows_total 2",
		"rsa_windows_conservative_total 0",
		`rsa_windows_under_mc_total{principal="A"} 1`,
		`rsa_windows_over_ub_total{principal="A"} 0`,
		`rsa_served_requests_total{principal="A"} 8`,
		`rsa_arrived_requests_total{principal="A"} 20`,
		"rsa_solver_solves_total 1",
		"rsa_solver_cache_hits_total 1",
		"rsa_solver_cache_misses_total 1",
		"rsa_l7_admitted_total 42",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q\n---\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/windows?n=1", nil))
	var payload struct {
		Records []Record `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("/v1/debug/windows: %v\n%s", err, rr.Body.String())
	}
	if len(payload.Records) != 1 || payload.Records[0].Window != 2 {
		t.Fatalf("/v1/debug/windows?n=1 = %+v, want the latest window (2)", payload.Records)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/windows?n=bogus", nil))
	if rr.Code != 400 {
		t.Errorf("bad n: status %d, want 400", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rr.Code != 200 {
		t.Errorf("pprof cmdline: status %d, want 200", rr.Code)
	}

	// The pre-versioning aliases are retired.
	for _, path := range []string{"/metrics", "/debug/windows"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("GET %s: status %d, want 404", path, rr.Code)
		}
	}
}

func TestHandlerNilSources(t *testing.T) {
	h := NewHandler(HandlerConfig{})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/v1/metrics with no sources: status %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/windows", nil))
	if rr.Code != 200 {
		t.Fatalf("/v1/debug/windows with no observers: status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), `"records": []`) {
		t.Fatalf("/v1/debug/windows before the first record = %s, want an empty records array", rr.Body.String())
	}
}

func TestHandlerControlMounts(t *testing.T) {
	// The control plane's admin API must be reachable through the admin
	// mux under every path family it serves — a handler that answers
	// /v1/agreements but 404s /v1/leases strands the lease runbook.
	ctrl := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ctrl:"+r.URL.Path)
	})
	h := NewHandler(HandlerConfig{Control: ctrl})
	for _, path := range []string{
		"/v1/agreements",
		"/v1/principals/join",
		"/v1/leases",
		"/v1/leases/renew",
		"/v1/leases/shrink",
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 || rr.Body.String() != "ctrl:"+path {
			t.Errorf("%s: status %d body %q, want the control plane", path, rr.Code, rr.Body.String())
		}
	}
}

// TestMixedVersionSkipsWindowZero: window 0 is each redirector's own boot
// window, so two of them under different configuration versions are not a
// mixed-version window; the same window number of a scheduled window is.
func TestMixedVersionSkipsWindowZero(t *testing.T) {
	aud := NewAuditor([]string{"A"})
	commit := func(window, version uint64) {
		rec := NewRecord(1)
		rec.Window, rec.ConfigVersion = window, version
		aud.Observe(rec)
	}
	commit(0, 1)
	commit(0, 2) // a redirector restarted after a rollout
	if got := aud.MixedVersion(); got != 0 {
		t.Fatalf("boot windows under versions 1 and 2 counted %d mixed", got)
	}
	commit(5, 1)
	commit(5, 2)
	if got := aud.MixedVersion(); got != 1 {
		t.Fatalf("window 5 under versions 1 and 2 counted %d mixed, want 1", got)
	}
}
