package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanLifecycle walks one traced request through every stamp and checks
// the committed span's fields.
func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1}, 3)
	tr.StartWindow(7, 2)
	sp := tr.Begin("alpha")
	if sp == nil {
		t.Fatal("Begin returned nil with sampling on")
	}
	sp.StampAdmit(VerdictAdmit, 5)
	sp.AddPark(3 * time.Millisecond)
	sp.StampBackend()
	sp.StampDial()
	sp.StampFirstByte()
	id := sp.Finish()
	if id == 0 {
		t.Fatal("span sampled out at SampleEvery=1")
	}
	spans := tr.Ring().Snapshot(0)
	if len(spans) != 1 {
		t.Fatalf("ring holds %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.ID != id {
		t.Errorf("ID = %d, want %d", s.ID, id)
	}
	if s.Redirector != 3 || s.Window != 7 || s.ConfigVersion != 2 {
		t.Errorf("tags = (%d, %d, %d), want (3, 7, 2)", s.Redirector, s.Window, s.ConfigVersion)
	}
	if s.Principal != "alpha" || s.Shard != 5 || s.Verdict != VerdictAdmit {
		t.Errorf("identity = (%q, %d, %v)", s.Principal, s.Shard, s.Verdict)
	}
	if s.ParkNanos != int64(3*time.Millisecond) || s.Reparks != 1 {
		t.Errorf("park = (%d, %d), want (3ms, 1)", s.ParkNanos, s.Reparks)
	}
	if s.AdmitNanos <= 0 || s.TotalNanos < s.FirstByteNanos || s.FirstByteNanos < s.DialNanos {
		t.Errorf("phase order violated: admit=%d dial=%d first_byte=%d total=%d",
			s.AdmitNanos, s.DialNanos, s.FirstByteNanos, s.TotalNanos)
	}
	begun, kept, dropped := tr.Counts()
	if begun != 1 || kept != 1 || dropped != 0 {
		t.Errorf("counts = (%d, %d, %d), want (1, 1, 0)", begun, kept, dropped)
	}
}

// TestSpanNilSafety exercises every stamp on a nil span (disabled tracer)
// and on a nil tracer.
func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.StartWindow(1, 1)
	tr.ObserveDial(time.Millisecond)
	sp := tr.Begin("alpha")
	if sp != nil {
		t.Fatal("nil tracer handed out a span")
	}
	sp.StampAdmit(VerdictAdmit, 0)
	sp.SetVerdict(VerdictDrop)
	sp.AddPark(time.Millisecond)
	sp.StampBackend()
	sp.StampDial()
	sp.StampFirstByte()
	if id := sp.Finish(); id != 0 {
		t.Errorf("nil span finished with id %d", id)
	}

	disabled := NewTracer(TraceConfig{}, 0)
	if disabled.Enabled() {
		t.Error("zero-config tracer reports enabled")
	}
	if sp := disabled.Begin("alpha"); sp != nil {
		t.Error("disabled tracer handed out a span")
	}
}

// TestTracerTailKeeper drives a window where only the slowest K spans must
// survive with head sampling off.
func TestTracerTailKeeper(t *testing.T) {
	tr := NewTracer(TraceConfig{SlowestK: 2}, 0)
	tr.StartWindow(1, 1)
	// A streaming top-K keeps everything until it fills, then only spans
	// slower than the K-th slowest seen so far.
	for _, c := range []struct {
		d    int64
		keep bool
	}{
		{50, true},  // keeper not yet full
		{10, true},  // keeper not yet full: {10, 50}
		{90, true},  // evicts 10: {50, 90}
		{20, false}, // under the kept tail
		{70, true},  // evicts 50: {70, 90}
		{95, true},  // evicts 70: {90, 95}
		{80, false}, // under the kept tail
	} {
		if got := tr.tailOffer(c.d); got != c.keep {
			t.Errorf("tailOffer(%d) = %v, want %v", c.d, got, c.keep)
		}
	}
	// A new window resets the keeper.
	tr.StartWindow(2, 1)
	if !tr.tailOffer(1) {
		t.Error("tailOffer rejected the first span of a fresh window")
	}
}

// TestSpanRingConcurrent hammers one tracer from concurrent writers while a
// scraper snapshots the ring — the -race CI step runs this; the assertions
// check the ticket discipline (every snapshot span is internally
// consistent).
func TestSpanRingConcurrent(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1, SlowestK: 4, Depth: 64}, 1)
	tr.StartWindow(1, 1)

	const writers = 8
	const perWriter = 500
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range tr.Ring().Snapshot(0) {
				if sp.ID == 0 {
					t.Error("snapshot returned an uncommitted span")
					return
				}
				if sp.TotalNanos < 0 || sp.Principal == "" {
					t.Errorf("torn span: %+v", sp)
					return
				}
			}
			tr.Ring().Len()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				sp := tr.Begin(name)
				if sp == nil {
					continue // pool momentarily exhausted: a counted drop
				}
				sp.StampAdmit(VerdictAdmit, w)
				if i%3 == 0 {
					sp.StampBackend()
					sp.StampFirstByte()
				}
				sp.Finish()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	begun, kept, dropped := tr.Counts()
	if begun+dropped != writers*perWriter {
		t.Errorf("begun %d + dropped %d != %d requests", begun, dropped, writers*perWriter)
	}
	if kept != begun {
		t.Errorf("kept %d of %d begun at SampleEvery=1", kept, begun)
	}
	if got := tr.Ring().Len(); got != kept {
		t.Errorf("ring committed %d, tracer kept %d", got, kept)
	}
}

// TestFlightRecorderExactlyOnce checks the per-window trigger dedup under
// concurrency: many triggers for one window collapse to one capture, a
// later window fires again, an older window never does.
func TestFlightRecorderExactlyOnce(t *testing.T) {
	rec := NewFlightRecorder(FlightConfig{Max: 8})

	const racers = 16
	var fired sync.WaitGroup
	wins := make(chan bool, racers)
	for i := 0; i < racers; i++ {
		fired.Add(1)
		go func() {
			defer fired.Done()
			wins <- rec.Trigger("under_floor", 10, "alpha", nil)
		}()
	}
	fired.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent triggers captured window 10, want exactly 1", won, racers)
	}
	if rec.Trigger("slo_breach", 9, "beta", nil) {
		t.Error("an older window re-armed the trigger")
	}
	if rec.Trigger("slo_breach", 10, "beta", nil) {
		t.Error("the same window fired twice")
	}
	if !rec.Trigger("slo_breach", 11, "beta", nil) {
		t.Error("the next window did not fire")
	}
	if got := rec.Triggers(); got != 2 {
		t.Errorf("Triggers() = %d, want 2", got)
	}
	caps := rec.Captures(0)
	if len(caps) != 2 {
		t.Fatalf("%d captures retained, want 2", len(caps))
	}
	if caps[0].Window != 11 || caps[0].Reason != "slo_breach" {
		t.Errorf("newest capture = (%d, %s), want (11, slo_breach)", caps[0].Window, caps[0].Reason)
	}
	if caps[1].Window != 10 || caps[1].Reason != "under_floor" || caps[1].Principal != "alpha" {
		t.Errorf("oldest capture = %+v", caps[1])
	}
}

// TestFlightRecorderSLOTrigger drives a breach through the real
// Tracer.Finish path and checks the capture freezes the slowest spans.
func TestFlightRecorderSLOTrigger(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1}, 0)
	tr.StartWindow(3, 1)
	rec := NewFlightRecorder(FlightConfig{SLO: time.Nanosecond, Logger: Nop()})
	rec.BindTracer(tr)
	rec.SetCounters(func() map[string]float64 { return map[string]float64{"shard0_admits": 42} })

	sp := tr.Begin("alpha")
	sp.StampAdmit(VerdictAdmit, 0)
	sp.Finish() // any span is slower than a 1ns SLO

	caps := rec.Captures(0)
	if len(caps) != 1 {
		t.Fatalf("%d captures after an SLO breach, want 1", len(caps))
	}
	c := caps[0]
	if c.Reason != "slo_breach" || c.Window != 3 || c.Principal != "alpha" {
		t.Errorf("capture = (%s, %d, %s)", c.Reason, c.Window, c.Principal)
	}
	if c.Trigger == nil || c.Trigger.Principal != "alpha" {
		t.Error("capture lost the triggering span")
	}
	if len(c.Spans) != 1 {
		t.Errorf("capture froze %d spans, want 1", len(c.Spans))
	}
	if c.Counters["shard0_admits"] != 42 {
		t.Errorf("capture counters = %v", c.Counters)
	}
}

// TestFlightRecorderUnderFloorTrigger drives the auditor hook: a settled
// under-floor window captures, a conservative one does not.
func TestFlightRecorderUnderFloorTrigger(t *testing.T) {
	a := NewAuditor([]string{"alpha", "beta"})
	rec := NewFlightRecorder(FlightConfig{Logger: Nop()})
	rec.BindAuditor(a)

	under := NewRecord(2)
	under.Window = 5
	under.HaveGlobal = true
	under.Arrived = []float64{10, 10}
	under.Served = []float64{1, 10}
	under.Floor = []float64{5, 1}
	under.Ceil = []float64{100, 100}
	a.Observe(under)
	caps := rec.Captures(0)
	if len(caps) != 1 {
		t.Fatalf("%d captures after a settled under-floor window, want 1", len(caps))
	}
	if caps[0].Reason != "under_floor" || caps[0].Principal != "alpha" || caps[0].Window != 5 {
		t.Errorf("capture = %+v", caps[0])
	}

	// A conservative under-floor window is expected degradation, not a
	// forensic event.
	conservative := NewRecord(2)
	conservative.Window = 6
	conservative.HaveGlobal = true
	conservative.Conservative = true
	conservative.Arrived = []float64{10, 10}
	conservative.Served = []float64{1, 10}
	conservative.Floor = []float64{5, 1}
	conservative.Ceil = []float64{100, 100}
	a.Observe(conservative)
	if got := rec.Triggers(); got != 1 {
		t.Errorf("conservative window fired a capture (triggers=%d)", got)
	}
}

// TestFlightRecorderFlush pins the graceful-shutdown path: Flush writes
// every retained capture to the capture directory, re-writes missing files
// (a capture whose eager write was lost), and is idempotent — flushing
// twice leaves exactly one file per capture.
func TestFlightRecorderFlush(t *testing.T) {
	var nilRec *FlightRecorder
	if got := nilRec.Flush(); got != 0 {
		t.Fatalf("nil recorder Flush = %d, want 0", got)
	}
	if got := NewFlightRecorder(FlightConfig{}).Flush(); got != 0 {
		t.Fatalf("Flush without a Dir = %d, want 0", got)
	}

	dir := t.TempDir()
	rec := NewFlightRecorder(FlightConfig{Max: 8, Dir: dir, Logger: Nop()})
	rec.Trigger("under_floor", 10, "alpha", nil)
	rec.Trigger("slo_breach", 11, "beta", nil)

	// Simulate a lost eager write: the flush must restore it.
	lost := filepath.Join(dir, "flight-1-under_floor.json")
	if err := os.Remove(lost); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // idempotent: same result on a second flush
		if got := rec.Flush(); got != 2 {
			t.Fatalf("flush %d wrote %d captures, want 2", i, got)
		}
		files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("flush %d left %d files, want 2: %v", i, len(files), files)
		}
	}
	b, err := os.ReadFile(lost)
	if err != nil {
		t.Fatalf("flush did not restore the lost capture file: %v", err)
	}
	var c Capture
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if c.Seq != 1 || c.Reason != "under_floor" || c.Window != 10 || c.Principal != "alpha" {
		t.Fatalf("restored capture = %+v", c)
	}
}

// TestServeTraceFilter is the golden /v1/debug/trace filter test: a ring
// with known spans, filtered by principal and min_ms, must come back
// slowest first.
func TestServeTraceFilter(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1}, 0)
	// Commit deterministic spans directly: (principal, total).
	for _, c := range []struct {
		principal string
		total     time.Duration
	}{
		{"alpha", 5 * time.Millisecond},
		{"beta", 50 * time.Millisecond},
		{"alpha", 30 * time.Millisecond},
		{"alpha", 1 * time.Millisecond},
		{"beta", 2 * time.Millisecond},
		{"alpha", 80 * time.Millisecond},
	} {
		tr.Ring().Append(&Span{Principal: c.principal, Verdict: VerdictAdmit, TotalNanos: int64(c.total)})
	}
	h := NewHandler(HandlerConfig{Tracer: tr})

	get := func(url string) []Span {
		t.Helper()
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, w.Code, w.Body.String())
		}
		var out struct {
			Spans []Span `json:"spans"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return out.Spans
	}

	all := get("/v1/debug/trace")
	if len(all) != 6 {
		t.Fatalf("unfiltered: %d spans, want 6", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].TotalNanos > all[i-1].TotalNanos {
			t.Fatalf("spans not sorted slowest first: %d after %d", all[i].TotalNanos, all[i-1].TotalNanos)
		}
	}

	alpha := get("/v1/debug/trace?principal=alpha&min_ms=4")
	want := []time.Duration{80 * time.Millisecond, 30 * time.Millisecond, 5 * time.Millisecond}
	if len(alpha) != len(want) {
		t.Fatalf("principal=alpha&min_ms=4: %d spans, want %d", len(alpha), len(want))
	}
	for i, sp := range alpha {
		if sp.Principal != "alpha" || sp.TotalNanos != int64(want[i]) {
			t.Errorf("span %d = (%s, %d), want (alpha, %d)", i, sp.Principal, sp.TotalNanos, want[i])
		}
	}

	top := get("/v1/debug/trace?n=2")
	if len(top) != 2 || top[0].TotalNanos != int64(80*time.Millisecond) {
		t.Errorf("n=2 returned %d spans, slowest %d", len(top), top[0].TotalNanos)
	}

	// A threshold too large for int64 nanoseconds keeps no span, rather
	// than wrapping to a negative one that keeps every span.
	for _, huge := range []string{"1e300", "1e13"} {
		if got := get("/v1/debug/trace?min_ms=" + huge); len(got) != 0 {
			t.Errorf("min_ms=%s: %d spans, want 0", huge, len(got))
		}
	}

	for _, bad := range []string{"-1", "NaN", "Inf", "+Inf", "-Inf", "x"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/debug/trace?min_ms="+bad, nil))
		if w.Code != 400 {
			t.Errorf("min_ms=%s: %d, want 400", bad, w.Code)
		}
	}
}

// TestServeFlight checks the capture endpoint shape, including the empty
// case.
func TestServeFlight(t *testing.T) {
	rec := NewFlightRecorder(FlightConfig{})
	h := NewHandler(HandlerConfig{Flight: rec})

	req := httptest.NewRequest("GET", "/v1/debug/flight", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out struct {
		Captures []*Capture `json:"captures"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Captures == nil || len(out.Captures) != 0 {
		t.Errorf("empty recorder served %v, want []", out.Captures)
	}

	rec.Trigger("slo_breach", 1, "alpha", nil)
	rec.Trigger("slo_breach", 2, "alpha", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/debug/flight?n=1", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Captures) != 1 || out.Captures[0].Window != 2 {
		t.Errorf("n=1 served %d captures (window %d), want newest only", len(out.Captures), out.Captures[0].Window)
	}
}

// TestHistogramExemplar checks exemplar plumbing end to end: the bucket the
// observation lands in carries the trace ref in the scrape.
func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(3*time.Millisecond, 77)
	h.Observe(10 * time.Millisecond)
	var sb bytes.Buffer
	WriteHistogram(&sb, "test_seconds", "help", h)
	if want := `# {trace_ref="77"}`; !strings.Contains(sb.String(), want) {
		t.Errorf("scrape lost the exemplar:\n%s", sb.String())
	}
}

// TestRateLimit checks the token bucket: burst, suppression counting, and
// refill after an interval.
func TestRateLimit(t *testing.T) {
	rl := NewRateLimit(50*time.Millisecond, 2)
	for i := 0; i < 2; i++ {
		if ok, _ := rl.Allow(); !ok {
			t.Fatalf("burst call %d denied", i)
		}
	}
	for i := 0; i < 3; i++ {
		if ok, _ := rl.Allow(); ok {
			t.Fatal("allowed past the burst with no refill")
		}
	}
	if got := rl.Suppressed(); got != 3 {
		t.Errorf("Suppressed() = %d, want 3", got)
	}
	time.Sleep(60 * time.Millisecond)
	ok, suppressed := rl.Allow()
	if !ok {
		t.Fatal("denied after a full refill interval")
	}
	if suppressed != 3 {
		t.Errorf("refilled Allow reported %d suppressed, want 3", suppressed)
	}

	var nilRL *RateLimit
	if ok, _ := nilRL.Allow(); !ok {
		t.Error("nil RateLimit denied")
	}
}
