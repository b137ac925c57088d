package l7

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/persist"
)

// deadAddr returns a loopback URL nothing listens on (instant refusal).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestRetryBudgetExhausted pins the bounded-failover satellite: once a
// window's retry budget is spent, further failed proxy exchanges fail fast
// instead of fanning out to another backend, and the cutoff is counted.
func TestRetryBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 5000)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.9, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		Window: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRedirector(RedirectorConfig{
		Engine: eng, Addr: "127.0.0.1:0",
		Orgs:        map[string]agreement.Principal{"acme": a},
		Backends:    map[agreement.Principal][]string{sp: {deadAddr(t), deadAddr(t)}},
		Proxy:       true,
		RetryBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Hammer the dead fleet: requests past a window's credit are 503;
	// once two admitted requests land in one window, the first spends the
	// single failover token and the second is cut off by the empty budget.
	// Every exchange fails instantly (connection refused), so this loop is
	// tight.
	deadline := time.Now().Add(10 * time.Second)
	for r.RetryBudgetExhausted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry budget never reported exhaustion against dead backends")
		}
		resp, err := http.Get(r.URL() + "/svc/acme/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 502 (dead backend) or 503 (no quota yet)", resp.StatusCode)
		}
	}
	resp, err := http.Get(r.URL() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rsa_l7_retry_budget_exhausted_total") {
		t.Fatal("rsa_l7_retry_budget_exhausted_total missing from /v1/metrics")
	}
}

// TestBootRestore pins the crash-recovery boot path: a redirector handed a
// store holding a window record and a newer agreement set resumes from
// them — window sequence restored, recovered set staged and committed —
// and keeps appending its own records to the same store.
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

	backend, err := NewBackend("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	r, err := NewRedirector(RedirectorConfig{
		Engine: eng, Addr: "127.0.0.1:0",
		Orgs:     map[string]agreement.Principal{"acme": a},
		Backends: map[agreement.Principal][]string{b: {backend.URL()}},
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

// TestWindowZeroFirstProxiedRequest: the first request a fresh proxy
// receives is relayed (200) on window 0's blind grant, not refused with a
// 503 until the first window boundary.
func TestWindowZeroFirstProxiedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	s.MustSetAgreement(sp, a, 0.5, 1)
	// A window far longer than the test: every decision here is window 0's.
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewBackend("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	r, err := NewRedirector(RedirectorConfig{
		Engine: eng, Addr: "127.0.0.1:0",
		Orgs:     map[string]agreement.Principal{"acme": a},
		Backends: map[agreement.Principal][]string{sp: {backend.URL()}},
		Proxy:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	resp, err := http.Get(r.URL() + "/svc/acme/first?size=64")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 64 {
		t.Fatalf("first proxied request: status %d, %d bytes; want 200 with 64", resp.StatusCode, len(body))
	}
	if windows, _, _ := r.WindowStats(); windows != 0 {
		t.Fatalf("%d window boundaries ran; the test needs window 0", windows)
	}
}
