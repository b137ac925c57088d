package l7

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
)

func TestHostOfAndSameEndpoint(t *testing.T) {
	if hostOf("http://1.2.3.4:80/x/y?z=1") != "1.2.3.4:80" {
		t.Fatalf("hostOf = %q", hostOf("http://1.2.3.4:80/x/y?z=1"))
	}
	if hostOf("1.2.3.4:80") != "1.2.3.4:80" {
		t.Fatal("schemeless host parse failed")
	}
	if !sameEndpoint("http://a:1/x", "http://a:1/y?q") || sameEndpoint("http://a:1/x", "http://a:2/x") {
		t.Fatal("sameEndpoint wrong")
	}
}

func TestBackendServesAndLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	b, err := NewBackend("127.0.0.1:0", 200)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClient()
	n, err := c.Fetch(b.URL() + "/file?size=2048")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2048 {
		t.Fatalf("payload = %d bytes", n)
	}
	// 40 sequential requests at 200/s take at least ~190 ms.
	start := time.Now()
	for i := 0; i < 40; i++ {
		if _, err := c.Fetch(b.URL() + "/f?size=1"); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("40 requests finished in %v; capacity limit not applied", el)
	}
	if b.Served() < 41 {
		t.Fatalf("Served = %d", b.Served())
	}
}

func TestBackendRejectsBadCapacity(t *testing.T) {
	if _, err := NewBackend("127.0.0.1:0", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// l7Rig builds a provider system (capacity req/s, shares lbA/lbB) with one
// backend and n redirectors (tree-connected when n > 1).
func l7Rig(t *testing.T, capacity float64, lbA, lbB float64, n int) (*Backend, []*Redirector, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", capacity)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, lbA, 1)
	s.MustSetAgreement(sp, b, lbB, 1)
	// Each redirector runs its own engine, as separate processes do.
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(core.Config{
			Mode:              core.Provider,
			System:            s.Clone(),
			ProviderPrincipal: sp,
			NumRedirectors:    n,
			Window:            20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	backend, err := NewBackend("127.0.0.1:0", capacity*1.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })

	orgs := map[string]agreement.Principal{"alpha": a, "beta": b}
	backends := map[agreement.Principal][]string{sp: {backend.URL()}}

	var reds []*Redirector
	if n == 1 {
		r, err := NewRedirector(RedirectorConfig{
			Engine: newEngine(), ID: 0, Addr: "127.0.0.1:0", Orgs: orgs, Backends: backends,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		reds = []*Redirector{r}
	} else {
		ids := make([]combining.NodeID, n)
		for i := range ids {
			ids[i] = combining.NodeID(i)
		}
		topo := combining.BuildTree(ids, 2)
		for i := 0; i < n; i++ {
			r, err := NewRedirector(RedirectorConfig{
				Engine: newEngine(), ID: i, Addr: "127.0.0.1:0", Orgs: orgs, Backends: backends,
				Tree: &TreeConfig{
					NodeID:   combining.NodeID(i),
					Parent:   topo.Parent[combining.NodeID(i)],
					Children: topo.Children[combining.NodeID(i)],
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			reds = append(reds, r)
		}
		// Exchange tree addresses once every transport is listening.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					reds[i].SetTreePeer(combining.NodeID(j), reds[j].TreeAddr())
				}
			}
		}
	}
	return backend, reds, a, b
}

// hammer runs workers closed-loop fetches against url until stop; fetches
// after warmup are counted into counter.
func hammer(wg *sync.WaitGroup, stop *atomic.Bool, warm *atomic.Bool, counter *int64, url string, workers int) {
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient()
			c.RetryDelay = 5 * time.Millisecond
			c.MaxAttempts = 400
			for !stop.Load() {
				if _, err := c.Fetch(url); err != nil {
					continue
				}
				if warm.Load() {
					atomic.AddInt64(counter, 1)
				}
			}
		}()
	}
}

func TestSingleRedirectorEnforcement(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, reds, _, _ := l7Rig(t, 200, 0.75, 0.25, 1)
	r := reds[0]

	var wg sync.WaitGroup
	var stop, warm atomic.Bool
	var gotA, gotB int64
	hammer(&wg, &stop, &warm, &gotA, r.URL()+"/svc/alpha/page?size=512", 3)
	hammer(&wg, &stop, &warm, &gotB, r.URL()+"/svc/beta/page?size=512", 3)

	time.Sleep(700 * time.Millisecond) // estimator and credits settle
	warm.Store(true)
	const measure = 2 * time.Second
	time.Sleep(measure)
	stop.Store(true)
	wg.Wait()

	rateA := float64(gotA) / measure.Seconds()
	rateB := float64(gotB) / measure.Seconds()
	total := rateA + rateB
	if total < 120 || total > 260 {
		t.Fatalf("total = %.1f req/s, want ≈200", total)
	}
	ratio := rateA / rateB
	if ratio < 1.8 || ratio > 4.8 {
		t.Fatalf("A/B = %.1f/%.1f (ratio %.2f), want ≈3", rateA, rateB, ratio)
	}
	adm, rej := r.Stats()
	if adm == 0 || rej == 0 {
		t.Fatalf("stats admitted=%d rejected=%d: expected both under overload", adm, rej)
	}
}

func TestTwoRedirectorsCoordinate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, reds, _, _ := l7Rig(t, 200, 0.75, 0.25, 2)

	var wg sync.WaitGroup
	var stop, warm atomic.Bool
	var gotA, gotB int64
	// A's clients on redirector 0, B's on redirector 1 — enforcement must
	// hold across admission points.
	hammer(&wg, &stop, &warm, &gotA, reds[0].URL()+"/svc/alpha/p?size=256", 3)
	hammer(&wg, &stop, &warm, &gotB, reds[1].URL()+"/svc/beta/p?size=256", 3)

	time.Sleep(900 * time.Millisecond)
	warm.Store(true)
	const measure = 2 * time.Second
	time.Sleep(measure)
	stop.Store(true)
	wg.Wait()

	rateA := float64(gotA) / measure.Seconds()
	rateB := float64(gotB) / measure.Seconds()
	if rateB > 90 {
		t.Fatalf("B = %.1f req/s exceeds its ≈50 entitlement plus slack", rateB)
	}
	if rateA < rateB {
		t.Fatalf("A (%.1f) below B (%.1f) despite 3× mandatory share", rateA, rateB)
	}
}

func TestStatsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, reds, _, _ := l7Rig(t, 100, 0.5, 0.5, 1)
	c := NewClient()
	// Generate a little traffic first.
	for i := 0; i < 5; i++ {
		_, _ = c.Fetch(reds[0].URL() + "/svc/alpha/x")
	}
	resp, err := http.Get(reds[0].URL() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Mode     string `json:"mode"`
		WindowMS int64  `json:"window_ms"`
		Admitted int    `json:"admitted"`
		Windows  int    `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "provider" || stats.WindowMS != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Windows == 0 {
		t.Fatal("window loop not running")
	}
}

func TestRedirectorRejectsUnknownOrg(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, reds, _, _ := l7Rig(t, 100, 0.5, 0.5, 1)
	c := NewClient()
	if _, err := c.Fetch(reds[0].URL() + "/svc/nobody/x"); err == nil {
		t.Fatal("unknown org served")
	}
}

func TestRedirectorConfigErrors(t *testing.T) {
	if _, err := NewRedirector(RedirectorConfig{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 10)
	eng, err := core.NewEngine(core.Config{Mode: core.Provider, System: s, ProviderPrincipal: sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRedirector(RedirectorConfig{Engine: eng}); err == nil {
		t.Fatal("missing org/backend maps accepted")
	}
}

func TestClientGivesUpEventually(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	// A redirector whose principal never has credits: the client must stop
	// after MaxAttempts self-redirects.
	_, reds, _, _ := l7Rig(t, 100, 0.5, 0.5, 1)
	c := NewClient()
	c.MaxAttempts = 3
	c.RetryDelay = time.Millisecond
	_, err := c.Fetch(reds[0].URL() + "/svc/alpha/x")
	if err == nil {
		// Credits may exist if a window elapsed; retry rapidly to drain.
		for i := 0; i < 50 && err == nil; i++ {
			_, err = c.Fetch(reds[0].URL() + "/svc/alpha/x")
		}
	}
	if c.SelfRedirects == 0 && err == nil {
		t.Skip("never hit the quota edge on this machine")
	}
}

func ExampleClient_Fetch() {
	// See examples/l7live for a complete runnable setup.
	fmt.Println("fetch follows 302s to the assigned backend")
	// Output: fetch follows 302s to the assigned backend
}
