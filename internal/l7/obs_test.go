package l7

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topology"
)

// staleRig builds a two-redirector tree (root 0 ← child 1) with a tight
// staleness bound so killing the root starves the child of broadcasts. A
// positive failureTimeout arms failure detection — a treenet.PlaneReparenter
// over the pair's one-region plane — so survivors prune silent neighbors and
// rewire instead of staying conservative forever.
func staleRig(t *testing.T, staleness, failureTimeout time.Duration) (root, child *Redirector) {
	t.Helper()
	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.75, 1)
	s.MustSetAgreement(sp, b, 0.25, 1)
	// Each redirector runs its own engine, as separate processes do.
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(core.Config{
			Mode:              core.Provider,
			System:            s.Clone(),
			ProviderPrincipal: sp,
			NumRedirectors:    2,
			Window:            20 * time.Millisecond,
			Staleness:         staleness,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	backend, err := NewBackend("127.0.0.1:0", 300)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })
	orgs := map[string]agreement.Principal{"alpha": a, "beta": b}
	backends := map[agreement.Principal][]string{sp: {backend.URL()}}

	reds := make([]*Redirector, 2)
	for i := 0; i < 2; i++ {
		// The flat tree 0 → 1 is the one-region plane over {0, 1}.
		r, err := NewRedirector(RedirectorConfig{
			Engine: newEngine(), ID: i, Addr: "127.0.0.1:0", Orgs: orgs, Backends: backends,
			Tree: &TreeConfig{
				NodeID:         combining.NodeID(i),
				Topology:       &topology.Spec{Regions: []topology.Region{{Name: "flat", Members: []int{0, 1}}}},
				FailureTimeout: failureTimeout,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		reds[i] = r
	}
	reds[0].SetTreePeer(1, reds[1].TreeAddr())
	reds[1].SetTreePeer(0, reds[0].TreeAddr())
	return reds[0], reds[1]
}

// TestStalenessFallbackTraced freezes the tree root and asserts the child's
// window trace and auditor record the conservative 1/R fallback: records
// flip to Conservative with global age beyond the staleness bound.
func TestStalenessFallbackTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const staleness = 150 * time.Millisecond
	root, child := staleRig(t, staleness, 0)

	// Phase 1: broadcasts flowing — wait until the child audits fresh
	// windows. (The first window or two may legitimately run conservative
	// before the root's first broadcast lands.)
	deadline := time.Now().Add(3 * time.Second)
	aud := child.Observer().Auditor()
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never traced a fresh window")
		}
		recs := child.Observer().Ring().Snapshot(1)
		if aud.Windows() >= 5 && len(recs) == 1 && !recs[0].Conservative && recs[0].HaveGlobal {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: kill the root. The child's global view ages past the bound
	// and every subsequent window must fall back to the 1/R mandatory share.
	root.Close()
	markConservative := aud.Conservative()
	deadline = time.Now().Add(3 * time.Second)
	for aud.Conservative() < markConservative+5 {
		if time.Now().After(deadline) {
			t.Fatalf("child audited only %d conservative windows", aud.Conservative())
		}
		time.Sleep(10 * time.Millisecond)
	}

	recs := child.Observer().Ring().Snapshot(6)
	if len(recs) == 0 {
		t.Fatal("empty trace ring")
	}
	// The most recent handful of windows all ran blind; ages keep growing.
	lastAge := int64(0)
	for _, rec := range recs[len(recs)-3:] {
		if !rec.Conservative {
			t.Fatalf("window %d after root failure not conservative", rec.Window)
		}
		if rec.GlobalAgeNanos <= int64(staleness) {
			t.Fatalf("window %d global age %dns within staleness bound", rec.Window, rec.GlobalAgeNanos)
		}
		if rec.GlobalAgeNanos <= lastAge {
			t.Fatalf("global age not growing: %d after %d", rec.GlobalAgeNanos, lastAge)
		}
		lastAge = rec.GlobalAgeNanos
	}
}

// TestRootKillReparentsAndResumesFreshWindows is the recovery counterpart of
// TestStalenessFallbackTraced: with the plane detector armed, killing the
// tree root drives the child conservative only transiently — it prunes the
// silent root from its plane, promotes itself, and resumes fresh
// (non-conservative, global-bearing) windows without a process restart.
func TestRootKillReparentsAndResumesFreshWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const staleness = 150 * time.Millisecond
	root, child := staleRig(t, staleness, 300*time.Millisecond)

	// Phase 1: broadcasts flowing — the child audits fresh windows.
	aud := child.Observer().Auditor()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child never traced a fresh window")
		}
		recs := child.Observer().Ring().Snapshot(1)
		if aud.Windows() >= 5 && len(recs) == 1 && !recs[0].Conservative && recs[0].HaveGlobal {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: kill the root. The child must detect the silence, rewire
	// itself into a singleton tree, and — as its own root — escape the
	// conservative fallback with a stream of fresh windows.
	root.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			recs := child.Observer().Ring().Snapshot(3)
			t.Fatalf("child never resumed fresh windows after root kill: root=%d trace=%+v",
				topologyRoot(t, child), recs)
		}
		if topologyRoot(t, child) == 1 {
			recs := child.Observer().Ring().Snapshot(3)
			fresh := len(recs) == 3
			for _, rec := range recs {
				if rec.Conservative || !rec.HaveGlobal {
					fresh = false
				}
			}
			if fresh {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The fall back and recovery both left an audit trail: some windows ran
	// conservative during the outage, and the trace has since gone fresh.
	if aud.Conservative() == 0 {
		t.Fatal("no conservative windows audited during the outage")
	}
}

// TestObsEndpointsLive scrapes /v1/metrics and /v1/debug/windows from a running
// Layer-7 redirector.
func TestObsEndpointsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	_, reds, _, _ := l7Rig(t, 100, 0.5, 0.5, 1)
	r := reds[0]
	c := NewClient()
	for i := 0; i < 10; i++ {
		_, _ = c.Fetch(r.URL() + "/svc/alpha/x")
	}
	// Let a few windows commit so the ring and auditor have records.
	deadline := time.Now().Add(3 * time.Second)
	for r.Observer().Auditor().Windows() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no windows audited")
		}
		time.Sleep(10 * time.Millisecond)
	}

	body := fetchBody(t, r.URL()+"/v1/metrics")
	for _, want := range []string{
		`rsa_redirector_info{mode="provider",window_ms="20"} 1`,
		"rsa_windows_total",
		`rsa_windows_under_mc_total{principal="A"}`,
		`rsa_served_requests_total{principal="S"}`,
		"rsa_solver_solves_total",
		"rsa_l7_admitted_total",
		"rsa_l7_rejected_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	windows := fetchBody(t, r.URL()+"/v1/debug/windows?n=4")
	if !strings.Contains(windows, `"records"`) || !strings.Contains(windows, `"window"`) {
		t.Fatalf("/v1/debug/windows payload = %.200s", windows)
	}
	if !strings.Contains(windows, `"granted"`) {
		t.Fatal("/v1/debug/windows records lack credit vectors")
	}

	// The pre-/v1 aliases are retired on the traffic mux too.
	for _, path := range []string{"/metrics", "/debug/windows"} {
		resp, err := http.Get(r.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on the traffic mux: %s, want 404", path, resp.Status)
		}
	}
}

// topologyRoot reads the tree root a redirector currently reports on
// GET /v1/topology; a node that pruned its parent reports itself.
func topologyRoot(t *testing.T, r *Redirector) int {
	t.Helper()
	var info obs.TopologyInfo
	if err := json.Unmarshal([]byte(fetchBody(t, r.URL()+"/v1/topology")), &info); err != nil {
		t.Fatal(err)
	}
	return info.Root
}

func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
