package ctrlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

func testEngine(t *testing.T) (*agreement.System, *core.Engine) {
	t.Helper()
	sys := agreement.New()
	a := sys.MustAddPrincipal("A", 320)
	b := sys.MustAddPrincipal("B", 320)
	sys.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{
		Mode:   core.Community,
		System: sys,
		Window: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, eng
}

func post(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlaneRenegotiation drives the full admin path: a renegotiation over
// HTTP produces the next version, re-derives engine entitlements, and a
// rejected one changes nothing anywhere.
func TestPlaneRenegotiation(t *testing.T) {
	sys, eng := testEngine(t)
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	// Baseline: B grants A [0.5, 0.5] ⇒ MC_A = 480 req/s·window share.
	mcA := eng.Access().MC[0]

	resp := post(t, srv, "/v1/agreements", agreementJSON{Owner: "B", User: "A", LB: 0.25, UB: 0.25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renegotiation status %d", resp.StatusCode)
	}
	var vr struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vr.Version != 1 {
		t.Fatalf("version %d, want 1", vr.Version)
	}
	if got := eng.Access().MC[0]; got >= mcA {
		t.Fatalf("MC_A %v not reduced from %v after halving the grant", got, mcA)
	}
	if eng.LastSetVersion() != 1 {
		t.Fatalf("engine lastSet %d, want 1", eng.LastSetVersion())
	}

	// Invalid bounds: 400, version unchanged, entitlements unchanged.
	after := eng.Access().MC[0]
	resp = post(t, srv, "/v1/agreements", agreementJSON{Owner: "B", User: "A", LB: 0.9, UB: 0.1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bounds status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if plane.Version() != 1 || eng.Access().MC[0] != after {
		t.Fatal("rejected mutation leaked")
	}

	// Unknown principal: 400.
	resp = post(t, srv, "/v1/agreements", agreementJSON{Owner: "Z", User: "A", LB: 0.1, UB: 0.2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown principal status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// DELETE removes the agreement entirely.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/agreements?owner=B&user=A", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	if plane.Version() != 2 {
		t.Fatalf("version %d after delete, want 2", plane.Version())
	}

	// GET reflects the state.
	gresp, err := http.Get(srv.URL + "/v1/agreements")
	if err != nil {
		t.Fatal(err)
	}
	var st statusJSON
	if err := json.NewDecoder(gresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if st.Version != 2 || len(st.Agreements) != 0 || len(st.Principals) != 2 {
		t.Fatalf("status %+v", st)
	}
	if st.Rollout == nil || st.Rollout.SetVersion != 2 {
		t.Fatalf("rollout info %+v", st.Rollout)
	}
}

// TestPlaneJoinLeave exercises principal lifecycle over HTTP: a declared
// zero-capacity principal joins, shares capacity, then leaves again.
func TestPlaneJoinLeave(t *testing.T) {
	sys := agreement.New()
	a := sys.MustAddPrincipal("A", 320)
	c := sys.MustAddPrincipal("C", 0) // declared, not yet in service
	sys.MustSetAgreement(a, c, 0.2, 0.4)
	eng, err := core.NewEngine(core.Config{Mode: core.Community, System: sys, Window: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	resp := post(t, srv, "/v1/principals/join", principalJSON{Name: "C", Capacity: 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := eng.Access().MC[1]; got <= 0 {
		t.Fatalf("C has no mandatory entitlement after join: %v", got)
	}

	resp = post(t, srv, "/v1/principals/leave", principalJSON{Name: "C"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave status %d", resp.StatusCode)
	}
	resp.Body.Close()
	acc := eng.Access()
	if acc.MC[1] != 0 || acc.OC[1] != 0 {
		t.Fatalf("C retains entitlements after leave: MC=%v OC=%v", acc.MC[1], acc.OC[1])
	}
	if plane.Version() != 2 {
		t.Fatalf("version %d, want 2", plane.Version())
	}

	resp = post(t, srv, "/v1/principals/join", principalJSON{Name: "Q", Capacity: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown join status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestPlaneConcurrentMutators hammers the control plane from every direction
// at once — HTTP renegotiations, direct mutator calls, status reads, and
// parallel window scheduling on the plane's engine and on a peer member's
// engine the published sets are delivered to, with epoch-gated rollouts in
// flight — and relies on -race to flag unsynchronized access (CI runs this
// package with the race detector on).
func TestPlaneConcurrentMutators(t *testing.T) {
	sys, eng := testEngine(t)
	_, peer := testEngine(t)
	var epoch atomic.Int64
	plane, err := New(sys, eng, Options{
		Lead:  2,
		Epoch: func() int { return int(epoch.Load()) },
		// Every accepted set reaches the peer, as the tree delivers it.
		Publish: func(set *agreement.Set, gate int) {
			if _, err := peer.StageSet(set, gate); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	const iters = 100
	var wg sync.WaitGroup
	for id, e := range []*core.Engine{eng, peer} {
		r := e.NewRedirector(id)
		wg.Add(1)
		go func(id int, r *core.Redirector) {
			defer wg.Done()
			global := []float64{40, 40}
			for w := 1; w <= iters; w++ {
				now := time.Duration(w) * time.Millisecond
				if id == 0 {
					epoch.Store(int64(w))
				}
				r.SetGlobal(global, now)
				r.SetRollout(w, plane.Version())
				if err := r.StartWindow(now); err != nil {
					t.Error(err)
					return
				}
				r.Admit(0)
				r.Admit(1)
			}
		}(id, r)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			lb := 0.25
			if i%2 == 1 {
				lb = 0.5
			}
			if _, err := plane.SetAgreement("B", "A", lb, lb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			resp := post(t, srv, "/v1/agreements", agreementJSON{Owner: "B", User: "A", LB: 0.3, UB: 0.3})
			resp.Body.Close()
			gresp, err := http.Get(srv.URL + "/v1/agreements")
			if err != nil {
				t.Error(err)
				return
			}
			gresp.Body.Close()
		}
	}()
	wg.Wait()
	if plane.Version() == 0 {
		t.Fatal("no mutation landed")
	}
}

// TestPlanePublishGate checks the distribution side: with an Epoch source
// the snapshot is published with gate = epoch + lead, and the engine stages
// rather than committing (no redirector has crossed yet).
func TestPlanePublishGate(t *testing.T) {
	sys, eng := testEngine(t)
	_ = eng.NewRedirector(0) // registered: staging stays gated
	var published *agreement.Set
	var gate int
	plane, err := New(sys, eng, Options{
		Lead:    2,
		Epoch:   func() int { return 7 },
		Publish: func(s *agreement.Set, g int) { published, gate = s, g },
	})
	if err != nil {
		t.Fatal(err)
	}
	activeBefore := eng.Version()
	if _, err := plane.SetAgreement("B", "A", 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	if published == nil || published.Version != 1 {
		t.Fatalf("published %+v", published)
	}
	if gate != 9 {
		t.Fatalf("gate %d, want 9", gate)
	}
	info := eng.Rollout()
	if info.Active != activeBefore || info.Staged == 0 || info.GateEpoch != 9 {
		t.Fatalf("rollout %+v", info)
	}
	// Round-trip the published payload like treenet would.
	data, err := published.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := agreement.DecodeSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || len(got.Agreements) != 1 || got.Agreements[0].LB != 0.25 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestPlaneResume pins crash recovery for the control-plane host: a plane
// rebuilt with Options.Resume set to the newest durable snapshot starts at
// that snapshot's version and agreement state, so the first post-restart
// mutation produces Resume.Version+1 — not a stale version 1 the fleet
// would discard.
func TestPlaneResume(t *testing.T) {
	sys, eng := testEngine(t)
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plane.SetAgreement("B", "A", 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	durable := plane.Snapshot() // what persist.SaveSet would have stored

	// The host crashes and re-execs: a fresh plane over the seed config,
	// resumed from the recovered snapshot.
	_, eng2 := testEngine(t)
	restarted, err := New(sys, eng2, Options{Resume: durable})
	if err != nil {
		t.Fatal(err)
	}
	if got := restarted.Version(); got != 1 {
		t.Fatalf("resumed version = %d, want 1", got)
	}
	snap := restarted.Snapshot()
	if len(snap.Agreements) != 1 || snap.Agreements[0].LB != 0.25 {
		t.Fatalf("resumed agreements = %+v, want the renegotiated grant", snap.Agreements)
	}

	// The next mutation numbers monotonically from the durable version.
	v, err := restarted.SetAgreement("B", "A", 0.125, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("post-resume mutation version = %d, want 2", v)
	}

	// A snapshot that does not validate against the seed system is refused.
	bad := plane.Snapshot()
	bad.Principals = nil
	if _, err := New(sys, eng2, Options{Resume: bad}); err == nil {
		t.Fatal("resume from an invalid snapshot did not fail")
	}
}
