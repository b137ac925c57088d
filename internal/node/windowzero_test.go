package node

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/obs"
	"repro/internal/persist"
)

// TestColdBootAdmitsBeforeFirstBoundary: a node admits from the moment New
// returns, on window 0's blind grant (R = 1: A's 32 own + 16 on B), with no
// window loop running. The first boundary commits window 0's trace record,
// which /v1/debug/windows then serves.
func TestColdBootAdmitsBeforeFirstBoundary(t *testing.T) {
	eng, _, a := testEngine(t, 100*time.Millisecond)
	n, err := New(Config{Layer: "test", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Admission().CreditsRemaining(a); got != 48 {
		t.Fatalf("window 0 credit for A = %v, want the blind grant 48", got)
	}
	if !n.Admission().Admit(a).Admitted {
		t.Fatal("a cold node refused its first request")
	}

	if err := n.boundary(); err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	n.ObsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/windows", nil))
	var out struct{ Records []obs.Record }
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode /v1/debug/windows: %v (%s)", err, rr.Body.String())
	}
	if len(out.Records) != 1 {
		t.Fatalf("/v1/debug/windows served %d records, want window 0's", len(out.Records))
	}
	rec := out.Records[0]
	if rec.Window != 0 || !rec.Conservative || rec.Granted[a] != 48 || rec.Ceil[a] != 48 || rec.Served[a] != 1 {
		t.Fatalf("window 0 record = %+v, want blind, granted = ceil = 48, one served", rec)
	}
}

// TestRestoredNodeKeepsCarriedCredit: a node recovering from a store holds,
// in window 0, the blind grant of the recovered agreement set plus the carry
// of the restored credit — min(1, restored) per cell — in the admission
// plane it admits on, not only in the scheduler behind it.
func TestRestoredNodeKeepsCarriedCredit(t *testing.T) {
	eng, sys, a := testEngine(t, 100*time.Millisecond)
	b := agreement.Principal(1)
	st := openStore(t)
	prev := sys.Clone()
	if err := prev.SetAgreement(b, a, 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSet(prev.Snapshot(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendWindow(persist.WindowState{
		WindowSeq: 42, Epoch: 42, SetVersion: 3,
		Estimate: []float64{7, 5}, Credit: [][]float64{{3, 0}, {1, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Layer: "test", Engine: eng, Persist: st})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Set v3 (B shares a quarter): A holds 32 own + 8 on B and carries
	// min(1, 3) + min(1, 0); B holds 24 own and carries min(1, 1) + min(1, 2).
	if got := n.Admission().CreditsRemaining(a); got != 40+1 {
		t.Fatalf("restored window 0 credit for A = %v, want 41", got)
	}
	if got := n.Admission().CreditsRemaining(b); got != 24+2 {
		t.Fatalf("restored window 0 credit for B = %v, want 26", got)
	}
	admitted := 0
	for n.Admission().Admit(a).Admitted {
		admitted++
	}
	if admitted != 41 {
		t.Fatalf("window 0 admitted %d for A, want 41", admitted)
	}
	if err := n.boundary(); err != nil {
		t.Fatal(err)
	}
	recs := n.Observer().Ring().Snapshot(0)
	if len(recs) != 1 || recs[0].Window != 0 || recs[0].Floor[a] != 40 || recs[0].Ceil[a] != 41 || recs[0].Served[a] != 41 {
		t.Fatalf("window 0 record = %+v, want floor 40, ceiling 41, 41 served", recs)
	}
	if over := n.Observer().Auditor().OverUB(int(a)); over != 0 {
		t.Fatalf("window 0 counted %d over-ceiling", over)
	}
}
