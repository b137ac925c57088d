package ctrlplane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/agreement"
	"repro/internal/budget"
)

// TestLeaseGrantRevokeCapacity pins the entitlement half of a lease: a grant
// sets the leased rate aside out of the owner's published capacity, revoke
// restores it, and both ride the versioned set path.
func TestLeaseGrantRevokeCapacity(t *testing.T) {
	sys, eng := testEngine(t)
	var saved []*budget.Table
	plane, err := New(sys, eng, Options{SaveLeases: func(tb *budget.Table) { saved = append(saved, tb) }})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sys.Lookup("A")
	nominal := eng.Capacities()[a]

	ls, err := plane.GrantLease("A", "B", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Capacities()[a]; got != nominal-100 {
		t.Fatalf("capacity after grant = %v, want %v", got, nominal-100)
	}
	// The credit half rides the published set to the engine: B holds
	// 100 req/s of lease credit.
	b, _ := sys.Lookup("B")
	if got := plane.Snapshot().Leases; len(got) != 1 || got[0] != (agreement.SetLease{Holder: b, Owner: a, Rate: 100}) {
		t.Fatalf("published leases = %+v, want B's 100 req/s from A", got)
	}
	if rates := eng.LeaseCredits(); rates == nil || rates[b] != 100 {
		t.Fatalf("engine lease credits = %v, want 100 for B", rates)
	}
	// Over-reserving beyond the unreserved capacity is rejected.
	if _, err := plane.GrantLease("A", "B", nominal, 0); err == nil {
		t.Fatal("over-reserving grant accepted")
	}

	if _, err := plane.ShrinkLease(ls.ID, 40); err != nil {
		t.Fatal(err)
	}
	if got := eng.Capacities()[a]; got != nominal-40 {
		t.Fatalf("capacity after shrink = %v, want %v", got, nominal-40)
	}

	v := plane.Version()
	if _, err := plane.RevokeLease(ls.ID); err != nil {
		t.Fatal(err)
	}
	if got := eng.Capacities()[a]; got != nominal {
		t.Fatalf("capacity after revoke = %v, want nominal %v", got, nominal)
	}
	if plane.Version() != v+1 {
		t.Fatalf("revoke did not publish a new set version")
	}
	if rates := eng.LeaseCredits(); rates != nil {
		t.Fatalf("lease credits after revoke = %v, want none", rates)
	}
	if len(saved) == 0 || saved[len(saved)-1].Version != plane.LeaseTable().Version {
		t.Fatalf("SaveLeases did not track mutations: %d snapshots", len(saved))
	}
}

// TestLeaseExpiryReleasesCapacity drives TickLeases through a finite lease.
func TestLeaseExpiryReleasesCapacity(t *testing.T) {
	sys, eng := testEngine(t)
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sys.Lookup("A")
	nominal := eng.Capacities()[a]
	ls, err := plane.GrantLease("A", "B", 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plane.RenewLease(ls.ID, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if exp, err := plane.TickLeases(); err != nil || len(exp) != 0 {
			t.Fatalf("tick %d: expired %v err %v", i, exp, err)
		}
	}
	exp, err := plane.TickLeases()
	if err != nil || len(exp) != 1 || exp[0].ID != ls.ID {
		t.Fatalf("final tick: expired %v err %v", exp, err)
	}
	if got := eng.Capacities()[a]; got != nominal {
		t.Fatalf("capacity after expiry = %v, want nominal %v", got, nominal)
	}
}

// TestLeaseResume restores a ledger from a durable table: id numbering
// continues, and the resumed set carries the active leases' credit to the
// engine.
func TestLeaseResume(t *testing.T) {
	sys, eng := testEngine(t)
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plane.GrantLease("A", "B", 60, 0); err != nil {
		t.Fatal(err)
	}
	table := plane.LeaseTable()
	resumedSet := plane.Snapshot()

	// A restarted host: fresh system carrying the resumed agreement set
	// (with the set-aside) plus the resumed lease table.
	sys2, eng2 := testEngine(t)
	if _, err := eng2.StageSet(resumedSet, 0); err != nil {
		t.Fatal(err)
	}
	plane2, err := New(sys2, eng2, Options{Resume: resumedSet, ResumeLeases: table})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys2.Lookup("B")
	if rates := eng2.LeaseCredits(); rates == nil || rates[b] != 60 {
		t.Fatalf("resumed engine lease credits = %v, want 60 for B", rates)
	}
	next, err := plane2.GrantLease("A", "B", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != 2 {
		t.Fatalf("post-resume lease id = %d, want 2", next.ID)
	}
	// Nominal capture post-resume: effective (nominal−60) + reserved 60.
	a, _ := sys2.Lookup("A")
	if got := eng2.Capacities()[a]; got != 320-70 {
		t.Fatalf("capacity after resumed grant = %v, want 250", got)
	}
}

// TestLeaseResumeRefusesGarbage boots a host whose newest durable lease table
// decodes but holds a lease no ledger could have granted. It must come up
// without leases — nothing of the table enforced, not even its sound entries —
// and its next snapshot must supersede the refused one.
func TestLeaseResumeRefusesGarbage(t *testing.T) {
	sys, eng := testEngine(t)
	table := &budget.Table{Version: 7, NextID: 3, Leases: []budget.Lease{
		{ID: 1, Owner: "A", Holder: "B", Rate: 60, State: budget.LeaseActive},
		{ID: 2, Owner: "A", Holder: "B", Rate: -5, State: budget.LeaseActive},
	}}
	var saved *budget.Table
	plane, err := New(sys, eng, Options{ResumeLeases: table, SaveLeases: func(t *budget.Table) { saved = t }})
	if err != nil {
		t.Fatalf("a refused lease table failed the boot: %v", err)
	}
	if rates := eng.LeaseCredits(); rates != nil {
		t.Fatalf("lease credits %v installed from a refused table", rates)
	}
	if got := plane.LeaseTable(); len(got.Leases) != 0 {
		t.Fatalf("ledger holds %+v from a refused table", got.Leases)
	}
	if _, err := plane.GrantLease("A", "B", 10, 0); err != nil {
		t.Fatal(err)
	}
	if saved == nil || saved.Version <= table.Version || len(saved.Leases) != 1 {
		t.Fatalf("snapshot after the boot: %+v, want one lease at a version above %d", saved, table.Version)
	}
}

// TestLeaseHTTP exercises the /v1/leases admin surface end to end.
func TestLeaseHTTP(t *testing.T) {
	sys, eng := testEngine(t)
	plane, err := New(sys, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	resp := post(t, srv, "/v1/leases", map[string]any{
		"owner": "A", "holder": "B", "rate": 80.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grant status %d", resp.StatusCode)
	}
	var ls budget.Lease
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ls.ID != 1 || ls.State != budget.LeaseActive {
		t.Fatalf("granted lease %+v", ls)
	}

	resp = post(t, srv, "/v1/leases/shrink", map[string]any{"id": 1, "rate": 20.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shrink status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	var st leaseStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Leases) != 1 || st.Leases[0].Rate != 20 || st.ReclaimBound != DefaultLead+1 {
		t.Fatalf("lease status %+v", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/leases?id=1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad requests are 400s that change nothing.
	resp = post(t, srv, "/v1/leases", map[string]any{"owner": "nope", "holder": "B", "rate": 1.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown owner status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, srv, "/v1/leases/renew", map[string]any{"id": 1, "windows": 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("renewing a revoked lease: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}
