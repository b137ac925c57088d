package budget

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestFoldMatchesFlatAgreementFold is the conservation property test: for a
// corpus of random budget trees, folding the hierarchy directly (Fold) and
// compiling it to chained agreements then running the flat Figure-5 fold
// must produce the same entitlement for every node, and the summed
// mandatory capacity must equal the summed root capacities exactly —
// hierarchy neither creates nor destroys guaranteed credit.
func TestFoldMatchesFlatAgreementFold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		spec := randomSpec(rng, trial)
		direct, err := Fold(spec)
		if err != nil {
			t.Fatalf("trial %d: direct fold: %v", trial, err)
		}
		sys, err := Compile(spec)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		access, err := sys.SystemAccess()
		if err != nil {
			t.Fatalf("trial %d: flat fold: %v", trial, err)
		}
		totalCap := 0.0
		for i := range spec.Roots {
			totalCap += spec.Roots[i].Capacity
		}
		flatMC := 0.0
		for name, want := range direct {
			p, ok := sys.Lookup(name)
			if !ok {
				t.Fatalf("trial %d: compiled system lost node %q", trial, name)
			}
			if !close(access.MC[p], want.MC) {
				t.Fatalf("trial %d: node %q MC: flat %v, tree %v", trial, name, access.MC[p], want.MC)
			}
			if !close(access.OC[p], want.OC) {
				t.Fatalf("trial %d: node %q OC: flat %v, tree %v", trial, name, access.OC[p], want.OC)
			}
			flatMC += access.MC[p]
		}
		if !close(flatMC, totalCap) {
			t.Fatalf("trial %d: mandatory total %v != root capacity %v (credit created or destroyed)",
				trial, flatMC, totalCap)
		}
		if !close(direct.Total(), totalCap) {
			t.Fatalf("trial %d: tree mandatory total %v != root capacity %v", trial, direct.Total(), totalCap)
		}
	}
}

// close compares with a tolerance scaled for products of random fractions.
func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// randomSpec builds a valid random forest: 1–2 roots, depth ≤ 3, child
// floors drawn so they sum below 1, ceils in [floor, 1].
func randomSpec(rng *rand.Rand, trial int) Spec {
	var spec Spec
	id := 0
	roots := 1 + rng.Intn(2)
	for r := 0; r < roots; r++ {
		root := Node{
			Name:     fmt.Sprintf("t%d-org%d", trial, r),
			Capacity: 10 + rng.Float64()*990,
		}
		addChildren(rng, &root, trial, &id, 3)
		spec.Roots = append(spec.Roots, root)
	}
	return spec
}

// addChildren attaches 0–3 random children and recurses to the depth limit.
func addChildren(rng *rand.Rand, n *Node, trial int, id *int, depth int) {
	if depth == 0 {
		return
	}
	kids := rng.Intn(4)
	remaining := 1.0
	for c := 0; c < kids; c++ {
		floor := rng.Float64() * remaining * 0.8
		remaining -= floor
		ceil := floor + rng.Float64()*(1-floor)
		child := Node{
			Name:  fmt.Sprintf("t%d-n%d", trial, *id),
			Floor: floor,
			Ceil:  ceil,
		}
		*id++
		addChildren(rng, &child, trial, id, depth-1)
		n.Children = append(n.Children, child)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"unnamed", Spec{Roots: []Node{{Capacity: 10}}}},
		{"duplicate", Spec{Roots: []Node{{Name: "a", Capacity: 10,
			Children: []Node{{Name: "a", Floor: 0.1}}}}}},
		{"overcommitted", Spec{Roots: []Node{{Name: "a", Capacity: 10,
			Children: []Node{{Name: "b", Floor: 0.7}, {Name: "c", Floor: 0.5}}}}}},
		{"ceil below floor", Spec{Roots: []Node{{Name: "a", Capacity: 10,
			Children: []Node{{Name: "b", Floor: 0.7, Ceil: 0.5}}}}}},
		{"interior capacity", Spec{Roots: []Node{{Name: "a", Capacity: 10,
			Children: []Node{{Name: "b", Floor: 0.5, Capacity: 5}}}}}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", c.name)
		}
	}
}

func TestLeaseLifecycle(t *testing.T) {
	l := NewLedger()
	ls, err := l.Grant("org", "svc", 30, 0)
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	if ls.ID != 1 || ls.State != LeaseActive {
		t.Fatalf("unexpected lease %+v", ls)
	}
	if got := l.ReservedBy("org"); got != 30 {
		t.Fatalf("ReservedBy = %v, want 30", got)
	}
	if got := l.CreditFor("svc"); got != 30 {
		t.Fatalf("CreditFor = %v, want 30", got)
	}
	if _, err := l.Shrink(ls.ID, 40); err == nil {
		t.Fatal("Shrink above current rate accepted")
	}
	if _, err := l.Shrink(ls.ID, 10); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := l.ReservedBy("org"); got != 10 {
		t.Fatalf("ReservedBy after shrink = %v, want 10", got)
	}
	if _, err := l.Revoke(ls.ID); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if got := l.ReservedBy("org"); got != 0 {
		t.Fatalf("ReservedBy after revoke = %v, want 0", got)
	}
	if _, err := l.Revoke(ls.ID); err == nil {
		t.Fatal("double revoke accepted")
	}
}

func TestLeaseTickExpiry(t *testing.T) {
	l := NewLedger()
	short, _ := l.Grant("org", "a", 5, 2)
	forever, _ := l.Grant("org", "b", 7, 0)
	if exp := l.Tick(); len(exp) != 0 {
		t.Fatalf("expired after 1 tick: %v", exp)
	}
	exp := l.Tick()
	if len(exp) != 1 || exp[0].ID != short.ID || exp[0].State != LeaseExpired {
		t.Fatalf("expired after 2 ticks: %+v", exp)
	}
	if got := l.ReservedBy("org"); got != 7 {
		t.Fatalf("ReservedBy = %v, want 7 (only the until-revoked lease)", got)
	}
	if got, _ := l.Get(forever.ID); got.Windows != 0 || got.State != LeaseActive {
		t.Fatalf("until-revoked lease mutated: %+v", got)
	}
}

func TestTableRoundTrip(t *testing.T) {
	l := NewLedger()
	_, _ = l.Grant("org", "a", 5, 3)
	b, _ := l.Grant("org", "b", 7, 0)
	_, _ = l.Revoke(b.ID)
	table := l.Snapshot(9)
	data, err := EncodeTable(table)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeTable(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	restored := NewLedger()
	if err := restored.Restore(back); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := restored.List(); len(got) != 2 || got[0].Holder != "a" || got[1].State != LeaseRevoked {
		t.Fatalf("restored ledger: %+v", got)
	}
	// Grants after restore continue the id sequence, never reuse one.
	next, _ := restored.Grant("org", "c", 1, 0)
	if next.ID != 3 {
		t.Fatalf("post-restore id = %d, want 3", next.ID)
	}
}

// TestRestoreRefusesWhatGrantRefuses feeds Restore tables no ledger could
// have produced. Each must be refused with an error naming the offending
// lease, and the ledger must keep what it held.
func TestRestoreRefusesWhatGrantRefuses(t *testing.T) {
	ok := Lease{ID: 1, Owner: "org", Holder: "a", Rate: 5, State: LeaseActive}
	with := func(edit func(*Lease)) Lease {
		ls := ok
		ls.ID = 2
		edit(&ls)
		return ls
	}
	for name, tc := range map[string]struct {
		table Table
		names string
	}{
		"negative rate":   {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Rate = -5 })}}, "lease 2"},
		"nan rate":        {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Rate = math.NaN() })}}, "lease 2"},
		"infinite rate":   {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Rate = math.Inf(1) })}}, "lease 2"},
		"empty owner":     {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Owner = "" })}}, "lease 2"},
		"empty holder":    {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Holder = "" })}}, "lease 2"},
		"negative life":   {Table{Leases: []Lease{ok, with(func(l *Lease) { l.Windows = -3 })}}, "lease 2"},
		"unknown state":   {Table{Leases: []Lease{ok, with(func(l *Lease) { l.State = "bogus" })}}, "lease 2"},
		"duplicate id":    {Table{Leases: []Lease{ok, with(func(l *Lease) { l.ID = 1 })}}, "lease id 1"},
		"zero id":         {Table{Leases: []Lease{ok, with(func(l *Lease) { l.ID = 0 })}}, "lease id 0"},
		"last id":         {Table{Leases: []Lease{ok, with(func(l *Lease) { l.ID = math.MaxUint64 })}}, "lease id 18446744073709551615"},
		"exhausted ids":   {Table{NextID: math.MaxUint64, Leases: []Lease{ok}}, "next id 18446744073709551615"},
		"garbage-in-tail": {Table{Leases: []Lease{ok, with(func(l *Lease) {}), with(func(l *Lease) { l.ID, l.Rate = 3, 0 })}}, "lease 3"},
	} {
		t.Run(name, func(t *testing.T) {
			l := NewLedger()
			held, _ := l.Grant("org", "keep", 9, 0)
			err := l.Restore(&tc.table)
			if !errors.Is(err, ErrLease) || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("Restore error %v, want an ErrLease naming %q", err, tc.names)
			}
			if got := l.List(); len(got) != 1 || got[0] != held {
				t.Fatalf("a refused table changed the ledger: %+v", got)
			}
			if next, _ := l.Grant("org", "next", 1, 0); next.ID != held.ID+1 {
				t.Fatalf("a refused table moved the id sequence: next id %d", next.ID)
			}
		})
	}
	l := NewLedger()
	if _, err := l.Grant("org", "a", math.NaN(), 0); err == nil {
		t.Fatal("Grant accepted a NaN rate")
	}
	if _, err := l.Grant("org", "a", math.Inf(1), 0); err == nil {
		t.Fatal("Grant accepted an infinite rate")
	}
}
