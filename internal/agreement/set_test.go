package agreement

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomSystem builds a deterministic pseudo-random agreement graph with
// per-owner mandatory totals kept under 1.
func randomSystem(t *testing.T, rng *rand.Rand, n int) *System {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		s.MustAddPrincipal(string(rune('A'+i)), 100+10*float64(i))
	}
	granted := make([]float64, n)
	for o := 0; o < n; o++ {
		for u := 0; u < n; u++ {
			if o == u || rng.Float64() < 0.5 {
				continue
			}
			lb := rng.Float64() * (0.9 - granted[o]) / float64(n)
			if lb < 0 {
				lb = 0
			}
			ub := lb + rng.Float64()*(1-lb)
			if ub > 1 {
				ub = 1
			}
			if lb == 0 && ub == 0 {
				continue
			}
			s.MustSetAgreement(Principal(o), Principal(u), lb, ub)
			granted[o] += lb
		}
	}
	return s
}

func sameFlows(a, b *Flows) bool {
	if a.n != b.n {
		return false
	}
	for k := 0; k < a.n; k++ {
		for i := 0; i < a.n; i++ {
			if a.MT[k][i] != b.MT[k][i] || a.OT[k][i] != b.OT[k][i] {
				return false
			}
		}
	}
	for i := 0; i < a.n; i++ {
		if a.sumLB[i] != b.sumLB[i] {
			return false
		}
	}
	return true
}

// TestRefoldFromMatchesFullFold is the differential check behind the
// incremental control-plane refold: after any single-owner edge mutation,
// RefoldFrom must be bit-identical to a from-scratch Flows.
func TestRefoldFromMatchesFullFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		s := randomSystem(t, rng, n)
		prev, err := s.Flows()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Mutate one owner: re-bound, add, or remove an edge.
		o := Principal(rng.Intn(n))
		u := Principal((int(o) + 1 + rng.Intn(n-1)) % n)
		var lb, ub float64
		switch rng.Intn(3) {
		case 0: // remove
			lb, ub = 0, 0
		default:
			lb = rng.Float64() * 0.2
			ub = lb + rng.Float64()*(1-lb)
		}
		if err := s.SetAgreement(o, u, lb, ub); err != nil {
			continue // overcommitted draw; the mutation was rejected, nothing changed
		}
		inc, err := s.RefoldFrom(prev, []Principal{o})
		if err != nil {
			t.Fatalf("trial %d: refold: %v", trial, err)
		}
		full, err := s.Flows()
		if err != nil {
			t.Fatalf("trial %d: full fold: %v", trial, err)
		}
		if !sameFlows(inc, full) {
			t.Fatalf("trial %d: incremental refold diverges from full fold\nsystem: %v", trial, s)
		}
	}
}

// TestRefoldFromReusesCleanRows pins the incremental property: sources that
// cannot reach the dirty owner keep their exact row backing arrays.
func TestRefoldFromReusesCleanRows(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)
	c := s.MustAddPrincipal("C", 100)
	d := s.MustAddPrincipal("D", 100)
	s.MustSetAgreement(a, b, 0.2, 0.5) // A→B
	s.MustSetAgreement(c, d, 0.3, 0.6) // C→D, disconnected from A's component
	prev, err := s.Flows()
	if err != nil {
		t.Fatal(err)
	}
	newLB, newUB := 0.1, 0.4
	s.MustSetAgreement(a, b, newLB, newUB)
	inc, err := s.RefoldFrom(prev, []Principal{a})
	if err != nil {
		t.Fatal(err)
	}
	// C cannot reach A, so its row must be copied verbatim.
	if inc.MT[c][d] != prev.MT[c][d] || inc.OT[c][d] != prev.OT[c][d] {
		t.Fatalf("clean row changed: MT %v→%v", prev.MT[c], inc.MT[c])
	}
	// A's own row must reflect the new bounds.
	if inc.MT[a][b] != newLB || inc.OT[a][b] != newUB-newLB {
		t.Fatalf("dirty row not refolded: MT[a][b]=%v OT[a][b]=%v", inc.MT[a][b], inc.OT[a][b])
	}
	// Empty dirty set (capacity-only change) returns prev itself.
	same, err := s.RefoldFrom(inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != inc {
		t.Fatal("empty dirty set should return prev unchanged")
	}
}

// TestSetRoundTrip checks Snapshot → Encode → DecodeSet → ApplySet
// reproduces the source system exactly on a same-universe clone.
func TestSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomSystem(t, rng, 5)
	set := src.Snapshot(42)
	data, err := set.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 42 {
		t.Fatalf("version %d, want 42", got.Version)
	}

	dst := randomSystem(t, rand.New(rand.NewSource(99)), 5) // same names, different edges
	dirty, err := dst.ApplySet(got)
	if err != nil {
		t.Fatal(err)
	}
	if src.String() != dst.String() {
		t.Fatalf("apply did not reproduce the source:\nsrc: %v\ndst: %v", src, dst)
	}
	// Applying the same set again is a no-op with no dirty owners.
	dirty, err = dst.ApplySet(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("idempotent re-apply dirtied %v", dirty)
	}
}

// TestApplySetValidation checks the all-or-nothing contract: a bad set must
// leave the system untouched.
func TestApplySetValidation(t *testing.T) {
	s := New()
	s.MustAddPrincipal("A", 100)
	s.MustAddPrincipal("B", 200)
	s.MustSetAgreement(0, 1, 0.2, 0.5)
	before := s.String()

	cases := []*Set{
		nil,
		{Principals: []SetPrincipal{{Name: "A", Capacity: 1}}},                                                                                           // wrong count
		{Principals: []SetPrincipal{{Name: "A", Capacity: 1}, {Name: "X", Capacity: 1}}},                                                                 // wrong name
		{Principals: []SetPrincipal{{Name: "A", Capacity: -1}, {Name: "B", Capacity: 1}}},                                                                // bad capacity
		{Principals: []SetPrincipal{{Name: "A", Capacity: 1}, {Name: "B", Capacity: 1}}, Agreements: []Agreement{{Owner: 0, User: 0, LB: 0.1, UB: 0.2}}}, // self edge
		{Principals: []SetPrincipal{{Name: "A", Capacity: 1}, {Name: "B", Capacity: 1}}, Agreements: []Agreement{{Owner: 0, User: 1, LB: 0.9, UB: 0.8}}}, // bad bounds
		{Principals: []SetPrincipal{{Name: "A", Capacity: 1}, {Name: "B", Capacity: 1}}, Agreements: []Agreement{{Owner: 0, User: 5, LB: 0.1, UB: 0.2}}}, // unknown user
	}
	for i, set := range cases {
		if _, err := s.ApplySet(set); err == nil {
			t.Fatalf("case %d: bad set accepted", i)
		}
		if s.String() != before {
			t.Fatalf("case %d: system mutated by rejected set", i)
		}
	}
}

// TestCloneIsDeep checks mutations of a clone never leak back.
func TestCloneIsDeep(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 200)
	s.MustSetAgreement(a, b, 0.2, 0.5)
	c := s.Clone()
	c.MustSetAgreement(a, b, 0.4, 0.9)
	if err := c.SetCapacity(b, 999); err != nil {
		t.Fatal(err)
	}
	if lb, ub, _ := s.AgreementBetween(a, b); lb != 0.2 || ub != 0.5 {
		t.Fatalf("clone edge mutation leaked: [%v,%v]", lb, ub)
	}
	if s.Capacity(b) != 200 {
		t.Fatalf("clone capacity mutation leaked: %v", s.Capacity(b))
	}
	if p, ok := c.Lookup("B"); !ok || p != b {
		t.Fatal("clone lost name index")
	}
}

// leaseFreeSet is the two-principal set the encoding tests share.
func leaseFreeSet() *Set {
	s := New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 160.5)
	s.MustSetAgreement(b, a, 0.25, 0.75)
	return s.Snapshot(7)
}

// TestSetLeasesRoundTrip: a set carrying leases survives Encode/DecodeSet,
// and one without leases encodes without a lease key, byte for byte the
// format a build without the lease list writes and reads.
func TestSetLeasesRoundTrip(t *testing.T) {
	const golden = `{"version":7,"principals":[{"name":"A","capacity":320},{"name":"B","capacity":160.5}],` +
		`"agreements":[{"owner":1,"user":0,"lb":0.25,"ub":0.75}]}`
	plain := leaseFreeSet()
	data, err := plain.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != golden {
		t.Fatalf("lease-free set encodes to\n%s\nwant\n%s", data, golden)
	}

	leased := leaseFreeSet()
	leased.Leases = []SetLease{{Holder: 0, Owner: 1, Rate: 40}, {Holder: 0, Owner: 1, Rate: 2.5}}
	data, err = leased.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, leased) {
		t.Fatalf("round trip = %+v, want %+v", got, leased)
	}
}
