package agreement

import (
	"fmt"
	"testing"
)

// budgetTree48 is the 48-node budget tree as budget.Compile lays it out:
// node i's children are 3i+1..3i+3, every edge grants [0.3, 1], the root
// owns 20 000 req/s, and principals are numbered in depth-first preorder.
// It also returns one (owner, user) edge two levels down, the kind of pair
// a renegotiation rebounds.
func budgetTree48() (s *System, owner, user Principal) {
	s = New()
	var add func(i int, parent Principal) Principal
	add = func(i int, parent Principal) Principal {
		capacity := 0.0
		if i == 0 {
			capacity = 20000
		}
		p := s.MustAddPrincipal(fmt.Sprintf("n%02d", i), capacity)
		if parent >= 0 {
			s.MustSetAgreement(parent, p, 0.3, 1)
		}
		if i == 5 {
			owner, user = parent, p
		}
		for c := 3*i + 1; c <= 3*i+3 && c < 48; c++ {
			add(c, p)
		}
		return p
	}
	add(0, -1)
	return s, owner, user
}

// TestRenegotiationAllocs pins what the mutation path's agreement calls
// allocate on the 48-node budget tree: a snapshot is its three slices, a fold
// its matrices and scratch, an incremental refold adds the reverse graph in
// two arrays. Before edge lists they cost 89, 183 and 233.
func TestRenegotiationAllocs(t *testing.T) {
	s, owner, user := budgetTree48()
	prev, err := s.Flows()
	if err != nil {
		t.Fatal(err)
	}
	s.MustSetAgreement(owner, user, 0.27, 1)
	dirty := []Principal{owner}
	for _, pin := range []struct {
		name string
		max  float64
		call func()
	}{
		{"Snapshot", 3, func() { s.Snapshot(1) }},
		{"Flows", 8, func() {
			if _, err := s.Flows(); err != nil {
				t.Fatal(err)
			}
		}},
		{"RefoldFrom", 12, func() {
			if _, err := s.RefoldFrom(prev, dirty); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(20, pin.call)
		t.Logf("%s: %v allocs", pin.name, got)
		if got > pin.max {
			t.Errorf("%s allocates %v times on the 48-node tree, pin %v", pin.name, got, pin.max)
		}
	}
}
