package budget

import (
	"bytes"
	"testing"
)

// FuzzDecodeTable feeds arbitrary bytes to the lease-table decoder behind
// persist's leases-<version>.json. A table that decodes either restores —
// into a ledger that holds only leases Grant could have produced, whose id
// sequence cannot wrap, and whose queries and snapshot do not panic — or is
// refused and leaves the ledger as it was. Decode→encode must be a fixpoint:
// the re-encoded table decodes, and encodes to the same bytes again.
func FuzzDecodeTable(f *testing.F) {
	l := NewLedger()
	if _, err := l.Grant("S", "C", 40, 0); err != nil {
		f.Fatal(err)
	}
	ls, err := l.Grant("S", "D", 12.5, 30)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Revoke(ls.ID); err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeTable(l.Snapshot(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, s := range []string{
		`null`, `{}`, `[]`, `{"version":-1}`, `{"next_id":18446744073709551615}`,
		`{"version":1,"next_id":0,"leases":[{"id":18446744073709551615,"owner":"S","holder":"C","rate":1,"state":"active"}]}`,
		`{"leases":[{"id":1,"rate":-5,"windows":-3,"state":"active"},{"id":1,"owner":"S\xff","rate":1e308,"state":"bogus"}]}`,
		`{"leases":null}{"version":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := DecodeTable(data)
		if err != nil {
			return
		}
		if len(tbl.Leases) > len(data) {
			t.Fatalf("%d leases decoded from %d bytes", len(tbl.Leases), len(data))
		}
		restored := NewLedger()
		if err := restored.Restore(tbl); err != nil {
			if got := restored.Snapshot(0); len(got.Leases) != 0 || got.NextID != 1 {
				t.Fatalf("a refused table changed the ledger: %+v", got)
			}
		} else {
			seen := make(map[LeaseID]bool)
			for _, ls := range restored.List() {
				if ls.Owner == "" || ls.Holder == "" || !validRate(ls.Rate) || ls.Windows < 0 || ls.ID == 0 || seen[ls.ID] {
					t.Fatalf("restored a lease Grant would refuse: %+v", ls)
				}
				seen[ls.ID] = true
			}
			fresh, err := restored.Grant("S", "C", 1, 0)
			if err != nil || fresh.ID == 0 || seen[fresh.ID] {
				t.Fatalf("grant after restore: lease %+v, err %v", fresh, err)
			}
			restored.Tick()
			if r := restored.ReservedBy("S") + restored.CreditFor("C"); !(r > 0) {
				t.Fatalf("reserved + credit = %v after a grant of 1", r)
			}
			if snap := restored.Snapshot(tbl.Version); len(snap.Leases) > len(tbl.Leases)+1 {
				t.Fatalf("restore grew the table: %d leases from %d", len(snap.Leases), len(tbl.Leases))
			}
		}
		once, err := EncodeTable(tbl)
		if err != nil {
			t.Fatalf("decoded table does not re-encode: %v", err)
		}
		again, err := DecodeTable(once)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		twice, err := EncodeTable(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode→encode is not a fixpoint (%v):\n%s\n%s", err, once, twice)
		}
	})
}
