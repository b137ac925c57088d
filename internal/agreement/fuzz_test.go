package agreement

import (
	"bytes"
	"testing"
)

// FuzzDecodeSet feeds arbitrary bytes to the decoder behind both durable
// snapshots (persist's set-<version>.json) and the combining tree's
// configuration piggyback. A set that decodes must survive ApplySet — the
// whole-set validation either rejects it or leaves a system that still folds —
// and decode→encode must be a fixpoint: the re-encoded set decodes, and
// encodes to the same bytes again.
func FuzzDecodeSet(f *testing.F) {
	sys := New()
	a := sys.MustAddPrincipal("A", 320)
	b := sys.MustAddPrincipal("B", 320)
	sys.MustSetAgreement(b, a, 0.5, 0.5)
	valid, err := sys.Snapshot(7).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, s := range []string{
		`null`, `{}`, `[]`, `{"version":18446744073709551616}`,
		`{"version":1,"principals":null,"agreements":[{"owner":-1,"user":9,"lb":2,"ub":-1}]}`,
		`{"version":1,"principals":[{"name":"A","capacity":-1},{"name":"B","capacity":1e308}]}`,
		`{"principals":[{"name":"A","capacity":1},{"name":"B","capacity":1}],` +
			`"agreements":[{"owner":0,"user":1,"lb":0.7,"ub":1},{"owner":0,"user":1,"lb":0.6,"ub":1},{"owner":1,"user":1,"lb":0,"ub":0}]}`,
		`{"principals":[{"name":"A\xff","capacity":1}]}`,
		`{"version":2}{"version":3}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := DecodeSet(data)
		if err != nil {
			return
		}
		if len(set.Principals)+len(set.Agreements) > len(data) {
			t.Fatalf("%d principals and %d agreements decoded from %d bytes",
				len(set.Principals), len(set.Agreements), len(data))
		}
		target := sys.Clone()
		if _, err := target.ApplySet(set); err == nil {
			if _, err := target.SystemAccess(); err != nil {
				t.Fatalf("ApplySet accepted a set SystemAccess rejects: %v", err)
			}
		}
		once, err := set.Encode()
		if err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		again, err := DecodeSet(once)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		twice, err := again.Encode()
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode→encode is not a fixpoint (%v):\n%s\n%s", err, once, twice)
		}
	})
}
