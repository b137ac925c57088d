package treenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/combining"
)

// testAgg is an n-principal aggregate with distinct values everywhere.
func testAgg(n int) combining.Aggregate {
	v := make([]float64, n)
	for i := range v {
		v[i] = 7.1 * float64(i+1) / 3 // full mantissas, as smoothed queue estimates have
	}
	a := combining.FromLocal(v)
	a.Count = 3
	return a
}

// sparseOf is a delta frame carrying every stride-th entry of a.
func sparseOf(a combining.Aggregate, stride int) combining.DeltaFrame {
	f := combining.DeltaFrame{Seq: 9, N: len(a.Sum), Count: a.Count}
	for i := 0; i < len(a.Sum); i += stride {
		f.Idx = append(f.Idx, i)
		f.Sum = append(f.Sum, a.Sum[i])
		f.Max = append(f.Max, a.Max[i])
		f.Min = append(f.Min, a.Min[i])
		f.SumSq = append(f.SumSq, a.SumSq[i])
	}
	return f
}

// sampleFrames is every kind × dense/full/sparse × cfg/no-cfg at n
// principals: the fuzz corpus and the round-trip table.
func sampleFrames(n int) []frame {
	a := testAgg(n)
	var dense, full combining.DeltaFrame
	setDense(&dense, a)
	setDense(&full, a)
	full.Seq = 8
	payloads := []struct {
		delta bool
		agg   combining.DeltaFrame
	}{{false, dense}, {true, full}, {true, sparseOf(a, 3)}}
	var out []frame
	for _, kind := range []byte{kindReport, kindBroadcast} {
		for _, p := range payloads {
			for _, cfg := range []bool{false, true} {
				f := frame{kind: kind, from: 5, epoch: 4711, ack: 12, delta: p.delta, agg: p.agg}
				if cfg {
					f.hasCfg = true
					f.cfg = combining.ConfigUpdate{Version: 13, GateEpoch: 4720, Payload: []byte(`{"version":13}`)}
				}
				out = append(out, f)
			}
		}
	}
	return append(out, frame{kind: kindRejoin, from: 7, epoch: 40, ack: 12})
}

// sameFloats compares bit patterns: NaN equals itself, 0 differs from −0.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameFrame(a, b *frame) error {
	if a.kind != b.kind || a.from != b.from || a.epoch != b.epoch || a.ack != b.ack {
		return fmt.Errorf("header %+v != %+v", a, b)
	}
	if a.hasCfg != b.hasCfg || a.cfg.Version != b.cfg.Version || a.cfg.GateEpoch != b.cfg.GateEpoch || !bytes.Equal(a.cfg.Payload, b.cfg.Payload) {
		return fmt.Errorf("config %+v != %+v", a, b)
	}
	if a.kind == kindRejoin {
		return nil
	}
	x, y := &a.agg, &b.agg
	if a.delta != b.delta || x.Seq != y.Seq || x.Full != y.Full || x.N != y.N || x.Count != y.Count || len(x.Idx) != len(y.Idx) {
		return fmt.Errorf("payload header %+v != %+v", x, y)
	}
	for i := range x.Idx {
		if x.Idx[i] != y.Idx[i] {
			return fmt.Errorf("idx %v != %v", x.Idx, y.Idx)
		}
	}
	if !sameFloats(x.Sum, y.Sum) || !sameFloats(x.Max, y.Max) || !sameFloats(x.Min, y.Min) || !sameFloats(x.SumSq, y.SumSq) {
		return fmt.Errorf("statistics %+v != %+v", x, y)
	}
	return nil
}

// decodeBytes decodes wire, which must hold exactly one frame, into f.
func decodeBytes(wire []byte, f *frame) error {
	d := decoder{br: bufio.NewReader(bytes.NewReader(wire))}
	n, err := d.read()
	if err == nil && n != len(wire) {
		return fmt.Errorf("consumed %d of %d bytes", n, len(wire))
	}
	*f = d.f
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 12} {
		for i, want := range sampleFrames(n) {
			wire, _ := appendFrame(nil, &want)
			var got frame
			if err := decodeBytes(wire, &got); err != nil {
				t.Fatalf("n=%d frame %d: %v", n, i, err)
			}
			if err := sameFrame(&want, &got); err != nil {
				t.Fatalf("n=%d frame %d: %v", n, i, err)
			}
		}
	}
}

// TestFrameSpecialFloats: the identity aggregate is ±Inf (encoding/json
// refused it), and NaN payload bits and −0 must survive too — settled
// credits are compared bit for bit across replays.
func TestFrameSpecialFloats(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	special := []float64{math.Inf(1), math.Inf(-1), nan, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	a := combining.Aggregate{Sum: special, Max: special, Min: special, SumSq: special, Count: 1}
	for _, want := range []frame{
		{kind: kindReport, agg: func() (d combining.DeltaFrame) { setDense(&d, a); return }()},
		{kind: kindBroadcast, delta: true, agg: sparseOf(a, 1)},
		{kind: kindReport, agg: func() (d combining.DeltaFrame) { setDense(&d, combining.NewAggregate(4)); return }()},
	} {
		wire, _ := appendFrame(nil, &want)
		var got frame
		if err := decodeBytes(wire, &got); err != nil {
			t.Fatal(err)
		}
		if err := sameFrame(&want, &got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameRejects: truncations, a foreign version, an over-long length
// and trailing bytes are protocol errors, never a panic or a short frame.
func TestFrameRejects(t *testing.T) {
	good := sampleFrames(5)
	var f frame
	for i := range good {
		wire, _ := appendFrame(nil, &good[i])
		for cut := 0; cut < len(wire); cut++ {
			if err := decodeBytes(wire[:cut], &f); err == nil {
				t.Fatalf("frame %d truncated to %d of %d bytes decoded", i, cut, len(wire))
			}
		}
		// The same body one byte shorter, with a length prefix that agrees.
		short := append([]byte(nil), wire[:len(wire)-1]...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		if err := decodeBytes(short, &f); !errors.Is(err, errFrame) {
			t.Fatalf("frame %d short body: %v", i, err)
		}
		long := append(append([]byte(nil), wire...), 0)
		binary.LittleEndian.PutUint32(long, uint32(len(long)-4))
		if err := decodeBytes(long, &f); !errors.Is(err, errFrame) {
			t.Fatalf("frame %d trailing byte: %v", i, err)
		}
		other := append([]byte(nil), wire...)
		other[4] = wireVersion + 1
		if err := decodeBytes(other, &f); !errors.Is(err, errFrame) {
			t.Fatalf("frame %d foreign version: %v", i, err)
		}
		// The tree field (after the one-byte from varint) is always 0.
		other = append(other[:0], wire...)
		other[8] = 1
		if err := decodeBytes(other, &f); !errors.Is(err, errFrame) {
			t.Fatalf("frame %d nonzero tree: %v", i, err)
		}
	}
	huge := binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1)
	if err := decodeBytes(huge, &f); !errors.Is(err, errFrame) {
		t.Fatalf("over-long frame: %v", err)
	}
	// What a peer still speaking the JSON protocol would open with.
	if err := decodeBytes([]byte(`{"from":1,"kind":"report"}`), &f); !errors.Is(err, errFrame) {
		t.Fatalf("JSON envelope: %v", err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader. Whatever
// decodes must re-encode to something that decodes to the same frame, and
// nothing decoded may be larger than the bytes that carried it.
func FuzzDecodeFrame(f *testing.F) {
	for _, n := range []int{0, 3, 12} {
		for _, fr := range sampleFrames(n) {
			wire, _ := appendFrame(nil, &fr)
			f.Add(wire)
			f.Add(wire[:len(wire)/2])
			f.Add(append(wire, wire...))
		}
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	// A sparse frame claiming 2^40 entries and a dense one claiming 2^40
	// principals, in seven bytes each.
	f.Add([]byte{16, 0, 0, 0, wireVersion, kindReport, flagDelta | flagSparse, 0, 0, 0, 0, 1, 4, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20})
	f.Add([]byte{14, 0, 0, 0, wireVersion, kindReport, 0, 0, 0, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{br: bufio.NewReader(bytes.NewReader(data))}
		var again frame
		for {
			n, err := d.read()
			if err != nil {
				return
			}
			got := &d.f
			a := &got.agg
			if got.kind != kindRejoin {
				if floats := len(a.Sum) + len(a.Max) + len(a.Min) + len(a.SumSq); 8*floats+len(a.Idx) > n {
					t.Fatalf("%d floats and %d indices decoded from %d bytes", floats, len(a.Idx), n)
				}
			}
			if cap(d.buf) > maxFrameBytes {
				t.Fatalf("body buffer grew to %d bytes", cap(d.buf))
			}
			wire, _ := appendFrame(nil, got)
			if err := decodeBytes(wire, &again); err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if err := sameFrame(got, &again); err != nil {
				t.Fatal(err)
			}
			d.message() // delivery must cope with whatever parsed
		}
	})
}

// TestFrameCodecAllocs pins the steady state: encoding into a warmed-up
// buffer and decoding into a warmed-up frame allocate nothing.
func TestFrameCodecAllocs(t *testing.T) {
	for i, fr := range sampleFrames(12) {
		fr := fr
		wire, _ := appendFrame(nil, &fr)
		if got := testing.AllocsPerRun(100, func() { wire, _ = appendFrame(wire[:0], &fr) }); got != 0 {
			t.Errorf("frame %d: encode allocates %v times", i, got)
		}
		rd := bytes.NewReader(wire)
		d := decoder{br: bufio.NewReader(rd)}
		decode := func() {
			rd.Reset(wire)
			d.br.Reset(rd)
			if _, err := d.read(); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(100, decode); got != 0 {
			t.Errorf("frame %d: decode allocates %v times", i, got)
		}
	}
}

// BenchmarkFrameCodec is one encode plus one decode of a report frame, the
// per-message codec cost of the tree. bytes/frame is the wire size.
func BenchmarkFrameCodec(b *testing.B) {
	for _, n := range []int{12, 48} {
		a := testAgg(n)
		var dense combining.DeltaFrame
		setDense(&dense, a)
		for _, c := range []struct {
			name string
			fr   frame
		}{
			{"dense", frame{kind: kindReport, from: 3, epoch: 4711, ack: 12, agg: dense}},
			// One principal in six moved: the churn workloads' steady state.
			{"delta", frame{kind: kindReport, from: 3, epoch: 4711, ack: 12, delta: true, agg: sparseOf(a, 6)}},
		} {
			fr := c.fr
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				wire, _ := appendFrame(nil, &fr)
				rd := bytes.NewReader(wire)
				d := decoder{br: bufio.NewReader(rd)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wire, _ = appendFrame(wire[:0], &fr)
					rd.Reset(wire)
					d.br.Reset(rd)
					if _, err := d.read(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(wire)), "bytes/frame")
			})
		}
	}
}
