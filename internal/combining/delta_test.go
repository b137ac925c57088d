package combining

import (
	"fmt"
	"math"
	"testing"
)

// deltaRng is a tiny deterministic generator (splitmix64) so the property
// test replays identically on every run.
type deltaRng struct{ s uint64 }

func (r *deltaRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *deltaRng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func aggEqual(a, b Aggregate) bool {
	if a.Count != b.Count || len(a.Sum) != len(b.Sum) {
		return false
	}
	for i := range a.Sum {
		if a.Sum[i] != b.Sum[i] || a.Max[i] != b.Max[i] ||
			a.Min[i] != b.Min[i] || a.SumSq[i] != b.SumSq[i] {
			return false
		}
	}
	return true
}

// randomAgg mutates vec into the next "true" aggregate: most principals
// drift by small amounts, some move sharply, and some transition to zero.
func randomAgg(r *deltaRng, vec []float64) Aggregate {
	for i := range vec {
		switch r.next() % 8 {
		case 0:
			vec[i] = 0 // idle: must reach the receiver exactly
		case 1, 2:
			vec[i] += 5 * r.float() // a real move, above any test threshold
		default:
			vec[i] += 0.05 * (r.float() - 0.5) // sub-threshold jitter
		}
		if vec[i] < 0 {
			vec[i] = 0
		}
	}
	return FromLocal(vec)
}

// TestDeltaPropertyReconstruction is the delta-compression correctness
// property: for any interleaving of delta frames with occasional drops, a
// decoder (a) refuses frames after a gap instead of corrupting state, (b)
// reconstructs the exact full vector on the next resync frame, (c) never
// drifts more than the threshold per statistic while synced, and (d)
// always holds exact zeros for principals that went idle.
func TestDeltaPropertyReconstruction(t *testing.T) {
	const (
		n         = 7
		threshold = 0.1
		resync    = 8
		frames    = 600
	)
	r := &deltaRng{s: 42}
	enc := NewDeltaEncoder(n, threshold, resync)
	dec := NewDeltaDecoder(n)
	vec := make([]float64, n)
	synced := false
	sawPostDropResync := false
	// One frame and one output aggregate for the whole stream: the
	// in-place API must leave nothing of frame k behind in frame k+1.
	var f DeltaFrame
	var got Aggregate
	for fn := 0; fn < frames; fn++ {
		truth := randomAgg(r, vec)
		enc.Encode(truth, &f)
		if r.next()%11 == 0 && !f.Full {
			synced = false // drop this delta frame in transit
			continue
		}
		ok := dec.Apply(&f, &got)
		if f.Full {
			if !ok {
				t.Fatalf("frame %d: resync frame rejected", fn)
			}
			if !aggEqual(got, truth) {
				t.Fatalf("frame %d: resync did not reconstruct exactly:\n got %+v\nwant %+v", fn, got, truth)
			}
			if !synced {
				sawPostDropResync = true
			}
			synced = true
			continue
		}
		if !synced {
			if ok {
				t.Fatalf("frame %d: delta accepted across a gap", fn)
			}
			continue
		}
		if !ok {
			t.Fatalf("frame %d: in-sequence delta rejected", fn)
		}
		if got.Count != truth.Count {
			t.Fatalf("frame %d: count = %d, want %d", fn, got.Count, truth.Count)
		}
		for i := 0; i < n; i++ {
			if truth.Sum[i] == 0 && got.Sum[i] != 0 {
				t.Fatalf("frame %d: principal %d went to zero but decoder holds %g", fn, i, got.Sum[i])
			}
			for _, pair := range [][2]float64{
				{got.Sum[i], truth.Sum[i]},
				{got.Max[i], truth.Max[i]},
				{got.Min[i], truth.Min[i]},
				{got.SumSq[i], truth.SumSq[i]},
			} {
				if math.Abs(pair[0]-pair[1]) > threshold+1e-12 {
					t.Fatalf("frame %d: principal %d drifted beyond threshold: got %g want %g",
						fn, i, pair[0], pair[1])
				}
			}
		}
	}
	if !sawPostDropResync {
		t.Fatal("test never exercised a resync after a dropped frame")
	}
	st := enc.Stats()
	if st.EntriesSuppressed == 0 || st.FullFrames < frames/resync {
		t.Fatalf("stats = %+v: expected suppression and periodic resyncs", st)
	}
	if dec.Desyncs() == 0 {
		t.Fatal("decoder never recorded a desync despite drops")
	}
}

// TestDeltaZeroThresholdIsExact: with threshold 0 every changed entry is
// transmitted, so a gap-free stream reconstructs the truth exactly on
// every frame.
func TestDeltaZeroThresholdIsExact(t *testing.T) {
	const n = 5
	r := &deltaRng{s: 7}
	enc := NewDeltaEncoder(n, 0, 16)
	dec := NewDeltaDecoder(n)
	vec := make([]float64, n)
	var f DeltaFrame
	var got Aggregate
	for fn := 0; fn < 200; fn++ {
		truth := randomAgg(r, vec)
		enc.Encode(truth, &f)
		if !dec.Apply(&f, &got) {
			t.Fatalf("frame %d rejected", fn)
		}
		if !aggEqual(got, truth) {
			t.Fatalf("frame %d: got %+v want %+v", fn, got, truth)
		}
	}
}

// TestDeltaEncoderReset: after a transport reconnect the encoder must lead
// with a full frame so a restarted receiver can rebuild state.
func TestDeltaEncoderReset(t *testing.T) {
	enc := NewDeltaEncoder(3, 0.1, 64)
	a := FromLocal([]float64{1, 2, 3})
	var f DeltaFrame
	if enc.Encode(a, &f); !f.Full {
		t.Fatal("first frame not full")
	}
	if enc.Encode(a, &f); f.Full {
		t.Fatal("second frame unexpectedly full")
	}
	enc.Reset()
	if enc.Encode(a, &f); !f.Full {
		t.Fatal("post-reset frame not full")
	}
	// A fresh decoder (receiver restart) syncs from the post-reset frame.
	dec := NewDeltaDecoder(3)
	enc2 := NewDeltaEncoder(3, 0.1, 64)
	enc2.Encode(a, &f) // lost before the receiver started
	enc2.Reset()
	enc2.Encode(a, &f)
	var got Aggregate
	if !dec.Apply(&f, &got) {
		t.Fatal("decoder rejected post-reset full frame")
	}
}

// TestDeltaFrameBoundsChecked: malformed frames (bad index, short values)
// must desync the decoder, not panic or corrupt it.
func TestDeltaFrameBoundsChecked(t *testing.T) {
	dec := NewDeltaDecoder(3)
	full := DeltaFrame{Seq: 1, Full: true, N: 3, Count: 1,
		Sum: []float64{1, 2, 3}, Max: []float64{1, 2, 3}, Min: []float64{1, 2, 3}, SumSq: []float64{1, 4, 9}}
	var out Aggregate
	if !dec.Apply(&full, &out) {
		t.Fatal("full frame rejected")
	}
	bad := DeltaFrame{Seq: 2, N: 3, Count: 1, Idx: []int{5}, Sum: []float64{9}, Max: []float64{9}, Min: []float64{9}, SumSq: []float64{81}}
	if dec.Apply(&bad, &out) {
		t.Fatal("out-of-range index accepted")
	}
	if out.Sum[0] != 1 {
		t.Fatalf("rejected frame touched the output: %+v", out)
	}
	// Desynced now: even a well-formed successor delta is refused.
	good := DeltaFrame{Seq: 3, N: 3, Count: 1, Idx: []int{0}, Sum: []float64{9}, Max: []float64{9}, Min: []float64{9}, SumSq: []float64{81}}
	if dec.Apply(&good, &out) {
		t.Fatal("delta accepted after desync")
	}
	if dec.Desyncs() != 2 {
		t.Fatalf("desyncs = %d, want 2", dec.Desyncs())
	}
}

// deltaStream is a deterministic stream of aggregates in which about a
// sixth of the principals move per frame and the rest jitter under a 0.1
// threshold (in every statistic, the square included).
func deltaStream(n, frames int) []Aggregate {
	r := &deltaRng{s: 99}
	base, vec := make([]float64, n), make([]float64, n)
	out := make([]Aggregate, frames)
	for f := range out {
		for i := range vec {
			if r.next()%6 == 0 {
				base[i] = 10 * r.float()
			}
			vec[i] = base[i] + 0.001*r.float()
		}
		out[f] = FromLocal(vec)
	}
	return out
}

// TestDeltaCodecAllocs pins the in-place API: once the frame and the output
// aggregate have seen one full frame, neither direction allocates — through
// sparse frames and periodic resyncs alike.
func TestDeltaCodecAllocs(t *testing.T) {
	const n = 48
	stream := deltaStream(n, 64)
	enc := NewDeltaEncoder(n, 0.1, 8)
	dec := NewDeltaDecoder(n)
	var f DeltaFrame
	var out Aggregate
	i := 0
	step := func() {
		enc.Encode(stream[i%len(stream)], &f)
		if !dec.Apply(&f, &out) {
			t.Fatal("in-sequence frame rejected")
		}
		i++
	}
	step()
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("Encode+Apply allocate %v times per frame", got)
	}
}

// BenchmarkDeltaCodec is one Encode plus one Apply per frame of a stream
// where a sixth of the principals move, resync every 64 frames.
func BenchmarkDeltaCodec(b *testing.B) {
	for _, n := range []int{12, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			stream := deltaStream(n, 256)
			enc := NewDeltaEncoder(n, 0.1, 64)
			dec := NewDeltaDecoder(n)
			var f DeltaFrame
			var out Aggregate
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Encode(stream[i%len(stream)], &f)
				if !dec.Apply(&f, &out) {
					b.Fatal("in-sequence frame rejected")
				}
			}
			st := enc.Stats()
			b.ReportMetric(float64(st.EntriesSent)/float64(st.Frames), "entries/frame")
		})
	}
}
