package combining

// Delta compression for upstream queue vectors (the hierarchical plane's
// bandwidth lever): instead of shipping the full per-principal aggregate
// every epoch, a sender transmits only the principals whose statistics
// moved by more than a configurable threshold since their last transmitted
// value. Two rules bound the loss:
//
//   - transitions to exactly zero are always transmitted, so an idle
//     principal is never stuck at a stale nonzero queue estimate, and
//   - every ResyncEvery-th frame is a full-state resync, so suppressed
//     drift (at most the threshold per statistic) is flushed periodically.
//
// Frames are sequence-numbered per sender stream. A receiver that misses a
// frame (the tree transport is best-effort) detects the gap, discards
// deltas, and waits for the next full frame — it never applies a delta to
// a base it does not hold.

// DeltaFrame is one delta-compressed aggregate, as the transport's wire
// codec carries it. A full frame (Full true) carries dense statistic
// vectors of length N; a delta frame carries sparse entries at the
// positions listed in Idx. Encode and the wire decoder refill a frame in
// place, so one frame per stream is reused for every message.
type DeltaFrame struct {
	// Seq numbers frames consecutively per sender stream.
	Seq uint64
	// Full marks a resync frame carrying the complete vector.
	Full bool
	// N is the principal-vector length.
	N int
	// Count is the aggregate's contributing-node count (always carried;
	// it is one scalar).
	Count int
	// Idx lists the principal indices of the sparse entries (delta frames
	// only).
	Idx []int
	// Sum, Max, Min, SumSq are the statistic values: dense when Full,
	// parallel to Idx otherwise.
	Sum, Max, Min, SumSq []float64
}

// DeltaStats counts a delta codec's work. Encoder-side counters accumulate
// per stream and are summed by the transport; Desyncs is receiver-side.
type DeltaStats struct {
	// Frames is the number of frames encoded.
	Frames uint64
	// FullFrames is how many of them were full-state resyncs.
	FullFrames uint64
	// EntriesSent counts transmitted per-principal entries.
	EntriesSent uint64
	// EntriesSuppressed counts entries withheld as under-threshold.
	EntriesSuppressed uint64
	// BytesSaved is the wire bytes suppression avoided: dense payload size
	// minus the sparse payload actually encoded. The codec does not know
	// wire sizes; the transport that frames the stream fills this in.
	BytesSaved uint64
	// Desyncs counts receiver-side sequence gaps (frames discarded until
	// the next full frame).
	Desyncs uint64
}

// Add accumulates other into s.
func (s *DeltaStats) Add(other DeltaStats) {
	s.Frames += other.Frames
	s.FullFrames += other.FullFrames
	s.EntriesSent += other.EntriesSent
	s.EntriesSuppressed += other.EntriesSuppressed
	s.BytesSaved += other.BytesSaved
	s.Desyncs += other.Desyncs
}

// DeltaEncoder compresses one sender→receiver aggregate stream. Not
// concurrency-safe; the transport serializes access per peer.
type DeltaEncoder struct {
	n           int
	threshold   float64
	resyncEvery int
	seq         uint64
	sinceFull   int
	primed      bool // the receiver lineage holds a full frame
	last        Aggregate
	stats       DeltaStats
}

// NewDeltaEncoder returns an encoder for n-principal vectors. Entries move
// only when a statistic changed by more than threshold (or went to zero);
// every resyncEvery-th frame is a full resync (values < 1 mean every
// frame, i.e. compression off).
func NewDeltaEncoder(n int, threshold float64, resyncEvery int) *DeltaEncoder {
	if resyncEvery < 1 {
		resyncEvery = 1
	}
	if threshold < 0 {
		threshold = 0
	}
	return &DeltaEncoder{n: n, threshold: threshold, resyncEvery: resyncEvery, last: NewAggregate(n)}
}

// Reset forces the next frame to be a full resync (called after the
// transport reconnects: the receiver may have restarted or missed frames).
func (e *DeltaEncoder) Reset() { e.primed = false }

// N returns the principal-vector length this encoder was built for.
func (e *DeltaEncoder) N() int { return e.n }

// Stats returns the encoder's counters.
func (e *DeltaEncoder) Stats() DeltaStats { return e.stats }

// Encode compresses a into the next frame of the stream, refilling f in
// place (its slices are reused, so a warmed-up frame costs no allocation).
func (e *DeltaEncoder) Encode(a Aggregate, f *DeltaFrame) {
	e.seq++
	e.stats.Frames++
	f.Seq, f.N, f.Count = e.seq, e.n, a.Count
	f.Full = !e.primed || e.sinceFull >= e.resyncEvery-1
	f.Idx = f.Idx[:0]
	if f.Full {
		f.Sum = append(f.Sum[:0], a.Sum...)
		f.Max = append(f.Max[:0], a.Max...)
		f.Min = append(f.Min[:0], a.Min...)
		f.SumSq = append(f.SumSq[:0], a.SumSq...)
		e.last.CopyFrom(a)
		e.primed = true
		e.sinceFull = 0
		e.stats.FullFrames++
		e.stats.EntriesSent += uint64(e.n)
		return
	}
	e.sinceFull++
	f.Sum, f.Max, f.Min, f.SumSq = f.Sum[:0], f.Max[:0], f.Min[:0], f.SumSq[:0]
	for i := 0; i < e.n && i < len(a.Sum); i++ {
		if !e.dirty(a, i) {
			e.stats.EntriesSuppressed++
			continue
		}
		f.Idx = append(f.Idx, i)
		f.Sum = append(f.Sum, a.Sum[i])
		f.Max = append(f.Max, a.Max[i])
		f.Min = append(f.Min, a.Min[i])
		f.SumSq = append(f.SumSq, a.SumSq[i])
		e.last.Sum[i] = a.Sum[i]
		e.last.Max[i] = a.Max[i]
		e.last.Min[i] = a.Min[i]
		e.last.SumSq[i] = a.SumSq[i]
		e.stats.EntriesSent++
	}
	e.last.Count = a.Count
}

// dirty reports whether principal i's entry must be transmitted: a
// statistic moved beyond the threshold, or any statistic transitioned to
// exactly zero (zeros are always exact on the wire).
func (e *DeltaEncoder) dirty(a Aggregate, i int) bool {
	return e.moved(a.Sum[i], e.last.Sum[i]) || e.moved(a.Max[i], e.last.Max[i]) ||
		e.moved(a.Min[i], e.last.Min[i]) || e.moved(a.SumSq[i], e.last.SumSq[i])
}

func (e *DeltaEncoder) moved(cur, prev float64) bool {
	if cur == 0 && prev != 0 {
		return true
	}
	d := cur - prev
	if d < 0 {
		d = -d
	}
	return d > e.threshold
}

// DeltaDecoder reconstructs a sender's aggregate stream. Not
// concurrency-safe; the transport serializes access per peer.
type DeltaDecoder struct {
	n       int
	agg     Aggregate
	seq     uint64
	synced  bool
	desyncs uint64
}

// NewDeltaDecoder returns a decoder for n-principal vectors.
func NewDeltaDecoder(n int) *DeltaDecoder {
	return &DeltaDecoder{n: n, agg: NewAggregate(n)}
}

// Desyncs returns how many frames the decoder discarded on sequence gaps.
func (d *DeltaDecoder) Desyncs() uint64 { return d.desyncs }

// N returns the principal-vector length this decoder was built for.
func (d *DeltaDecoder) N() int { return d.n }

// Apply folds one frame into the reconstructed state and copies the
// resulting aggregate into out (reusing out's slices). It returns false —
// out is untouched and the caller must drop the message — when the frame
// is a delta that does not extend the decoder's sequence (lost frame,
// sender restart, or length mismatch) or is malformed; the decoder then
// stays desynchronized until the next full frame.
func (d *DeltaDecoder) Apply(f *DeltaFrame, out *Aggregate) bool {
	if !d.fold(f) {
		d.synced = false
		d.desyncs++
		return false
	}
	d.agg.Count = f.Count
	d.seq = f.Seq
	d.synced = true
	out.CopyFrom(d.agg)
	return true
}

// fold writes f's entries into d.agg, reporting whether f was applicable.
func (d *DeltaDecoder) fold(f *DeltaFrame) bool {
	if f.N != d.n {
		return false
	}
	if f.Full {
		if len(f.Sum) != d.n || len(f.Max) != d.n || len(f.Min) != d.n || len(f.SumSq) != d.n {
			return false
		}
		copy(d.agg.Sum, f.Sum)
		copy(d.agg.Max, f.Max)
		copy(d.agg.Min, f.Min)
		copy(d.agg.SumSq, f.SumSq)
		return true
	}
	if !d.synced || f.Seq != d.seq+1 {
		return false
	}
	k := len(f.Idx)
	if len(f.Sum) != k || len(f.Max) != k || len(f.Min) != k || len(f.SumSq) != k {
		return false
	}
	for _, i := range f.Idx {
		if i < 0 || i >= d.n {
			return false
		}
	}
	for k, i := range f.Idx {
		d.agg.Sum[i] = f.Sum[k]
		d.agg.Max[i] = f.Max[k]
		d.agg.Min[i] = f.Min[k]
		d.agg.SumSq[i] = f.SumSq[k]
	}
	return true
}
