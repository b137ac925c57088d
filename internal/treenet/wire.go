package treenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/combining"
)

// The tree protocol is one length-prefixed binary frame per message:
//
//	u32 LE  body length (everything after these four bytes)
//	u8      wire version
//	u8      kind: report, broadcast, rejoin
//	u8      flags: cfg | delta | sparse
//	uvarint from, tree (always 0), epoch, ack version
//	[cfg]   uvarint cfg version, gate epoch, payload length; raw payload
//	report and broadcast only:
//	uvarint contributing-node count, vector length n
//	[delta] uvarint stream sequence number
//	dense:  4×n float64 LE — sum[n] max[n] min[n] sumsq[n]
//	sparse: uvarint k, then k × (uvarint index, sum max min sumsq float64 LE)
//
// Floats travel as raw IEEE-754 bits, so ±Inf, NaN payloads and −0 survive
// the wire exactly (the identity aggregate is ±Inf). The tree field is a
// fixed 0: a node runs one combining tree, and the field is kept so the
// layout and the wire version stay unchanged. A frame longer than
// maxFrameBytes, with another version byte, a nonzero tree, or that does
// not parse to its last byte is a protocol error and closes the connection.
const (
	wireVersion = 1
	// maxFrameBytes bounds a frame body, and with it everything a decode
	// may allocate. The configuration payload dominates: an agreement-set
	// snapshot for a few hundred principals is a few MiB.
	maxFrameBytes = 1 << 24
	// minFrameBytes is version, kind, flags and four one-byte varints.
	minFrameBytes = 7

	kindReport    byte = 1
	kindBroadcast byte = 2
	kindRejoin    byte = 3

	flagCfg    byte = 1 << 0 // configuration piggyback present
	flagDelta  byte = 1 << 1 // part of a delta stream: sequence number present
	flagSparse byte = 1 << 2 // sparse entries instead of dense vectors
	flagsKnown      = flagCfg | flagDelta | flagSparse

	denseEntryBytes  = 4 * 8 // one principal's four statistics
	sparseEntryBytes = 1 + denseEntryBytes
)

var errFrame = errors.New("treenet: malformed frame")

// frame is one decoded (or to-be-encoded) message. Both directions reuse
// one frame per connection: encode reads it, decode refills it in place.
type frame struct {
	kind  byte
	from  combining.NodeID
	epoch int
	ack   uint64

	hasCfg bool
	cfg    combining.ConfigUpdate // after decode, Payload aliases the read buffer

	// delta marks agg as one frame of a delta stream (agg.Seq is
	// meaningful); otherwise agg is a plain dense vector (agg.Full).
	delta bool
	agg   combining.DeltaFrame
}

// setDense loads a as a plain (or resync) dense payload, copying the
// statistics so the frame never aliases a caller's buffers.
func setDense(f *combining.DeltaFrame, a combining.Aggregate) {
	f.Seq, f.Full, f.N, f.Count = 0, true, len(a.Sum), a.Count
	f.Idx = f.Idx[:0]
	f.Sum = append(f.Sum[:0], a.Sum...)
	f.Max = append(f.Max[:0], a.Max...)
	f.Min = append(f.Min[:0], a.Min...)
	f.SumSq = append(f.SumSq[:0], a.SumSq...)
}

// appendFrame appends f's wire form to dst. payload is the size of the
// statistics section alone, what delta suppression shrinks.
func appendFrame(dst []byte, f *frame) (out []byte, payload int) {
	start := len(dst)
	var flags byte
	if f.hasCfg {
		flags |= flagCfg
	}
	hasAgg := f.kind != kindRejoin
	if hasAgg && f.delta {
		flags |= flagDelta
		if !f.agg.Full {
			flags |= flagSparse
		}
	}
	dst = append(dst, 0, 0, 0, 0, wireVersion, f.kind, flags)
	dst = binary.AppendUvarint(dst, uint64(f.from))
	dst = append(dst, 0) // tree
	dst = binary.AppendUvarint(dst, uint64(f.epoch))
	dst = binary.AppendUvarint(dst, f.ack)
	if f.hasCfg {
		dst = binary.AppendUvarint(dst, f.cfg.Version)
		dst = binary.AppendUvarint(dst, uint64(f.cfg.GateEpoch))
		dst = binary.AppendUvarint(dst, uint64(len(f.cfg.Payload)))
		dst = append(dst, f.cfg.Payload...)
	}
	if hasAgg {
		a := &f.agg
		dst = binary.AppendUvarint(dst, uint64(a.Count))
		dst = binary.AppendUvarint(dst, uint64(a.N))
		if f.delta {
			dst = binary.AppendUvarint(dst, a.Seq)
		}
		at := len(dst)
		if flags&flagSparse != 0 {
			dst = binary.AppendUvarint(dst, uint64(len(a.Idx)))
			for k, i := range a.Idx {
				dst = binary.AppendUvarint(dst, uint64(i))
				dst = appendFloat(dst, a.Sum[k])
				dst = appendFloat(dst, a.Max[k])
				dst = appendFloat(dst, a.Min[k])
				dst = appendFloat(dst, a.SumSq[k])
			}
		} else {
			for _, vec := range [4][]float64{a.Sum, a.Max, a.Min, a.SumSq} {
				// A hand-built aggregate may carry short vectors; the
				// frame always holds exactly n of each.
				for i := 0; i < a.N; i++ {
					v := 0.0
					if i < len(vec) {
						v = vec[i]
					}
					dst = appendFloat(dst, v)
				}
			}
		}
		payload = len(dst) - at
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, payload
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// encoder is one peer's outbound codec state: the delta stream toward that
// peer (nil until the first delta frame) and the frame and byte buffer
// every message is encoded through.
type encoder struct {
	stream *combining.DeltaEncoder
	f      frame
	buf    []byte
}

// encode frames m as sent by self, delta-compressing its aggregate when
// delta.on. The bytes are valid until the next encode; saved is the payload
// suppression avoided against the dense form.
func (e *encoder) encode(self combining.NodeID, m *outMsg, delta deltaParams) (wire []byte, saved uint64) {
	f := &e.f
	f.kind, f.from, f.epoch, f.ack = m.kind, self, m.epoch, m.ack
	if f.hasCfg = m.cfg != nil; f.hasCfg {
		f.cfg = *m.cfg
	}
	f.delta = delta.on && m.kind != kindRejoin
	if f.delta {
		if n := len(m.agg.Sum); e.stream == nil || n != e.stream.N() {
			e.stream = combining.NewDeltaEncoder(n, delta.threshold, delta.resyncEvery)
		}
		e.stream.Encode(m.agg, &f.agg)
	} else {
		setDense(&f.agg, m.agg)
	}
	var payload int
	e.buf, payload = appendFrame(e.buf[:0], f)
	if dense := f.agg.N * denseEntryBytes; f.delta && !f.agg.Full && payload < dense {
		saved = uint64(dense - payload)
	}
	return e.buf, saved
}

// reset makes the stream's next frame a full resync.
func (e *encoder) reset() {
	if e.stream != nil {
		e.stream.Reset()
	}
}

func (e *encoder) addStats(into *combining.DeltaStats) {
	if e.stream != nil {
		into.Add(e.stream.Stats())
	}
}

// decoder is one inbound connection's codec state: the body buffer and
// frame every message is decoded through, the delta stream the far end
// runs over this connection (it opens it with a full frame), its
// reconstruction target, and the last configuration update delivered.
type decoder struct {
	br     *bufio.Reader
	buf    []byte
	f      frame
	agg    combining.Aggregate
	stream *combining.DeltaDecoder
	cfg    *combining.ConfigUpdate
}

// read reads the next frame into d.f and returns the wire bytes consumed.
func (d *decoder) read() (int, error) {
	hdr, err := d.br.Peek(4)
	if err != nil {
		return 0, err
	}
	size := int(binary.LittleEndian.Uint32(hdr))
	if size < minFrameBytes || size > maxFrameBytes {
		return 0, fmt.Errorf("%w: body of %d bytes", errFrame, size)
	}
	d.br.Discard(4) //nolint:errcheck // the four bytes were just peeked
	if cap(d.buf) < size {
		d.buf = make([]byte, size)
	}
	body := d.buf[:size]
	if _, err := io.ReadFull(d.br, body); err != nil {
		return 0, err
	}
	return 4 + size, decodeFrame(body, &d.f)
}

// message turns the frame just read into the combining message it carries.
// Its aggregate aliases the decoder's buffers, good until the next read. ok
// is false when the frame's delta stream is desynchronized: a stream starts
// (or re-sizes) only on a full frame, whose length the body vouched for.
func (d *decoder) message() (msg interface{}, ok bool) {
	f := &d.f
	if f.kind == kindRejoin {
		return combining.Rejoin{Epoch: f.epoch, AckVersion: f.ack}, true
	}
	agg := combining.Aggregate{Sum: f.agg.Sum, Max: f.agg.Max, Min: f.agg.Min, SumSq: f.agg.SumSq, Count: f.agg.Count}
	if f.delta {
		if f.agg.Full && (d.stream == nil || f.agg.N != d.stream.N()) {
			d.stream = combining.NewDeltaDecoder(f.agg.N)
		}
		if d.stream == nil || !d.stream.Apply(&f.agg, &d.agg) {
			return nil, false
		}
		agg = d.agg
	}
	if f.kind == kindReport {
		return combining.Report{Epoch: f.epoch, Agg: agg, AckVersion: f.ack}, true
	}
	// Broadcasts repeat the configuration until this node acknowledges it;
	// combining shares one immutable update, re-made only when (version,
	// gate) moves on.
	var cfg *combining.ConfigUpdate
	if f.hasCfg && f.cfg.Version > 0 {
		if d.cfg == nil || d.cfg.Version != f.cfg.Version || d.cfg.GateEpoch != f.cfg.GateEpoch {
			d.cfg = &combining.ConfigUpdate{Version: f.cfg.Version, GateEpoch: f.cfg.GateEpoch,
				Payload: append([]byte(nil), f.cfg.Payload...)}
		}
		cfg = d.cfg
	}
	return combining.Broadcast{Epoch: f.epoch, Agg: agg, Config: cfg}, true
}

// cursor walks a frame body; any short read latches bad and yields zeros.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) u8() byte {
	if len(c.b) < 1 {
		c.bad = true
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.bad, c.b = true, nil
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) bytes(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.bad, c.b = true, nil
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// f64 reads one float; the caller has checked its eight bytes are there.
func (c *cursor) f64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v
}

// floats refills dst with the next n floats, already checked to be there
// (indexed rather than n× f64: the dense path is the codec's inner loop).
func (c *cursor) floats(dst []float64, n int) []float64 {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(c.b[8*i:])))
	}
	c.b = c.b[8*n:]
	return dst
}

// decodeFrame parses a frame body into f, reusing f's slices. Every count
// is checked against the bytes actually present before anything is sized
// by it, so a decode allocates at most a small multiple of len(body).
func decodeFrame(body []byte, f *frame) error {
	c := cursor{b: body}
	if v := c.u8(); v != wireVersion {
		return fmt.Errorf("%w: wire version %d, want %d", errFrame, v, wireVersion)
	}
	f.kind = c.u8()
	flags := c.u8()
	if f.kind < kindReport || f.kind > kindRejoin || flags&^flagsKnown != 0 {
		return fmt.Errorf("%w: kind %d flags %#x", errFrame, f.kind, flags)
	}
	hasAgg := f.kind != kindRejoin
	f.hasCfg = flags&flagCfg != 0
	f.delta = flags&flagDelta != 0
	sparse := flags&flagSparse != 0
	if (sparse && !f.delta) || (f.delta && !hasAgg) {
		return fmt.Errorf("%w: kind %d flags %#x", errFrame, f.kind, flags)
	}
	f.from = combining.NodeID(c.uvarint())
	if tree := c.uvarint(); tree != 0 {
		return fmt.Errorf("%w: tree %d", errFrame, tree)
	}
	f.epoch = int(c.uvarint())
	f.ack = c.uvarint()
	f.cfg = combining.ConfigUpdate{}
	if f.hasCfg {
		f.cfg.Version = c.uvarint()
		f.cfg.GateEpoch = int(c.uvarint())
		f.cfg.Payload = c.bytes(c.uvarint())
	}
	if hasAgg {
		a := &f.agg
		a.Count = int(c.uvarint())
		n := c.uvarint()
		a.Seq = 0
		if f.delta {
			a.Seq = c.uvarint()
		}
		a.Full = !sparse
		a.Idx = a.Idx[:0]
		if sparse {
			k := c.uvarint()
			if c.bad || n > math.MaxInt32 || k > uint64(len(c.b))/sparseEntryBytes {
				return errFrame
			}
			a.N = int(n)
			a.Sum, a.Max, a.Min, a.SumSq = a.Sum[:0], a.Max[:0], a.Min[:0], a.SumSq[:0]
			for ; k > 0; k-- {
				a.Idx = append(a.Idx, int(c.uvarint()))
				if len(c.b) < denseEntryBytes {
					return errFrame
				}
				a.Sum = append(a.Sum, c.f64())
				a.Max = append(a.Max, c.f64())
				a.Min = append(a.Min, c.f64())
				a.SumSq = append(a.SumSq, c.f64())
			}
		} else {
			if c.bad || n != uint64(len(c.b))/denseEntryBytes {
				return errFrame
			}
			a.N = int(n)
			a.Sum = c.floats(a.Sum, a.N)
			a.Max = c.floats(a.Max, a.N)
			a.Min = c.floats(a.Min, a.N)
			a.SumSq = c.floats(a.SumSq, a.N)
		}
	}
	if c.bad || len(c.b) != 0 {
		return errFrame
	}
	return nil
}
