package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// rawFrame frames an arbitrary payload with a valid length and CRC — the
// CRC-valid-but-garbage case a bit-flip-free but buggy writer would leave.
func rawFrame(payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzDecodeFrame replays arbitrary bytes the way Store.replay does — once
// as a raw log and once as the payload of a correctly framed record, so the
// mutator reaches past the CRC — and requires of every frame decodeFrame
// accepts: it consumed no more than it
// was given, it decoded no more numbers than bytes, and decode→encode is a
// fixpoint (the re-encoded frame decodes, and encodes to the same bytes
// again).
func FuzzDecodeFrame(f *testing.F) {
	full, err := encodeFrame(WindowState{
		WindowSeq: 41, Epoch: 40, SetVersion: 3, Gate: 44,
		Credit:      [][]float64{{0.5, 0}, {0, 0.25}},
		CreditTotal: []float64{1, 2},
		Estimate:    []float64{30.5, 12},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)/2])                         // torn tail
	f.Add(full[:frameHeader-1])                       // torn header
	f.Add(append(append([]byte{}, full...), full...)) // two records
	flipped := append([]byte{}, full...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped) // CRC mismatch
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	f.Add(make([]byte, frameHeader)) // zero length
	for _, garbage := range []string{
		`null`, `{}`, `[]`, `{"window_seq":-7,"epoch":-1}`,
		`{"credit":[null,[1],[]],"estimate":[]}`,
		`{"estimate":[1e308,-0,1e-320]}`, `{"window_seq":1e99}`,
		`{"credit":[[1,2,3]],"credit_total":[1]}{"trailing":1}`,
	} {
		f.Add(rawFrame([]byte(garbage)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLog(t, data)
		checkLog(t, rawFrame(data))
	})
}

// checkLog walks data frame by frame as replay does, asserting the
// FuzzDecodeFrame properties on every accepted frame.
func checkLog(t *testing.T, data []byte) {
	for len(data) > 0 {
		rec, n, ok := decodeFrame(data)
		if !ok {
			return
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		floats := len(rec.CreditTotal) + len(rec.Estimate)
		for _, row := range rec.Credit {
			floats += len(row)
		}
		if floats+len(rec.Credit) > n {
			t.Fatalf("%d rows and %d floats decoded from %d bytes", len(rec.Credit), floats, n)
		}
		once, err := encodeFrame(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, m, ok := decodeFrame(once)
		if !ok || m != len(once) {
			t.Fatalf("re-encoded frame does not decode (ok=%v, %d of %d bytes)", ok, m, len(once))
		}
		twice, err := encodeFrame(again)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("decode→encode is not a fixpoint (%v):\n%q\n%q", err, once, twice)
		}
		data = data[n:]
	}
}
