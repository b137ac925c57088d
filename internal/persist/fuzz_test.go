package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// accepts: it consumed no more than it was given, it decoded no more numbers
// than bytes, and decode→encode is a fixpoint (the re-encoded frame decodes,
// and encodes to the same bytes again). A sound frame under any record
// version but the current one must be refused as such, never parsed.
func FuzzDecodeFrame(f *testing.F) {
	full := appendFrame(nil, &WindowState{
		WindowSeq: 41, Epoch: 40, SetVersion: 3, Gate: 44,
		Credit:      [][]float64{{0.5, 0}, {0, 0.25}},
		CreditTotal: []float64{1, 2},
		Estimate:    []float64{30.5, 12},
	})
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
	record := full[frameHeader:]
	f.Add(record)                                           // checkLog frames it itself
	f.Add(record[:len(record)-1])                           // sound frame, short record
	f.Add(append(append([]byte{}, record...), 0))           // sound frame, trailing byte
	f.Add(append([]byte{recordVersion + 1}, record[1:]...)) // a later version
	f.Add([]byte(`{"window_seq":41,"epoch":40}`))           // the JSON record this one replaced
	rows := append([]byte{}, record[:recordFixedSize-12]...)
	f.Add(binary.LittleEndian.AppendUint32(rows, math.MaxUint32)) // row count far beyond the bytes
	empty := appendFrame(nil, &WindowState{Credit: [][]float64{nil, {}, {math.Inf(1), math.Copysign(0, -1)}}})
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLog(t, data)
		checkLog(t, rawFrame(data))
	})
}

// checkLog walks data frame by frame as replay does, asserting the
// FuzzDecodeFrame properties on every accepted frame.
func checkLog(t *testing.T, data []byte) {
	for len(data) > 0 {
		rec, n, err := decodeFrame(data)
		if errors.Is(err, errRecordVersion) {
			if v := data[frameHeader]; v == recordVersion {
				t.Fatalf("record version %d refused as unsupported", v)
			}
			return
		}
		if err != nil {
			return
		}
		if data[frameHeader] != recordVersion {
			t.Fatalf("record version %d was parsed", data[frameHeader])
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		floats := len(rec.CreditTotal) + len(rec.Estimate)
		for _, row := range rec.Credit {
			floats += len(row)
		}
		if 8*floats+4*len(rec.Credit) > n {
			t.Fatalf("%d rows and %d floats decoded from %d bytes", len(rec.Credit), floats, n)
		}
		once := appendFrame(nil, &rec)
		if !bytes.Equal(once, data[:n]) {
			t.Fatalf("an accepted frame does not re-encode to itself:\n%x\n%x", data[:n], once)
		}
		again, m, err := decodeFrame(once)
		if err != nil || m != len(once) {
			t.Fatalf("re-encoded frame does not decode (%v, %d of %d bytes)", err, m, len(once))
		}
		if twice := appendFrame(nil, &again); !bytes.Equal(once, twice) {
			t.Fatalf("decode→encode is not a fixpoint:\n%x\n%x", once, twice)
		}
		data = data[n:]
	}
}
