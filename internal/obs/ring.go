package obs

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity buffer of the most recent window trace records.
// Slot reservation is a single atomic ticket fetch, so concurrent writers
// (distinct redirectors sharing one ring, or a writer racing a wrap-around)
// never queue behind each other; each slot then carries its own mutex, held
// only for the bounded memcpy of one pre-allocated record. The write path
// allocates nothing. Readers (Snapshot) lock one slot at a time, so a
// scrape can never stall a window loop for more than one record copy.
type Ring struct {
	depth  uint64
	ticket atomic.Uint64 // next reservation; also the count of appends
	slots  []ringSlot
}

type ringSlot struct {
	mu     sync.Mutex
	ticket uint64 // 1 + the reservation that wrote rec; 0 = never written
	rec    Record
}

// NewRing builds a ring retaining the last depth records of principals-wide
// vectors. depth ≤ 0 selects DefaultRingDepth. Every slot's vectors are cut
// from one backing array, each capped at its own length.
func NewRing(depth, principals int) *Ring {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	r := &Ring{depth: uint64(depth), slots: make([]ringSlot, depth)}
	flat := make([]float64, depth*recordVectors*principals)
	for i := range r.slots {
		flat = r.slots[i].rec.carve(flat, principals)
	}
	return r
}

// Depth reports the ring capacity.
func (r *Ring) Depth() int { return int(r.depth) }

// Len reports how many records have ever been appended (the ring holds the
// last min(Len, Depth) of them).
func (r *Ring) Len() uint64 { return r.ticket.Load() }

// Append copies rec into the next slot. The caller keeps ownership of rec.
// Zero allocations.
func (r *Ring) Append(rec *Record) {
	t := r.ticket.Add(1) - 1
	s := &r.slots[t%r.depth]
	s.mu.Lock()
	if s.ticket <= t { // a lagging writer must not clobber a newer record
		s.ticket = t + 1
		rec.copyInto(&s.rec)
	}
	s.mu.Unlock()
}

// Snapshot returns up to max of the most recent records, oldest first. Slots
// currently being rewritten by a wrapping writer are simply skipped, so the
// result can occasionally be shorter than max even on a full ring.
func (r *Ring) Snapshot(max int) []Record {
	if max <= 0 || max > int(r.depth) {
		max = int(r.depth)
	}
	end := r.ticket.Load()
	start := uint64(0)
	if end > uint64(max) {
		start = end - uint64(max)
	}
	out := make([]Record, 0, end-start)
	for t := start; t < end; t++ {
		s := &r.slots[t%r.depth]
		s.mu.Lock()
		if s.ticket == t+1 {
			dst := NewRecord(len(s.rec.Local))
			s.rec.copyInto(dst)
			out = append(out, *dst)
		}
		s.mu.Unlock()
	}
	return out
}
