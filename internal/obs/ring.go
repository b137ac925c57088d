package obs

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity buffer of the most recent values of one trace
// type: window records (NewRing) and request spans (a Tracer's ring). Slot
// reservation is a single atomic ticket fetch, so concurrent writers
// (distinct redirectors sharing one ring, or a writer racing a wrap-around)
// never queue behind each other; each slot then carries its own mutex, held
// only for the bounded copy of one pre-allocated value. The write path
// allocates nothing. Readers (Snapshot) lock one slot at a time, so a
// scrape can never stall a writer for more than one copy.
type Ring[T any] struct {
	depth  uint64
	ticket atomic.Uint64 // next reservation; also the count of appends
	slots  []ringSlot[T]
	// put copies an appended value into its slot without allocating,
	// stamping the value's 1-based commit ticket where the type carries
	// one; get copies a slot out for a snapshot.
	put func(dst, src *T, ticket uint64)
	get func(src *T) T
}

type ringSlot[T any] struct {
	mu     sync.Mutex
	ticket uint64 // 1 + the reservation that wrote v; 0 = never written
	v      T
}

func newRing[T any](depth int, put func(dst, src *T, ticket uint64), get func(src *T) T) *Ring[T] {
	return &Ring[T]{depth: uint64(depth), slots: make([]ringSlot[T], depth), put: put, get: get}
}

// NewRing builds a ring retaining the last depth window records of
// principals-wide vectors. depth ≤ 0 selects DefaultRingDepth. Every slot's
// vectors are cut from one backing array, each capped at its own length.
func NewRing(depth, principals int) *Ring[Record] {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	r := newRing(depth, putRecord, getRecord)
	flat := make([]float64, depth*recordVectors*principals)
	for i := range r.slots {
		flat = r.slots[i].v.carve(flat, principals)
	}
	return r
}

// Depth reports the ring capacity.
func (r *Ring[T]) Depth() int { return int(r.depth) }

// Len reports how many values have ever been appended (the ring holds the
// last min(Len, Depth) of them).
func (r *Ring[T]) Len() uint64 { return r.ticket.Load() }

// Append copies v into the next slot and returns its 1-based commit ticket
// (a span's ID and exemplar reference). The caller keeps ownership of v.
// Zero allocations.
func (r *Ring[T]) Append(v *T) uint64 {
	t := r.ticket.Add(1) - 1
	s := &r.slots[t%r.depth]
	s.mu.Lock()
	if s.ticket <= t { // a lagging writer must not clobber a newer value
		s.ticket = t + 1
		r.put(&s.v, v, t+1)
	}
	s.mu.Unlock()
	return t + 1
}

// Snapshot returns up to max of the most recent values, oldest first. Slots
// currently being rewritten by a wrapping writer are simply skipped, so the
// result can occasionally be shorter than max even on a full ring.
func (r *Ring[T]) Snapshot(max int) []T {
	if max <= 0 || max > int(r.depth) {
		max = int(r.depth)
	}
	end := r.ticket.Load()
	start := uint64(0)
	if end > uint64(max) {
		start = end - uint64(max)
	}
	out := make([]T, 0, end-start)
	for t := start; t < end; t++ {
		s := &r.slots[t%r.depth]
		s.mu.Lock()
		if s.ticket == t+1 {
			out = append(out, r.get(&s.v))
		}
		s.mu.Unlock()
	}
	return out
}
