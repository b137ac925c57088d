// Lease ledger: long-lived work (media streams, batch jobs — the paper's
// §6 future work) reserves a slice of a node's budget for multiple
// scheduling windows instead of competing request by request. A lease sets
// aside Rate requests/second of the owner's capacity (so the window LP
// stops handing that capacity to siblings) and deposits the same rate as
// dedicated per-window credit for the holder. Revocation releases the
// set-aside; the control plane re-interprets capacities through the §2.2
// path, reclaiming the capacity fleet-wide within a bounded number of
// windows.

package budget

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// LeaseID identifies one lease within a ledger.
type LeaseID uint64

// LeaseState is a lease's lifecycle position.
type LeaseState string

// Lease lifecycle: Active leases reserve capacity; Revoked and Expired
// leases are retained for inspection but reserve nothing.
const (
	LeaseActive  LeaseState = "active"
	LeaseRevoked LeaseState = "revoked"
	LeaseExpired LeaseState = "expired"
)

// Lease is one multi-window reservation: Holder draws Rate req/s of
// dedicated credit, set aside from Owner's capacity.
type Lease struct {
	ID     LeaseID `json:"id"`
	Owner  string  `json:"owner"`
	Holder string  `json:"holder"`
	Rate   float64 `json:"rate"`
	// Windows is the remaining lifetime in scheduling windows; 0 means
	// until revoked. Renew extends it, Tick counts it down.
	Windows int        `json:"windows,omitempty"`
	State   LeaseState `json:"state"`
}

// Ledger tracks leases. Safe for concurrent use; the control plane owns one
// per deployment and snapshots it for persistence after every mutation.
type Ledger struct {
	mu     sync.Mutex
	next   uint64
	leases map[LeaseID]*Lease
}

// NewLedger returns an empty lease ledger.
func NewLedger() *Ledger {
	return &Ledger{next: 1, leases: make(map[LeaseID]*Lease)}
}

// Grant opens a lease of rate req/s from owner's capacity to holder, for
// the given number of windows (0 = until revoked).
func (l *Ledger) Grant(owner, holder string, rate float64, windows int) (Lease, error) {
	if owner == "" || holder == "" {
		return Lease{}, fmt.Errorf("%w: empty owner or holder", ErrLease)
	}
	if !validRate(rate) {
		return Lease{}, fmt.Errorf("%w: rate %v must be positive and finite", ErrLease, rate)
	}
	if windows < 0 {
		return Lease{}, fmt.Errorf("%w: windows %d", ErrLease, windows)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ls := &Lease{
		ID:      LeaseID(l.next),
		Owner:   owner,
		Holder:  holder,
		Rate:    rate,
		Windows: windows,
		State:   LeaseActive,
	}
	l.next++
	l.leases[ls.ID] = ls
	return *ls, nil
}

// validRate reports whether rate is a reservable rate: positive, not NaN, not
// infinite.
func validRate(rate float64) bool { return rate > 0 && !math.IsInf(rate, 1) }

// Renew extends an active lease by the given number of windows. Renewing an
// until-revoked lease (Windows 0) is a no-op on the lifetime.
func (l *Ledger) Renew(id LeaseID, windows int) (Lease, error) {
	if windows < 0 {
		return Lease{}, fmt.Errorf("%w: windows %d", ErrLease, windows)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, err := l.activeLocked(id)
	if err != nil {
		return Lease{}, err
	}
	if ls.Windows > 0 {
		ls.Windows += windows
	}
	return *ls, nil
}

// Shrink lowers an active lease's reserved rate — the cooperative half of
// reclaim: the holder gives capacity back without losing the lease.
func (l *Ledger) Shrink(id LeaseID, rate float64) (Lease, error) {
	if !validRate(rate) {
		return Lease{}, fmt.Errorf("%w: rate %v must be positive and finite", ErrLease, rate)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, err := l.activeLocked(id)
	if err != nil {
		return Lease{}, err
	}
	if rate > ls.Rate {
		return Lease{}, fmt.Errorf("%w: shrink to %v exceeds current rate %v", ErrLease, rate, ls.Rate)
	}
	ls.Rate = rate
	return *ls, nil
}

// Revoke forcibly terminates an active lease. The reservation disappears
// immediately; callers re-interpret capacities to return it to the pool.
func (l *Ledger) Revoke(id LeaseID) (Lease, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, err := l.activeLocked(id)
	if err != nil {
		return Lease{}, err
	}
	ls.State = LeaseRevoked
	return *ls, nil
}

// activeLocked resolves an id to its active lease. Callers hold l.mu.
func (l *Ledger) activeLocked(id LeaseID) (*Lease, error) {
	ls, ok := l.leases[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown lease %d", ErrLease, id)
	}
	if ls.State != LeaseActive {
		return nil, fmt.Errorf("%w: lease %d is %s", ErrLease, id, ls.State)
	}
	return ls, nil
}

// Tick advances every finite active lease by one scheduling window and
// returns the leases that just expired (their reservations must be
// released like a revocation).
func (l *Ledger) Tick() []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	var expired []Lease
	for _, ls := range l.leases {
		if ls.State != LeaseActive || ls.Windows == 0 {
			continue
		}
		ls.Windows--
		if ls.Windows == 0 {
			ls.State = LeaseExpired
			expired = append(expired, *ls)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].ID < expired[j].ID })
	return expired
}

// Get returns one lease by id.
func (l *Ledger) Get(id LeaseID) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, ok := l.leases[id]
	if !ok {
		return Lease{}, false
	}
	return *ls, true
}

// List returns every lease (any state), sorted by id.
func (l *Ledger) List() []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Lease, 0, len(l.leases))
	for _, ls := range l.leases {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReservedBy sums the active reserved rate set aside from one owner's
// capacity (req/s).
func (l *Ledger) ReservedBy(owner string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := 0.0
	for _, ls := range l.leases {
		if ls.State == LeaseActive && ls.Owner == owner {
			t += ls.Rate
		}
	}
	return t
}

// CreditFor sums the active dedicated rate one holder draws across all its
// leases (req/s).
func (l *Ledger) CreditFor(holder string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := 0.0
	for _, ls := range l.leases {
		if ls.State == LeaseActive && ls.Holder == holder {
			t += ls.Rate
		}
	}
	return t
}

// Table is a versioned, immutable lease-ledger snapshot — the durable and
// wire form (persist stores one file per version, like agreement sets).
type Table struct {
	Version uint64  `json:"version"`
	NextID  uint64  `json:"next_id"`
	Leases  []Lease `json:"leases"`
}

// Snapshot captures the ledger as a table stamped with the given version.
func (l *Ledger) Snapshot(version uint64) *Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := &Table{Version: version, NextID: l.next}
	for _, ls := range l.leases {
		t.Leases = append(t.Leases, *ls)
	}
	sort.Slice(t.Leases, func(i, j int) bool { return t.Leases[i].ID < t.Leases[j].ID })
	return t
}

// Restore replaces the ledger's contents from a snapshot (crash recovery).
// The table comes off a disk: every lease must be one Grant could have
// produced and the ledger could have evolved — a named owner and holder, a
// positive finite rate, a non-negative lifetime, a known state, an id that is
// unique, non-zero and leaves room for a successor. A table that fails is
// refused whole, with an error naming the lease, and the ledger keeps what it
// had.
func (l *Ledger) Restore(t *Table) error {
	if t == nil {
		return nil
	}
	next := t.NextID
	if next == 0 {
		next = 1
	}
	if next == math.MaxUint64 {
		return fmt.Errorf("%w: restore: next id %d leaves no id to grant", ErrLease, next)
	}
	leases := make(map[LeaseID]*Lease, len(t.Leases))
	for i := range t.Leases {
		ls := t.Leases[i]
		switch {
		case ls.ID == 0 || uint64(ls.ID) == math.MaxUint64:
			return fmt.Errorf("%w: restore: lease id %d out of range", ErrLease, ls.ID)
		case leases[ls.ID] != nil:
			return fmt.Errorf("%w: restore: duplicate lease id %d", ErrLease, ls.ID)
		case ls.Owner == "" || ls.Holder == "":
			return fmt.Errorf("%w: restore: lease %d has an empty owner or holder", ErrLease, ls.ID)
		case !validRate(ls.Rate):
			return fmt.Errorf("%w: restore: lease %d has rate %v", ErrLease, ls.ID, ls.Rate)
		case ls.Windows < 0:
			return fmt.Errorf("%w: restore: lease %d has %d windows left", ErrLease, ls.ID, ls.Windows)
		case ls.State != LeaseActive && ls.State != LeaseRevoked && ls.State != LeaseExpired:
			return fmt.Errorf("%w: restore: lease %d has state %q", ErrLease, ls.ID, ls.State)
		}
		leases[ls.ID] = &ls
		if uint64(ls.ID) >= next {
			next = uint64(ls.ID) + 1
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next, l.leases = next, leases
	return nil
}

// EncodeTable renders a lease table as canonical JSON.
func EncodeTable(t *Table) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil table", ErrLease)
	}
	return json.Marshal(t)
}

// DecodeTable parses EncodeTable's output.
func DecodeTable(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("budget: decode lease table: %w", err)
	}
	return &t, nil
}
