package agreement

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
)

// SetPrincipal is one principal's entry in a Set snapshot. A departed
// principal stays in the snapshot with zero capacity and no agreements, so
// Principal indices remain stable across every node applying the same set.
type SetPrincipal struct {
	Name     string  `json:"name"`
	Capacity float64 `json:"capacity"`
}

// SetLease is one active lease in a Set snapshot: Rate requests/second of
// Owner's capacity dedicated to Holder. The owner's published capacity in
// the same set already has the rate set aside; every engine applying the
// set deposits the rate as the holder's per-window credit.
type SetLease struct {
	Holder Principal `json:"holder"`
	Owner  Principal `json:"owner"`
	Rate   float64   `json:"rate"`
}

// Set is an immutable, monotonically versioned snapshot of the whole
// agreement state: the control plane produces one per accepted mutation and
// the combining tree distributes it to every redirector. Snapshots are
// self-contained (full state, not deltas), so a node that missed
// intermediate versions converges by applying only the newest one. A set
// without leases encodes no lease key, so its bytes read the same to a
// build that predates the lease list.
type Set struct {
	Version    uint64         `json:"version"`
	Principals []SetPrincipal `json:"principals"`
	Agreements []Agreement    `json:"agreements"`
	Leases     []SetLease     `json:"leases,omitempty"`
}

// Snapshot captures the system's current principals and agreements as a Set
// stamped with the given version. The agreements are in the deterministic
// (owner, user) order of Agreements. The set carries no leases: the control
// plane, which owns them, attaches them.
func (s *System) Snapshot(version uint64) *Set {
	set := &Set{Version: version, Principals: make([]SetPrincipal, len(s.names))}
	for i, name := range s.names {
		set.Principals[i] = SetPrincipal{Name: name, Capacity: s.capacities[i]}
	}
	set.Agreements = s.Agreements()
	return set
}

// Encode serializes the set for distribution (the combining-tree piggyback
// payload).
func (s *Set) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSet parses a Set produced by Encode.
func DecodeSet(data []byte) (*Set, error) {
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("agreement: decode set: %w", err)
	}
	return &s, nil
}

// Clone returns an independent copy of the system. The control plane
// validates mutations against a clone before committing them to the live
// engine. Edge lists are shared, not copied: neither system ever writes into
// an installed list.
func (s *System) Clone() *System {
	return &System{
		names:      slices.Clone(s.names),
		capacities: slices.Clone(s.capacities),
		byName:     maps.Clone(s.byName),
		out:        slices.Clone(s.out),
	}
}

// ApplySet reconciles the system in place with the snapshot: capacities are
// updated and the direct agreement edges are replaced wholesale. Leases are
// validated but not stored: the system holds no lease state. The
// principal universe is fixed — the set must name the same principals in the
// same order (join/leave are capacity and agreement changes over a
// pre-declared universe, keeping Principal indices stable fleet-wide). The
// set's agreements may come in any order; when a pair repeats, its last
// entry with a non-zero bound wins, and a [0, 0] entry only ever means
// "absent" — it never cancels another entry for the same pair. The whole set
// is validated before anything is mutated; on error the system is unchanged.
// On success it returns the owners whose outgoing agreements changed — the
// dirty set for RefoldFrom.
func (s *System) ApplySet(set *Set) ([]Principal, error) {
	n := len(s.names)
	if set == nil || len(set.Principals) != n {
		got := 0
		if set != nil {
			got = len(set.Principals)
		}
		return nil, fmt.Errorf("%w: set has %d principals, system has %d", ErrDimensionLength, got, n)
	}
	for i, p := range set.Principals {
		if p.Name != s.names[i] {
			return nil, fmt.Errorf("%w: set principal %d is %q, system has %q", ErrUnknown, i, p.Name, s.names[i])
		}
		if math.IsNaN(p.Capacity) || math.IsInf(p.Capacity, 0) || p.Capacity < 0 {
			return nil, fmt.Errorf("%w: %q has capacity %v", ErrBadCapacity, p.Name, p.Capacity)
		}
	}
	for _, l := range set.Leases {
		if !s.valid(l.Holder) || !s.valid(l.Owner) {
			return nil, fmt.Errorf("%w: lease %d→%d", ErrUnknown, int(l.Owner), int(l.Holder))
		}
		if math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) || l.Rate < 0 {
			return nil, fmt.Errorf("%w: lease rate %v", ErrBadCapacity, l.Rate)
		}
	}
	// Validate, then bucket the edges by owner on one backing array (a
	// counting sort: end[o] is where owner o's bucket ends once filled).
	end := make([]int, n+1)
	for _, a := range set.Agreements {
		if !s.valid(a.Owner) || !s.valid(a.User) {
			return nil, fmt.Errorf("%w: %d→%d", ErrUnknown, int(a.Owner), int(a.User))
		}
		if a.Owner == a.User {
			return nil, fmt.Errorf("%w: %s", ErrSelfAgreement, s.names[a.Owner])
		}
		if math.IsNaN(a.LB) || math.IsNaN(a.UB) || a.LB < 0 || a.UB < a.LB || a.UB > 1 {
			return nil, fmt.Errorf("%w: [%v, %v]", ErrBadBounds, a.LB, a.UB)
		}
		if a.LB != 0 || a.UB != 0 {
			end[a.Owner+1]++
		}
	}
	for o := 1; o <= n; o++ {
		end[o] += end[o-1]
	}
	edges := make([]flowEdge, end[n])
	for _, a := range set.Agreements {
		if a.LB != 0 || a.UB != 0 {
			edges[end[a.Owner]] = flowEdge{to: a.User, lb: a.LB, ub: a.UB}
			end[a.Owner]++
		}
	}
	// Sort each bucket by user (stably, so a repeated pair's entries keep set
	// order) and keep each pair's last entry.
	desired := make([][]flowEdge, n)
	for o, lo := 0, 0; o < n; o++ {
		bucket := edges[lo:end[o]:end[o]]
		lo = end[o]
		slices.SortStableFunc(bucket, func(a, b flowEdge) int { return cmp.Compare(a.to, b.to) })
		kept := bucket[:0]
		total := 0.0
		for i, e := range bucket {
			if i+1 < len(bucket) && bucket[i+1].to == e.to {
				continue
			}
			kept = append(kept, e)
			total += e.lb
		}
		if total > 1+1e-12 {
			return nil, fmt.Errorf("%w: %s would grant %.3f mandatorily", ErrOverCommitted, s.names[o], total)
		}
		if len(kept) > 0 {
			desired[o] = kept
		}
	}
	// Commit: capacities, then the changed owners' lists.
	for i, p := range set.Principals {
		s.capacities[i] = p.Capacity
	}
	var dirty []Principal
	for o := 0; o < n; o++ {
		if !slices.Equal(s.out[o], desired[o]) {
			s.out[o] = desired[o]
			dirty = append(dirty, Principal(o))
		}
	}
	return dirty, nil
}
