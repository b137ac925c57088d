// Package agreement implements the paper's uniform representation of
// resource sharing agreements (§2): principals owning rate resources,
// agreements [lb, ub] between them, and the ticket/currency scheme that
// folds direct and transitive agreements into per-principal mandatory and
// optional access levels (MC_i, OC_i) plus per-pair entitlement matrices
// (MI_ki, OI_ki) used by the window schedulers in internal/sched.
//
// The flow computation follows Figure 5 of the paper: mandatory resources
// flow along chains of lower bounds over simple paths in the agreement
// graph; optional resources arise from one optional ticket on the path
// followed by upper bounds; a principal's mandatory value excludes what it
// passes along to others (the leak factor 1−Σ lb), and its optional value
// additionally includes the mandatory value it granted away but may reclaim
// while unused.
package agreement

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors reported by System mutation and computation.
var (
	ErrBadBounds       = errors.New("agreement: bounds must satisfy 0 ≤ lb ≤ ub ≤ 1")
	ErrSelfAgreement   = errors.New("agreement: a principal cannot hold an agreement with itself")
	ErrUnknown         = errors.New("agreement: unknown principal")
	ErrOverCommitted   = errors.New("agreement: mandatory grants exceed 100% of a principal's currency")
	ErrBadCapacity     = errors.New("agreement: capacity must be finite and non-negative")
	ErrDuplicateName   = errors.New("agreement: duplicate principal name")
	ErrTooManyPaths    = errors.New("agreement: agreement graph has too many simple paths")
	ErrDimensionLength = errors.New("agreement: capacity vector length does not match principal count")
)

// Principal is a handle to a participant registered in a System.
type Principal int

// Agreement is one direct contract: Owner grants User access to between
// LB·100% and UB·100% of the resources backing Owner's currency.
type Agreement struct {
	Owner Principal `json:"owner"`
	User  Principal `json:"user"`
	LB    float64   `json:"lb"`
	UB    float64   `json:"ub"`
}

// System is a set of principals, their physical capacities, and the direct
// agreements between them. The zero value is unusable; construct with New.
type System struct {
	names      []string
	capacities []float64
	byName     map[string]Principal
	// out[owner] lists owner's direct agreements sorted by user. The lists
	// are the fold's adjacency, and every sum over an owner's edges runs in
	// their order. A list is never written once installed — SetAgreement and
	// ApplySet replace it — so clones share them.
	out [][]flowEdge
}

// flowEdge is one direct agreement in its owner's edge list.
type flowEdge struct {
	to     Principal
	lb, ub float64
}

// find locates user in owner's list: its index, or where it would go.
func (s *System) find(owner, user Principal) (int, bool) {
	return slices.BinarySearchFunc(s.out[owner], user, func(e flowEdge, u Principal) int { return cmp.Compare(e.to, u) })
}

// New returns an empty agreement system.
func New() *System {
	return &System{byName: make(map[string]Principal)}
}

// AddPrincipal registers a principal with the given display name and
// physical capacity (in requests per time window, or any rate unit — the
// paper scales capacities "in terms of the average requirements of a
// request").
func (s *System) AddPrincipal(name string, capacity float64) (Principal, error) {
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		return -1, fmt.Errorf("%w: %q has capacity %v", ErrBadCapacity, name, capacity)
	}
	if _, dup := s.byName[name]; dup {
		return -1, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	p := Principal(len(s.names))
	s.names = append(s.names, name)
	s.capacities = append(s.capacities, capacity)
	s.out = append(s.out, nil)
	s.byName[name] = p
	return p, nil
}

// MustAddPrincipal is AddPrincipal for static configuration; it panics on
// error.
func (s *System) MustAddPrincipal(name string, capacity float64) Principal {
	p, err := s.AddPrincipal(name, capacity)
	if err != nil {
		panic(err)
	}
	return p
}

// NumPrincipals reports how many principals are registered.
func (s *System) NumPrincipals() int { return len(s.names) }

// Name returns the display name of p.
func (s *System) Name(p Principal) string {
	if !s.valid(p) {
		return fmt.Sprintf("principal(%d)", int(p))
	}
	return s.names[p]
}

// Lookup resolves a principal by name.
func (s *System) Lookup(name string) (Principal, bool) {
	p, ok := s.byName[name]
	return p, ok
}

// Capacity returns the physical capacity of p.
func (s *System) Capacity(p Principal) float64 {
	if !s.valid(p) {
		return 0
	}
	return s.capacities[p]
}

// SetCapacity updates p's physical capacity. Flows computed earlier remain
// valid: capacities only scale the entitlements (see Flows.Access), which is
// exactly the dynamic-interpretation property the paper calls out in §2.2.
func (s *System) SetCapacity(p Principal, capacity float64) error {
	if !s.valid(p) {
		return fmt.Errorf("%w: %d", ErrUnknown, int(p))
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		return fmt.Errorf("%w: %v", ErrBadCapacity, capacity)
	}
	s.capacities[p] = capacity
	return nil
}

// Capacities returns a copy of the capacity vector indexed by Principal.
func (s *System) Capacities() []float64 {
	v := make([]float64, len(s.capacities))
	copy(v, s.capacities)
	return v
}

func (s *System) valid(p Principal) bool { return p >= 0 && int(p) < len(s.names) }

// SetAgreement installs (or replaces) the direct agreement owner→user with
// bounds [lb, ub]. Setting lb = ub = 0 removes the agreement.
func (s *System) SetAgreement(owner, user Principal, lb, ub float64) error {
	if !s.valid(owner) || !s.valid(user) {
		return fmt.Errorf("%w: %d→%d", ErrUnknown, int(owner), int(user))
	}
	if owner == user {
		return fmt.Errorf("%w: %s", ErrSelfAgreement, s.names[owner])
	}
	if math.IsNaN(lb) || math.IsNaN(ub) || lb < 0 || ub < lb || ub > 1 {
		return fmt.Errorf("%w: [%v, %v]", ErrBadBounds, lb, ub)
	}
	at, found := s.find(owner, user)
	old := s.out[owner]
	remove := lb == 0 && ub == 0
	if remove && !found {
		return nil
	}
	if !remove {
		// The sum of mandatory grants out of a currency cannot exceed its face.
		total := lb
		for _, e := range old {
			if e.to != user {
				total += e.lb
			}
		}
		if total > 1+1e-12 {
			return fmt.Errorf("%w: %s would grant %.3f mandatorily", ErrOverCommitted, s.names[owner], total)
		}
	}
	// Copy on write: the installed list may be shared with clones.
	next := append(make([]flowEdge, 0, len(old)+1), old[:at]...)
	if !remove {
		next = append(next, flowEdge{to: user, lb: lb, ub: ub})
	}
	if found {
		at++
	}
	if next = append(next, old[at:]...); len(next) == 0 {
		next = nil
	}
	s.out[owner] = next
	return nil
}

// MustSetAgreement is SetAgreement for static configuration; it panics on
// error.
func (s *System) MustSetAgreement(owner, user Principal, lb, ub float64) {
	if err := s.SetAgreement(owner, user, lb, ub); err != nil {
		panic(err)
	}
}

// AgreementBetween reports the direct agreement owner→user, if any.
func (s *System) AgreementBetween(owner, user Principal) (lb, ub float64, ok bool) {
	if !s.valid(owner) {
		return 0, 0, false
	}
	at, ok := s.find(owner, user)
	if !ok {
		return 0, 0, false
	}
	e := s.out[owner][at]
	return e.lb, e.ub, true
}

// Agreements returns all direct agreements in a deterministic order
// (by owner, then user).
func (s *System) Agreements() []Agreement {
	total := 0
	for _, es := range s.out {
		total += len(es)
	}
	if total == 0 {
		return nil
	}
	out := make([]Agreement, 0, total)
	for o, es := range s.out {
		for _, e := range es {
			out = append(out, Agreement{Owner: Principal(o), User: e.to, LB: e.lb, UB: e.ub})
		}
	}
	return out
}

// mandatoryOut is Σ_j lb_pj — the fraction of p's currency granted away
// mandatorily (the "leak" in Figure 5b), summed in p's list order so the
// float result is identical across calls; fold determinism (and with it the
// control plane's bit-reproducible rollouts) depends on it.
func (s *System) mandatoryOut(p Principal) float64 {
	total := 0.0
	for _, e := range s.out[p] {
		total += e.lb
	}
	return total
}

// String renders the system for debugging.
func (s *System) String() string {
	out := fmt.Sprintf("agreement.System{%d principals", len(s.names))
	for i, n := range s.names {
		out += fmt.Sprintf("; %s V=%g", n, s.capacities[i])
	}
	for _, a := range s.Agreements() {
		out += fmt.Sprintf("; %s→%s [%g,%g]", s.names[a.Owner], s.names[a.User], a.LB, a.UB)
	}
	return out + "}"
}
