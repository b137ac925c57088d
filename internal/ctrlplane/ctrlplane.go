// Package ctrlplane is the dynamic agreement control plane: a versioned
// runtime reconfiguration API over the enforcement engine.
//
// The paper treats the agreement set as static input; real deployments
// renegotiate SLAs, add principals, and retire them while traffic flows.
// This package accepts those mutations (programmatically or over the
// /v1/agreements admin HTTP surface), validates each one against a private
// clone of the agreement system, and turns every accepted mutation into an
// immutable, monotonically versioned agreement.Set snapshot. Snapshots are
// applied to the local engine via core.Engine.StageSet — which refolds only
// the simple paths through the dirty owners — and handed to a Publish hook
// that piggybacks them on the combining tree's epoch broadcasts
// (combining.ConfigUpdate), so every redirector in a distributed deployment
// receives the new entitlements and swaps atomically at a window boundary
// once its epoch passes the rollout gate. No window mixes old and new
// entitlements; redirectors past the gate that missed the update fall back
// to the conservative claim until it arrives.
package ctrlplane

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultLead is how many combining-tree epochs ahead of the current one a
// rollout is gated by default: one epoch for the update to reach every leaf
// on a broadcast, one of margin for reports in flight.
const DefaultLead = 2

// ErrPlane reports an invalid control-plane request.
var ErrPlane = errors.New("ctrlplane: invalid request")

// Options parameterizes New.
type Options struct {
	// Lead is added to Epoch() to form each rollout's gate epoch
	// (<=0 selects DefaultLead).
	Lead int
	// Epoch reports the combining tree's current root epoch. Nil means no
	// tree: mutations commit immediately (gate 0) instead of being staged.
	Epoch func() int
	// Publish, when non-nil, distributes an accepted snapshot to the rest
	// of the deployment (typically combining.Node.SetConfig on the tree
	// root, encoded with Set.Encode). Called after the local engine has
	// accepted the set, outside any engine lock.
	Publish func(set *agreement.Set, gateEpoch int)
	// Logger receives accepted-mutation events; nil uses obs.Default.
	Logger *slog.Logger
	// Resume, when non-nil, is the newest durable agreement-set snapshot a
	// restarted control-plane host recovered (internal/persist): New applies
	// it to the validation clone and resumes version numbering from
	// Resume.Version, so re-registration after a crash is idempotent — the
	// restarted plane's next mutation produces Resume.Version+1 instead of
	// restarting at 1 and being discarded fleet-wide as stale.
	Resume *agreement.Set
	// SaveLeases, when non-nil, receives the versioned lease table after
	// every lease mutation (internal/persist durably stores it alongside
	// agreement sets). Called under the plane mutex; keep it fast.
	SaveLeases func(t *budget.Table)
	// ResumeLeases, when non-nil, is the newest durable lease table a
	// restarted host recovered: New restores the ledger from it (id sequence
	// included), so leases survive a crash with at most one un-synced
	// mutation lost. Their set-asides and credit ride the resumed set.
	ResumeLeases *budget.Table
}

// Plane is the control plane for one engine. All mutations serialize through
// its mutex; each validates on a private clone of the agreement system
// before anything reaches the engine, so a rejected request leaves every
// component untouched.
type Plane struct {
	mu    sync.Mutex
	sys   *agreement.System // private validation clone
	flows *agreement.Flows  // fold of sys, advanced incrementally
	eng   *core.Engine
	opt   Options
	log   *slog.Logger // opt.Logger (or obs.Default) tagged comp=ctrlplane
	lead  int
	// version numbers accepted mutations; snapshots carry it as their
	// agreement.Set version.
	version uint64

	// ledger tracks leases (see lease.go); nominal remembers each owner's
	// pre-lease capacity while any of its capacity is set aside, and
	// leaseVersion numbers durable lease-table snapshots.
	ledger       *budget.Ledger
	nominal      map[string]float64
	leaseVersion uint64
}

// New builds a control plane over sys (the authoritative agreement system,
// cloned for validation) and eng (the local engine snapshots are staged on;
// nil for publish-only planes).
func New(sys *agreement.System, eng *core.Engine, opt Options) (*Plane, error) {
	if sys == nil || sys.NumPrincipals() == 0 {
		return nil, fmt.Errorf("%w: nil or empty system", ErrPlane)
	}
	clone := sys.Clone()
	version := uint64(0)
	if opt.Resume != nil {
		if _, err := clone.ApplySet(opt.Resume); err != nil {
			return nil, fmt.Errorf("ctrlplane: resume set v%d: %w", opt.Resume.Version, err)
		}
		version = opt.Resume.Version
	}
	flows, err := clone.Flows()
	if err != nil {
		return nil, err
	}
	lead := opt.Lead
	if lead <= 0 {
		lead = DefaultLead
	}
	logger := opt.Logger
	if logger == nil {
		logger = obs.Default()
	}
	p := &Plane{
		sys: clone, flows: flows, eng: eng, opt: opt, lead: lead, version: version,
		log:     logger.With("comp", "ctrlplane"),
		ledger:  budget.NewLedger(),
		nominal: make(map[string]float64),
	}
	if opt.ResumeLeases != nil {
		// Later snapshots must supersede this one whether or not it is usable.
		p.leaseVersion = opt.ResumeLeases.Version
		if err := p.ledger.Restore(opt.ResumeLeases); err != nil {
			// A table that decodes but could not have come from a ledger is
			// not enforced: the host starts without leases and says so.
			p.log.Error("recovered lease table refused; starting without leases",
				"version", opt.ResumeLeases.Version, "err", err)
		}
	}
	return p, nil
}

// Version returns the version of the newest accepted mutation (0 before
// any).
func (p *Plane) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// SetAgreement renegotiates (or with lb = ub = 0 removes) the direct
// agreement owner→user and rolls the resulting versioned snapshot out.
// Returns the snapshot's version.
func (p *Plane) SetAgreement(owner, user string, lb, ub float64) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.sys.Lookup(owner)
	if !ok {
		return p.version, fmt.Errorf("%w: unknown principal %q", ErrPlane, owner)
	}
	u, ok := p.sys.Lookup(user)
	if !ok {
		return p.version, fmt.Errorf("%w: unknown principal %q", ErrPlane, user)
	}
	undo := p.sys.Snapshot(0)
	if err := p.sys.SetAgreement(o, u, lb, ub); err != nil {
		return p.version, err
	}
	v, err := p.publishLocked(undo, []agreement.Principal{o})
	if err != nil {
		return v, err
	}
	p.log.Info("agreement renegotiated", "owner", owner, "user", user,
		"lb", lb, "ub", ub, "version", v)
	return v, nil
}

// Join brings a declared principal into service with the given capacity
// (requests/second). Principals are declared up front in the configuration
// (possibly with capacity 0, i.e. absent); joining re-interprets every
// entitlement against the newly available capacity (§2.2).
func (p *Plane) Join(name string, capacity float64) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.sys.Lookup(name)
	if !ok {
		return p.version, fmt.Errorf("%w: unknown principal %q", ErrPlane, name)
	}
	undo := p.sys.Snapshot(0)
	if err := p.sys.SetCapacity(pr, capacity); err != nil {
		return p.version, err
	}
	// Capacity-only change: the fold is capacity independent, no dirty owners.
	v, err := p.publishLocked(undo, nil)
	if err != nil {
		return v, err
	}
	p.log.Info("principal joined", "principal", name, "capacity", capacity, "version", v)
	return v, nil
}

// Leave takes a principal out of service: its capacity drops to zero and
// every direct agreement it owns or uses is removed, so no entitlement can
// route traffic toward (or on behalf of) the departed principal.
func (p *Plane) Leave(name string) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.sys.Lookup(name)
	if !ok {
		return p.version, fmt.Errorf("%w: unknown principal %q", ErrPlane, name)
	}
	undo := p.sys.Snapshot(0)
	dirtySet := map[agreement.Principal]bool{pr: true}
	for _, a := range p.sys.Agreements() {
		if a.Owner != pr && a.User != pr {
			continue
		}
		if err := p.sys.SetAgreement(a.Owner, a.User, 0, 0); err != nil {
			_, _ = p.sys.ApplySet(undo)
			return p.version, err
		}
		dirtySet[a.Owner] = true
	}
	if err := p.sys.SetCapacity(pr, 0); err != nil {
		_, _ = p.sys.ApplySet(undo)
		return p.version, err
	}
	dirty := make([]agreement.Principal, 0, len(dirtySet))
	for d := range dirtySet {
		dirty = append(dirty, d)
	}
	v, err := p.publishLocked(undo, dirty)
	if err != nil {
		return v, err
	}
	p.log.Info("principal left", "principal", name, "version", v)
	return v, nil
}

// publishLocked completes an accepted mutation: refold the private clone
// incrementally, snapshot it as the next version, stage the snapshot on the
// local engine behind the epoch gate, and hand it to the Publish hook. Any
// failure restores the clone from undo and leaves the engine untouched.
func (p *Plane) publishLocked(undo *agreement.Set, dirty []agreement.Principal) (uint64, error) {
	flows, err := p.sys.RefoldFrom(p.flows, dirty)
	if err != nil {
		_, _ = p.sys.ApplySet(undo)
		return p.version, err
	}
	set := p.snapshotLocked(p.version + 1)
	gate := 0
	if p.opt.Epoch != nil {
		gate = p.opt.Epoch() + p.lead
	}
	if p.eng != nil {
		if _, err := p.eng.StageSet(set, gate); err != nil {
			_, _ = p.sys.ApplySet(undo)
			return p.version, err
		}
	}
	p.version++
	p.flows = flows
	if p.opt.Publish != nil {
		p.opt.Publish(set, gate)
	}
	return p.version, nil
}

// Snapshot returns the current agreement set, leases included, at the
// current version (for introspection; the returned set is private to the
// caller).
func (p *Plane) Snapshot() *agreement.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(p.version)
}

// snapshotLocked is the full agreement state as a set stamped version: the
// validation clone's principals and agreements plus the active leases.
// Callers hold p.mu.
func (p *Plane) snapshotLocked(version uint64) *agreement.Set {
	set := p.sys.Snapshot(version)
	set.Leases = p.setLeasesLocked()
	return set
}
