// Lease operations: /v1/leases rides the same versioned, epoch-gated
// rollout machinery as agreement mutations. A grant publishes the next
// agreement-set version with the leased rate set aside out of the owner's
// effective capacity (so the window LP stops handing that capacity to
// siblings) and the lease itself in the set's lease list, which every
// engine that applies the set deposits as the holder's dedicated per-window
// credit — set-aside and credit swap together at the gate, on every member.
// Revocation, expiry, and shrink reverse both through the identical path,
// which is what bounds reclaim: the restore set is gated Lead epochs ahead
// and swaps at the next window boundary, so the capacity is back in the
// shared pool within ReclaimBound() = Lead + 1 scheduling windows.
package ctrlplane

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/budget"
)

// GrantLease opens a lease of rate req/s from owner's capacity to holder for
// the given number of windows (0 = until revoked) and publishes the owner's
// lowered effective capacity with the holder's dedicated credit.
func (p *Plane) GrantLease(owner, holder string, rate float64, windows int) (budget.Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.sys.Lookup(owner); !ok {
		return budget.Lease{}, fmt.Errorf("%w: unknown principal %q", ErrPlane, owner)
	}
	if _, ok := p.sys.Lookup(holder); !ok {
		return budget.Lease{}, fmt.Errorf("%w: unknown principal %q", ErrPlane, holder)
	}
	avail := p.nominalLocked(owner) - p.ledger.ReservedBy(owner)
	if rate > avail+1e-9 {
		return budget.Lease{}, fmt.Errorf("%w: lease rate %v exceeds %q's unreserved capacity %v",
			ErrPlane, rate, owner, avail)
	}
	ls, err := p.ledger.Grant(owner, holder, rate, windows)
	if err != nil {
		return budget.Lease{}, err
	}
	if err := p.reapplyLeasesLocked(owner); err != nil {
		_, _ = p.ledger.Revoke(ls.ID)
		return budget.Lease{}, err
	}
	p.log.Info("lease granted", "id", uint64(ls.ID), "owner", owner, "holder", holder,
		"rate", rate, "windows", windows, "version", p.version)
	return ls, nil
}

// RenewLease extends an active finite lease by the given number of windows.
// The reservation is unchanged, so nothing is republished — only the durable
// lease table advances.
func (p *Plane) RenewLease(id budget.LeaseID, windows int) (budget.Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ls, err := p.ledger.Renew(id, windows)
	if err != nil {
		return budget.Lease{}, err
	}
	p.saveLeasesLocked()
	p.log.Info("lease renewed", "id", uint64(ls.ID), "windows", ls.Windows)
	return ls, nil
}

// ShrinkLease lowers an active lease's reserved rate (cooperative reclaim)
// and publishes the owner's partially restored capacity.
func (p *Plane) ShrinkLease(id budget.LeaseID, rate float64) (budget.Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ls, err := p.ledger.Shrink(id, rate)
	if err != nil {
		return budget.Lease{}, err
	}
	if err := p.reapplyLeasesLocked(ls.Owner); err != nil {
		return budget.Lease{}, err
	}
	p.log.Info("lease shrunk", "id", uint64(ls.ID), "rate", rate, "version", p.version)
	return ls, nil
}

// RevokeLease forcibly terminates an active lease and publishes the owner's
// restored capacity — the §2.2 re-interpretation path, so the reclaimed
// capacity is enforceable fleet-wide within ReclaimBound() windows.
func (p *Plane) RevokeLease(id budget.LeaseID) (budget.Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ls, err := p.ledger.Revoke(id)
	if err != nil {
		return budget.Lease{}, err
	}
	// The revocation itself is never rolled back: the reservation is gone
	// even if publishing the restored capacity fails here — the next lease
	// mutation recomputes the owner's capacity from the ledger and retries.
	if err := p.reapplyLeasesLocked(ls.Owner); err != nil {
		return ls, err
	}
	p.log.Info("lease revoked", "id", uint64(ls.ID), "owner", ls.Owner, "version", p.version)
	return ls, nil
}

// TickLeases advances every finite active lease by one scheduling window,
// releasing the reservations of any that expired (same path as revocation).
// Deployments drive it once per window from the goroutine that owns the
// control plane; deployments using only until-revoked leases may skip it.
func (p *Plane) TickLeases() ([]budget.Lease, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	expired := p.ledger.Tick()
	if len(expired) == 0 {
		return nil, nil
	}
	owners := make(map[string]bool)
	for _, ls := range expired {
		owners[ls.Owner] = true
	}
	for o := range owners {
		if err := p.reapplyLeasesLocked(o); err != nil {
			return expired, err
		}
		p.log.Info("lease expiry released capacity", "owner", o, "version", p.version)
	}
	return expired, nil
}

// Leases returns every lease (any state), sorted by id.
func (p *Plane) Leases() []budget.Lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ledger.List()
}

// LeaseTable snapshots the ledger at its current durable version.
func (p *Plane) LeaseTable() *budget.Table {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ledger.Snapshot(p.leaseVersion)
}

// ReclaimBound is the documented K-window reclaim bound: a revocation's
// restore set is gated Lead epochs past the current one and each redirector
// swaps at its next window boundary, so the reclaimed capacity is back in
// the shared pool within Lead+1 scheduling windows of the revoke call
// (assuming the tree advances one epoch per window; laggards beyond that run
// the conservative claim and cannot over-admit against the old capacity).
func (p *Plane) ReclaimBound() int { return p.lead + 1 }

// nominalLocked returns owner's pre-lease nominal capacity, capturing it on
// first use. The capture formula (current effective + currently reserved)
// is correct at any point — including right after a crash recovery, where
// the resumed agreement set already carries the set-asides. Callers hold
// p.mu.
func (p *Plane) nominalLocked(owner string) float64 {
	if v, ok := p.nominal[owner]; ok {
		return v
	}
	pr, _ := p.sys.Lookup(owner)
	v := p.sys.Capacity(pr) + p.ledger.ReservedBy(owner)
	p.nominal[owner] = v
	return v
}

// reapplyLeasesLocked recomputes owner's effective capacity from the ledger
// (nominal − reserved), publishes it with the ledger's active leases as the
// next versioned set, and saves the durable lease table. Callers hold p.mu.
func (p *Plane) reapplyLeasesLocked(owner string) error {
	pr, ok := p.sys.Lookup(owner)
	if !ok {
		return fmt.Errorf("%w: unknown principal %q", ErrPlane, owner)
	}
	reserved := p.ledger.ReservedBy(owner)
	target := p.nominalLocked(owner) - reserved
	undo := p.sys.Snapshot(0)
	if err := p.sys.SetCapacity(pr, target); err != nil {
		return err
	}
	// Capacity-only change: the fold is capacity independent, no dirty owners.
	if _, err := p.publishLocked(undo, nil); err != nil {
		return err
	}
	if reserved == 0 {
		delete(p.nominal, owner) // fully restored; re-capture on next grant
	}
	p.saveLeasesLocked()
	return nil
}

// setLeasesLocked lists the ledger's active leases for the next published
// set (nil when none is active). Callers hold p.mu.
func (p *Plane) setLeasesLocked() []agreement.SetLease {
	var out []agreement.SetLease
	for _, ls := range p.ledger.List() {
		h, ok := p.sys.Lookup(ls.Holder)
		o, ok2 := p.sys.Lookup(ls.Owner)
		if ls.State == budget.LeaseActive && ok && ok2 {
			out = append(out, agreement.SetLease{Holder: h, Owner: o, Rate: ls.Rate})
		}
	}
	return out
}

// saveLeasesLocked advances the durable lease version and hands the snapshot
// to the SaveLeases hook. Callers hold p.mu.
func (p *Plane) saveLeasesLocked() {
	p.leaseVersion++
	if p.opt.SaveLeases != nil {
		p.opt.SaveLeases(p.ledger.Snapshot(p.leaseVersion))
	}
}
