package l4

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/agreement"
)

// affinityStripes is the lock-stripe count of the client→owner affinity
// cache. Striping exists so concurrent accept loops touching different
// clients never serialize on one map mutex; 32 stripes is plenty for the
// handful of accept goroutines a redirector runs.
const affinityStripes = 32

type affinityEntry struct {
	owner agreement.Principal
	at    time.Time
}

type affinityStripe struct {
	mu sync.Mutex
	m  map[netip.Addr]affinityEntry
	_  [64]byte
}

// affinityTTL is how long a client address stays pinned to an owner.
const affinityTTL = 30 * time.Second

// affinityCache pins client addresses to owners for affinityTTL — the
// §4.2 "to the extent allowed by the sharing agreements" stickiness — using
// striped locks so lookups on the admission path stay contention-free.
type affinityCache struct {
	stripes [affinityStripes]affinityStripe
}

func newAffinityCache() *affinityCache {
	a := &affinityCache{}
	for i := range a.stripes {
		a.stripes[i].m = make(map[netip.Addr]affinityEntry)
	}
	return a
}

// stripe hashes the client address onto its stripe (FNV-1a over its 16-byte
// form, inlined to avoid an allocation per lookup).
func (a *affinityCache) stripe(client netip.Addr) *affinityStripe {
	h := uint32(2166136261)
	for _, b := range client.As16() {
		h = (h ^ uint32(b)) * 16777619
	}
	return &a.stripes[h%affinityStripes]
}

// lookup returns the live pinned owner for client, or -1.
func (a *affinityCache) lookup(client netip.Addr, now time.Time) agreement.Principal {
	s := a.stripe(client)
	s.mu.Lock()
	e, ok := s.m[client]
	s.mu.Unlock()
	if ok && now.Sub(e.at) < affinityTTL {
		return e.owner
	}
	return agreement.Principal(-1)
}

// pin records (or refreshes) the client's owner.
func (a *affinityCache) pin(client netip.Addr, owner agreement.Principal, now time.Time) {
	s := a.stripe(client)
	s.mu.Lock()
	s.m[client] = affinityEntry{owner: owner, at: now}
	s.mu.Unlock()
}

// sweep drops expired pins; called once per window, off the admission path.
func (a *affinityCache) sweep(now time.Time) {
	for i := range a.stripes {
		s := &a.stripes[i]
		s.mu.Lock()
		for k, e := range s.m {
			if now.Sub(e.at) > affinityTTL {
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}
