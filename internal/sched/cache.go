package sched

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
)

// DefaultQuantum is the queue-vector quantization step (requests/window) of
// every plan cache. Queue estimates that differ by less than half a quantum
// per principal map to the same cached plan; 1e-6 of a request is far below
// any behavioral difference the credit scheme can express, so hits are
// effectively exact.
const DefaultQuantum = 1e-6

// CacheCap is the number of plans a cache holds. A cache serves the windows
// of one scheduling generation, and what those look up is small and recent:
// a redirector asks its engine for two vectors a window (the broadcast-time
// Presolve and the boundary, a demand estimate apart). Sixteen covers that
// with room for a window of lag, and keeps a lookup a scan of a few cache
// lines.
const CacheCap = 16

// PlanCache memoizes window scheduling decisions, keyed by the quantized
// global queue vector. A redirector whose global aggregate has not moved
// since an earlier window (still demand, or the broadcast-time Presolve
// followed by the boundary) reuses that window's solve.
//
// The cache is a fixed ring of at most CacheCap entries, each owning its key
// and its plan buffers, filled lazily and recycled by CLOCK: a hit marks its
// entry, the hand skips (and unmarks) marked entries, so a vector looked up
// every window outlives any number of one-shot vectors in between. Nothing
// the cache owns leaves it: Do copies the plan into the caller's buffer while
// it holds the lock, and the same lock is the single-flight — a lookup that
// arrives during a solve waits for it, and the scheduler behind solve, which
// has one solver state, is never entered twice.
//
// The cache must be discarded when the scheduler it memoizes is rebuilt
// (entitlement or capacity changes), which is why the engine owns and
// re-creates it.
type PlanCache[P any] struct {
	stats *metrics.SolverStats
	copy  func(dst, src *P)

	mu      sync.Mutex
	entries []cacheEntry[P]
	hand    int
	probe   []int64 // quantized key of the lookup in progress
}

type cacheEntry[P any] struct {
	key   []int64
	plan  P
	valid bool // false: never solved, or the solve failed
	ref   bool // looked up since the hand last passed
}

// NewPlanCache builds an empty cache. copyPlan deep-copies a plan into a
// caller-owned buffer (reusing what the buffer already holds); stats may be
// nil.
func NewPlanCache[P any](stats *metrics.SolverStats, copyPlan func(dst, src *P)) *PlanCache[P] {
	return &PlanCache[P]{stats: stats, copy: copyPlan}
}

// maxQuanta keeps the quantized coordinate inside int64 range; queue lengths
// anywhere near it are saturated to one shared key.
const maxQuanta = float64(1 << 62)

// quantize appends the fixed-point encoding of queues to dst.
func quantize(dst []int64, queues []float64) []int64 {
	for _, q := range queues {
		v := math.Round(q / DefaultQuantum)
		if v > maxQuanta {
			v = maxQuanta
		} else if v < -maxQuanta {
			v = -maxQuanta
		}
		dst = append(dst, int64(v))
	}
	return dst
}

// Do copies the plan for queues into dst (nil: only make sure the plan is
// cached), invoking solve at most once per resident quantized vector. solve
// fills the entry's own plan, whose buffers it may reuse. hit reports whether
// the plan was already cached. Failed solves are not retained, so a transient
// error does not poison the vector's key; dst is left alone on error.
func (c *PlanCache[P]) Do(queues []float64, dst *P, solve func(plan *P) error) (hit bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probe = quantize(c.probe[:0], queues)
	e := c.find()
	if hit = e != nil; hit {
		e.ref = true
		c.stats.CacheHit()
	} else {
		e = c.victim()
		e.key, c.probe = c.probe, e.key
		c.stats.CacheMiss()
		start := time.Now()
		err = solve(&e.plan)
		c.stats.RecordSolve(time.Since(start))
		e.valid = err == nil
	}
	if err == nil && dst != nil {
		c.copy(dst, &e.plan)
	}
	return hit, err
}

// find returns the valid entry whose key equals the probe, or nil.
func (c *PlanCache[P]) find() *cacheEntry[P] {
next:
	for i := range c.entries {
		e := &c.entries[i]
		if !e.valid || len(e.key) != len(c.probe) {
			continue
		}
		for j, v := range c.probe {
			if e.key[j] != v {
				continue next
			}
		}
		return e
	}
	return nil
}

// victim returns the entry a miss overwrites: a new one while the ring is
// still growing, otherwise the first one the hand reaches that has not been
// looked up since its last pass.
func (c *PlanCache[P]) victim() *cacheEntry[P] {
	if len(c.entries) < CacheCap {
		c.entries = append(c.entries, cacheEntry[P]{})
		return &c.entries[len(c.entries)-1]
	}
	for {
		e := &c.entries[c.hand]
		c.hand = (c.hand + 1) % CacheCap
		if !e.ref {
			return e
		}
		e.ref = false
	}
}

// Len reports the number of cached vectors (diagnostics and tests).
func (c *PlanCache[P]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.entries {
		if c.entries[i].valid {
			n++
		}
	}
	return n
}
