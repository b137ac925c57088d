package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// SolverStats aggregates scheduling fast-path telemetry: plan-cache hits and
// misses, LP solve count and latency, and how often a scheduler had to drop
// mandatory floors to keep a window feasible. One instance serves an engine
// and every scheduling generation it builds, read by scrapes while windows
// record into it, so all methods are safe for concurrent use, and a nil
// *SolverStats is a valid no-op receiver (standalone schedulers need not wire
// one up).
type SolverStats struct {
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	solves         atomic.Int64
	floorFallbacks atomic.Int64
	solveNanos     atomic.Int64
	maxSolveNanos  atomic.Int64
}

// CacheHit records one plan-cache hit.
func (s *SolverStats) CacheHit() {
	if s != nil {
		s.cacheHits.Add(1)
	}
}

// CacheMiss records one plan-cache miss.
func (s *SolverStats) CacheMiss() {
	if s != nil {
		s.cacheMisses.Add(1)
	}
}

// RecordSolve records one LP solve and its wall-clock latency.
func (s *SolverStats) RecordSolve(d time.Duration) {
	if s == nil {
		return
	}
	s.solves.Add(1)
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.solveNanos.Add(ns)
	for {
		max := s.maxSolveNanos.Load()
		if ns <= max || s.maxSolveNanos.CompareAndSwap(max, ns) {
			return
		}
	}
}

// FloorFallback records one window solved without mandatory floors and
// reports the new total, so callers can log the first occurrence exactly
// once.
func (s *SolverStats) FloorFallback() int64 {
	if s == nil {
		return 0
	}
	return s.floorFallbacks.Add(1)
}

// CacheHits reports the number of plan-cache hits.
func (s *SolverStats) CacheHits() int64 {
	if s == nil {
		return 0
	}
	return s.cacheHits.Load()
}

// CacheMisses reports the number of plan-cache misses.
func (s *SolverStats) CacheMisses() int64 {
	if s == nil {
		return 0
	}
	return s.cacheMisses.Load()
}

// Solves reports the number of LP solves performed.
func (s *SolverStats) Solves() int64 {
	if s == nil {
		return 0
	}
	return s.solves.Load()
}

// FloorFallbacks reports how many windows were re-solved without mandatory
// floors because entitlements and capacities disagreed.
func (s *SolverStats) FloorFallbacks() int64 {
	if s == nil {
		return 0
	}
	return s.floorFallbacks.Load()
}

// HitRate reports the plan-cache hit fraction in [0, 1] (0 when no lookups
// have happened).
func (s *SolverStats) HitRate() float64 {
	if s == nil {
		return 0
	}
	h, m := s.cacheHits.Load(), s.cacheMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// MeanSolve reports the average LP solve latency (0 when none ran).
func (s *SolverStats) MeanSolve() time.Duration {
	if s == nil {
		return 0
	}
	n := s.solves.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.solveNanos.Load() / n)
}

// MaxSolve reports the largest observed LP solve latency.
func (s *SolverStats) MaxSolve() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.maxSolveNanos.Load())
}

// String renders a one-line operator summary.
func (s *SolverStats) String() string {
	if s == nil {
		return "solver stats: disabled"
	}
	return fmt.Sprintf("plan cache %d/%d hits (%.1f%%), %d solves (mean %v, max %v), %d floor fallbacks",
		s.CacheHits(), s.CacheHits()+s.CacheMisses(), 100*s.HitRate(),
		s.Solves(), s.MeanSolve(), s.MaxSolve(), s.FloorFallbacks())
}
