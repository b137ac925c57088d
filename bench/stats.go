package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark will print it: with fewer, the order statistic is decided by a
// handful of outliers and repeats badly from run to run.
const minBeyond = 10

// samples records raw durations in nanoseconds. Percentiles are exact order
// statistics over the recorded values (nearest rank), never bucket bounds:
// obs.Histogram's power-of-two buckets make p95 = p99 = p999, which is the
// defect this benchmark exists to get away from.
type samples struct {
	v      []int64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.v = append(s.v, int64(d))
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

// pct returns the nearest-rank q-quantile in nanoseconds. ok is false when
// fewer than minBeyond samples lie beyond it; the value is still returned so
// a short smoke run can check that it is finite.
func (s *samples) pct(q float64) (ns float64, ok bool) {
	n := len(s.v)
	if n == 0 {
		return 0, false
	}
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1 // the epsilon absorbs q*n landing a hair above a whole rank
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return float64(s.v[idx]), n-1-idx >= minBeyond
}

func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += float64(x)
	}
	return sum / float64(len(s.v))
}

// median of a small float slice (set-up repetitions, compare mode).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// rng is splitmix64, the same generator loadgen uses for its schedules:
// stable across Go releases, so one seed means one workload forever.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
