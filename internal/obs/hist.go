package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of a Histogram: logarithmic upper
// bounds from 1 µs to 1µs·2^27 ≈ 134 s, which spans everything from an
// in-process admission decision to a request parked across many windows.
const histBuckets = 28

// histBase is the upper bound of bucket zero.
const histBase = time.Microsecond

// Histogram is a pre-allocated, log2-bucketed latency distribution safe for
// concurrent use: Observe is one atomic add per sample plus a lock-free max
// update, with no allocation anywhere on the record path. Bucket b holds
// samples ≤ 1µs·2^b; quantiles are therefore upper bounds at power-of-two
// resolution, which is exactly the precision a p99/p999 check needs while
// keeping the whole structure a few hundred bytes.
//
// The load generator records send-schedule-based latencies into Histograms
// (one per principal), and obs.Handler exposes them on /v1/metrics in the
// Prometheus histogram exposition format. A nil *Histogram is a valid no-op
// receiver.
type Histogram struct {
	bucket [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
	ex     [histBuckets]exemplar
}

// exemplar is one per-bucket trace reference: the span ID and duration of
// the most recent exemplified sample landing in the bucket. The two words
// are stored independently (a torn read pairs a ref with a near-miss
// duration from the same bucket — harmless for a debugging breadcrumb).
type exemplar struct {
	ref   atomic.Uint64
	nanos atomic.Int64
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketFor maps a duration to its bucket index.
func histBucketFor(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	b := int(math.Ceil(math.Log2(float64(d) / float64(histBase))))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// HistogramBucketUpper is the inclusive upper bound of bucket b (the last
// bucket absorbs everything above it).
func HistogramBucketUpper(b int) time.Duration {
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return histBase << uint(b)
}

// Observe records one sample. Negative durations are dropped.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	h.bucket[histBucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when ref is non-zero, tags the
// sample's bucket with the trace reference so a scrape can jump from a
// latency bucket to the span behind it (`/v1/debug/trace`). ref 0 (a span
// that was sampled out) degrades to a plain Observe. Zero allocations.
func (h *Histogram) ObserveExemplar(d time.Duration, ref uint64) {
	if h == nil || d < 0 {
		return
	}
	h.Observe(d)
	if ref != 0 {
		e := &h.ex[histBucketFor(d)]
		e.ref.Store(ref)
		e.nanos.Store(int64(d))
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all recorded samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Max reports the largest recorded sample.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean reports the average sample (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile reports an upper bound on the q-quantile (0 < q ≤ 1) at bucket
// resolution. Concurrent Observe calls may be partially visible; quantiles
// of a live histogram are best read after the load has drained.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.bucket[b].Load()
		if seen >= need {
			return HistogramBucketUpper(b)
		}
	}
	return HistogramBucketUpper(histBuckets - 1)
}

// Merge folds other's samples into h (aggregating per-stream histograms
// into a fleet-wide distribution). Neither histogram may be receiving
// concurrent Observe calls during the merge.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for b := 0; b < histBuckets; b++ {
		if n := other.bucket[b].Load(); n != 0 {
			h.bucket[b].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	if m := other.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}

// Snapshot copies the cumulative bucket counts (counts of samples ≤ each
// bucket's upper bound), the Prometheus histogram convention.
func (h *Histogram) Snapshot() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.bucket[b].Load()
		out[b] = cum
	}
	return out
}

// WriteHistogram emits one histogram family in the Prometheus text
// exposition format: <name>_bucket{le="..."} series in seconds, plus
// <name>_sum and <name>_count. Empty buckets below the first occupied one
// are skipped to keep scrapes small; the +Inf bucket is always present.
// Buckets holding an exemplar carry an OpenMetrics-style trailing
// `# {trace_ref="<id>"} <seconds>` annotation linking the bucket to a span
// in /v1/debug/trace.
func WriteHistogram(w io.Writer, name, help string, h *Histogram) {
	if h == nil {
		return
	}
	WriteMetricHeader(w, name, "histogram", help)
	cum := h.Snapshot()
	started := false
	for b := 0; b < histBuckets; b++ {
		if !started && cum[b] == 0 {
			continue
		}
		started = true
		if ref := h.ex[b].ref.Load(); ref != 0 {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d # {trace_ref=\"%d\"} %s\n",
				name, formatFloat(HistogramBucketUpper(b).Seconds()), cum[b],
				ref, formatFloat(time.Duration(h.ex[b].nanos.Load()).Seconds()))
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, formatFloat(HistogramBucketUpper(b).Seconds()), cum[b])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum().Seconds()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}
