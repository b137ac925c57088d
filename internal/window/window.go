// Package window provides ExplicitQueue, the first of the two admission
// mechanisms contrasted in §4.1: the paper's first implementation, where
// requests are held in per-principal queues and released in a batch at the
// start of the next time window. This bunches requests and, with
// closed-loop clients, depresses server throughput (the anomaly the paper
// reports). It serves the explicit-queue ablation experiment. The
// credit-based implicit scheme the paper switched to — per-window
// allowances consumed one request at a time, with at most one request of
// carry — is the enforcement path itself: internal/core computes the
// (principal × owner) credits and internal/admission spends them.
package window

// ExplicitQueue holds deferred work per principal and releases it in window
// batches.
type ExplicitQueue struct {
	queues [][]func()
}

// NewExplicitQueue creates queues for n principals.
func NewExplicitQueue(n int) *ExplicitQueue {
	return &ExplicitQueue{queues: make([][]func(), n)}
}

// Enqueue defers fn (typically "forward this request/connection") under
// principal p. Out-of-range principals are ignored.
func (q *ExplicitQueue) Enqueue(p int, fn func()) {
	if p < 0 || p >= len(q.queues) {
		return
	}
	q.queues[p] = append(q.queues[p], fn)
}

// Len reports the queued work for principal p.
func (q *ExplicitQueue) Len(p int) int {
	if p < 0 || p >= len(q.queues) {
		return 0
	}
	return len(q.queues[p])
}

// Lens returns all queue lengths (the n_i fed to the scheduler).
func (q *ExplicitQueue) Lens() []float64 {
	out := make([]float64, len(q.queues))
	for i, s := range q.queues {
		out[i] = float64(len(s))
	}
	return out
}

// Release pops and runs up to quota[p] deferred items per principal,
// returning how many ran per principal. Fractional quotas are truncated;
// carry fractions in the scheduler if needed.
func (q *ExplicitQueue) Release(quota []float64) []int {
	ran := make([]int, len(q.queues))
	for p := range q.queues {
		allow := 0
		if p < len(quota) {
			allow = int(quota[p])
		}
		if allow > len(q.queues[p]) {
			allow = len(q.queues[p])
		}
		for i := 0; i < allow; i++ {
			q.queues[p][i]()
			q.queues[p][i] = nil
		}
		q.queues[p] = append(q.queues[p][:0], q.queues[p][allow:]...)
		ran[p] = allow
	}
	return ran
}
