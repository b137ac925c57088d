// Package vclock provides a deterministic discrete-event scheduler over
// virtual time. The experiment harness (internal/sim) runs the paper's
// multi-minute scenarios in milliseconds of wall time by advancing this
// clock from event to event; because execution is single-threaded and ties
// are broken by scheduling order, runs are exactly reproducible.
package vclock

import (
	"container/heap"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock with an event queue. The zero value is ready to
// use and starts at virtual time 0. Only Now is safe for concurrent use (a
// control plane stamping a publish from the goroutine that accepted it);
// everything else belongs to the simulation driver.
type Clock struct {
	now    atomic.Int64 // time.Duration
	events eventHeap
	seq    uint64
}

// Timer is a handle to a scheduled event, usable for cancellation.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It reports whether the event had not yet fired.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Schedule runs fn at Now()+delay. A non-positive delay schedules the event
// at the current instant, after already-queued events for that instant.
func (c *Clock) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	ev := &event{at: c.Now() + delay, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.events, ev)
	return &Timer{ev: ev}
}

// ScheduleEvery runs fn every period, starting one period from now, until
// the returned Ticker is stopped. fn observes the clock already advanced to
// the tick time.
func (c *Clock) ScheduleEvery(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("vclock: ScheduleEvery requires a positive period")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeats an event at a fixed virtual period.
type Ticker struct {
	clock   *Clock
	period  time.Duration
	fn      func()
	timer   *Timer
	stopped bool
}

func (t *Ticker) arm() {
	t.timer = t.clock.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// Step fires the next pending event, advancing the clock to its time. It
// reports false when no events remain.
func (c *Clock) Step() bool {
	for c.events.Len() > 0 {
		ev := heap.Pop(&c.events).(*event)
		if ev.cancelled {
			continue
		}
		c.now.Store(int64(ev.at))
		ev.fired = true
		ev.fn()
		return true
	}
	return false
}

// RunUntil fires events in order until the queue is empty or the next event
// lies beyond t; the clock finishes exactly at t.
func (c *Clock) RunUntil(t time.Duration) {
	for c.events.Len() > 0 {
		next := c.events[0]
		if next.cancelled {
			heap.Pop(&c.events)
			continue
		}
		if next.at > t {
			break
		}
		c.Step()
	}
	if c.Now() < t {
		c.now.Store(int64(t))
	}
}

// RunFor advances the clock by d. See RunUntil.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.Now() + d) }

// Pending reports the number of queued (non-cancelled) events.
func (c *Clock) Pending() int {
	n := 0
	for _, ev := range c.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
