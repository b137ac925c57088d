// Package health implements active per-backend health checking for the
// real-socket enforcement plane, and converts detected failures into the
// paper's §2.2 dynamic re-interpretation of agreements: a backend marked
// down shrinks its owner's physical capacity, Engine.UpdateCapacities
// re-derives every entitlement from the cached flows, and traffic
// re-converges to the surviving capacity — graceful degradation through the
// agreement model itself rather than ad-hoc load shedding.
//
// The Checker's probe loop is deterministic at its core: Advance(now) runs
// every probe due at now and returns the next due time, so unit tests drive
// it with a fake clock and the simulation drives it with virtual time.
// Start/Stop wrap the same core in a wall-clock goroutine for the l7/l4
// front-ends.
package health

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options parameterizes a Checker. Zero values select the defaults.
type Options struct {
	// Interval is the probe period while a target is (or appears) up
	// (default 500 ms).
	Interval time.Duration
	// Timeout bounds a single probe (default 1 s). It is enforced by the
	// prober, which receives it via TCPProber; custom probers enforce their
	// own.
	Timeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a target
	// down (default 3).
	FailThreshold int
	// SuccessThreshold is how many consecutive probe successes mark a down
	// target up again (default 2).
	SuccessThreshold int
	// BackoffBase is the first re-probe interval after a target goes down;
	// it doubles on every further failure (default Interval).
	BackoffBase time.Duration
	// BackoffMax caps the down-target probe interval (default 8×Interval).
	BackoffMax time.Duration
	// Jitter spreads probe times by ±Jitter fraction of the interval
	// (default 0 — fully deterministic; production configs typically use
	// 0.1–0.3 to avoid synchronized probe storms).
	Jitter float64
	// Seed seeds the jitter RNG so jittered schedules are reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 500 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.SuccessThreshold <= 0 {
		o.SuccessThreshold = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = o.Interval
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 8 * o.Interval
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.Jitter > 1 {
		o.Jitter = 1
	}
	return o
}

// Prober checks one target; a nil error means healthy. Probers must bound
// their own latency (see Options.Timeout).
type Prober func(target string) error

// TCPProber returns a Prober that dials the target's TCP endpoint. Targets
// may be bare host:port pairs or URLs ("http://host:port/path"); the
// connection is closed immediately — reachability is the health signal,
// matching the paper's fail-stop cluster model.
func TCPProber(timeout time.Duration) Prober {
	if timeout <= 0 {
		timeout = time.Second
	}
	return func(target string) error {
		conn, err := net.DialTimeout("tcp", HostPort(target), timeout)
		if err != nil {
			return err
		}
		return conn.Close()
	}
}

// HostPort extracts the host:port from a backend target, stripping an
// optional scheme and path.
func HostPort(target string) string {
	rest := target
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// targetState is one backend's detector state.
type targetState struct {
	up         bool
	consecFail int
	consecOK   int
	nextProbe  time.Duration // next due time on the checker clock
	backoff    time.Duration // current down-target re-probe interval
}

// Checker runs active health probes against a set of targets and reports
// up/down transitions. All state transitions happen inside Advance, which a
// wall-clock loop (Start) or a virtual-time driver calls; transition
// callbacks run synchronously from Advance, outside the checker's lock.
type Checker struct {
	opts  Options
	probe Prober

	mu      sync.Mutex
	targets map[string]*targetState
	order   []string // stable probe order for determinism
	rng     *rand.Rand

	onTransition func(target string, up bool)

	probes   atomic.Uint64
	failures atomic.Uint64
	wentDown atomic.Uint64
	wentUp   atomic.Uint64

	stop     chan struct{}
	wake     chan struct{}
	stopOnce sync.Once
	started  time.Time
	wg       sync.WaitGroup
}

// New builds a checker. Targets start in the up state and are probed from
// time zero on the checker's clock.
func New(opts Options, probe Prober) *Checker {
	o := opts.withDefaults()
	return &Checker{
		opts:    o,
		probe:   probe,
		targets: make(map[string]*targetState),
		rng:     rand.New(rand.NewSource(o.Seed + 1)),
		stop:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
	}
}

// OnTransition installs the up/down callback. Install before Start (or the
// first Advance); the callback runs on the probing goroutine.
func (c *Checker) OnTransition(fn func(target string, up bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTransition = fn
}

// Watch adds targets (idempotent). New targets are considered up and become
// due immediately.
func (c *Checker) Watch(targets ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range targets {
		if _, ok := c.targets[t]; ok {
			continue
		}
		c.targets[t] = &targetState{up: true, backoff: c.opts.BackoffBase}
		c.order = append(c.order, t)
	}
	c.poke()
}

// Up reports whether the target is currently considered healthy. Unknown
// targets are up: a backend nobody watches is never skipped.
func (c *Checker) Up(target string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.targets[target]
	return !ok || st.up
}

// Snapshot returns the current up/down view of every watched target.
func (c *Checker) Snapshot() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.targets))
	for t, st := range c.targets {
		out[t] = st.up
	}
	return out
}

// Probes reports total probes run; each one counted is already folded into
// its target's state.
func (c *Checker) Probes() uint64 { return c.probes.Load() }

// Failures reports how many probes failed.
func (c *Checker) Failures() uint64 { return c.failures.Load() }

// Transitions reports cumulative down and up transitions.
func (c *Checker) Transitions() (down, up uint64) {
	return c.wentDown.Load(), c.wentUp.Load()
}

// ReportFailure feeds a passive failure observation (a data-path dial or
// request error) into the detector, exactly as if a scheduled probe had
// failed at time now. Front-ends use it so real traffic accelerates
// detection between probes.
func (c *Checker) ReportFailure(target string, now time.Duration) {
	c.apply(target, false, now)
}

// Advance runs every probe due at now and returns the next due time
// (now+Interval when nothing is watched). It is the deterministic core:
// virtual-time drivers call it directly; Start calls it from a wall-clock
// loop. Probes run outside the checker lock, sequentially in Watch order.
func (c *Checker) Advance(now time.Duration) time.Duration {
	c.mu.Lock()
	var due []string
	for _, t := range c.order {
		if c.targets[t].nextProbe <= now {
			due = append(due, t)
		}
	}
	c.mu.Unlock()

	for _, t := range due {
		err := c.probe(t)
		c.apply(t, err == nil, now)
		// Counted once recorded: a counted probe's result is visible to Up.
		if err != nil {
			c.failures.Add(1)
		}
		c.probes.Add(1)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	next := time.Duration(-1)
	for _, st := range c.targets {
		if next < 0 || st.nextProbe < next {
			next = st.nextProbe
		}
	}
	if next < 0 {
		next = now + c.opts.Interval
	}
	return next
}

// apply folds one probe outcome into the detector and fires the transition
// callback outside the lock.
func (c *Checker) apply(target string, ok bool, now time.Duration) {
	c.mu.Lock()
	st, known := c.targets[target]
	if !known {
		c.mu.Unlock()
		return
	}
	var transitioned bool
	var nowUp bool
	if ok {
		st.consecOK++
		st.consecFail = 0
		st.backoff = c.opts.BackoffBase
		st.nextProbe = now + c.jitteredLocked(c.opts.Interval)
		if !st.up && st.consecOK >= c.opts.SuccessThreshold {
			st.up = true
			transitioned, nowUp = true, true
			c.wentUp.Add(1)
		}
	} else {
		st.consecFail++
		st.consecOK = 0
		if st.up {
			// Still up: keep probing at the base interval until the failure
			// threshold trips.
			st.nextProbe = now + c.jitteredLocked(c.opts.Interval)
			if st.consecFail >= c.opts.FailThreshold {
				st.up = false
				transitioned, nowUp = true, false
				c.wentDown.Add(1)
				st.backoff = c.opts.BackoffBase
				st.nextProbe = now + c.jitteredLocked(st.backoff)
			}
		} else {
			// Already down: exponential backoff keeps dead backends cheap.
			st.backoff *= 2
			if st.backoff > c.opts.BackoffMax {
				st.backoff = c.opts.BackoffMax
			}
			st.nextProbe = now + c.jitteredLocked(st.backoff)
		}
	}
	fn := c.onTransition
	c.mu.Unlock()
	if transitioned && fn != nil {
		fn(target, nowUp)
	}
}

// jitteredLocked spreads d by ±Jitter. Callers hold c.mu.
func (c *Checker) jitteredLocked(d time.Duration) time.Duration {
	if c.opts.Jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + c.opts.Jitter*(2*c.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// Start launches the wall-clock probe loop. Stop terminates it.
func (c *Checker) Start() {
	c.mu.Lock()
	if c.started.IsZero() {
		c.started = time.Now()
	}
	start := c.started
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			next := c.Advance(time.Since(start))
			d := next - time.Since(start)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer := time.NewTimer(d)
			select {
			case <-c.stop:
				timer.Stop()
				return
			case <-c.wake:
				timer.Stop()
			case <-timer.C:
			}
		}
	}()
}

// poke wakes the wall-clock loop early (new targets). Callers hold c.mu.
func (c *Checker) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Stop halts the wall-clock loop and waits for it. Idempotent; safe even if
// Start was never called.
func (c *Checker) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}
