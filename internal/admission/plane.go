// Package admission is the sharded, contention-free admission layer both
// network data planes sit on. The core window scheduler (core.Redirector)
// stays single-owner and lock-protected, but it only runs once per window;
// this package makes the per-request path — the thing on every client's
// critical path (§2, §4 of the paper) — free of shared mutexes.
//
// The design is credit sharding with work stealing:
//
//   - New publishes window 0's credits — the redirector's blind grant, armed
//     at construction — so a plane admits from the moment it exists.
//   - At each window boundary the freshly scheduled credits are split evenly
//     across GOMAXPROCS-aligned shards. A steady-state admit is one CAS on a
//     cache-line-padded credit cell belonging to the caller's shard.
//   - When a shard's local cell runs dry the admit falls onto a slower
//     refill path that steals credit from sibling shards (taking at least
//     half of the richest sibling cell), so imbalance between shards costs
//     extra CASes, never wrongly rejected requests.
//   - Window swap is an atomic pointer flip: the boundary publishes the next
//     window's credit pool *before* retiring the old one, so in-flight
//     admits never stall on the boundary. Retirement poisons every old cell
//     with a reserved bit pattern, which atomically recovers the exact
//     unused credit for the scheduler's ≤1-request carry.
//   - The plane owns two pools and alternates them: the one retired at the
//     last boundary — every cell poison — is re-armed cell by cell for the
//     next window, so a boundary allocates nothing. An admit still holding
//     the re-armed pool from two windows back finds each cell either poison
//     (it reloads the current pool) or live (it draws credit that window was
//     granted); its verdict that a principal is dry carries the generation it
//     was reached in and lapses when the pool is re-armed (DESIGN.md §11).
//   - Arrivals and admissions are counted on per-shard cumulative atomics
//     and folded into the core redirector as one aggregate sample per window
//     (and folded again, without locks, at metrics scrape time).
//
// Conformance note: the carry recovered from a retired pool is applied one
// window late (pool w's leftover funds window w+2), because the new pool
// must be published before the old one can be drained. The carry clamps at
// one request per cell either way, so the auditor's floor/ceiling bounds are
// unaffected; the delay is documented in DESIGN.md §11.
package admission

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// poisonBits is the reserved credit-cell bit pattern meaning "this pool is
// retired". It is a quiet NaN payload no live credit value can take (credit
// arithmetic never produces NaN), so a CAS to poison is an unambiguous,
// exactly-once handoff of the cell's remaining value.
const poisonBits = 0x7ff8_0000_0000_0001

// epsilon under-shoots credit comparisons so float drift cannot reject a
// request the scheduler granted (same tolerance as core.AdmitCost).
const epsilon = 1e-9

// cell is one atomically updated float64 credit counter.
type cell struct{ bits atomic.Uint64 }

// load returns the cell value; closed reports a retired pool.
func (c *cell) load() (v float64, closed bool) {
	b := c.bits.Load()
	if b == poisonBits {
		return 0, true
	}
	return math.Float64frombits(b), false
}

// tryDraw atomically subtracts cost when the cell holds at least cost.
func (c *cell) tryDraw(cost float64) (drawn, closed bool) {
	for {
		b := c.bits.Load()
		if b == poisonBits {
			return false, true
		}
		v := math.Float64frombits(b)
		if v < cost-epsilon {
			return false, false
		}
		if c.bits.CompareAndSwap(b, math.Float64bits(v-cost)) {
			return true, false
		}
	}
}

// deposit atomically adds v; it reports false (value dropped) on a retired
// cell — losing a partial steal to a concurrent retirement is conservative.
func (c *cell) deposit(v float64) bool {
	for {
		b := c.bits.Load()
		if b == poisonBits {
			return false
		}
		nv := math.Float64frombits(b) + v
		if c.bits.CompareAndSwap(b, math.Float64bits(nv)) {
			return true
		}
	}
}

// retire poisons the cell and returns the value it held. Exactly one caller
// observes the pre-poison value; later calls get 0.
func (c *cell) retire() float64 {
	for {
		b := c.bits.Load()
		if b == poisonBits {
			return 0
		}
		if c.bits.CompareAndSwap(b, poisonBits) {
			return math.Float64frombits(b)
		}
	}
}

// counter is a monotone cumulative float64 sum (arrival/admission cost
// accounting). Unlike cell it is never poisoned.
type counter struct{ bits atomic.Uint64 }

func (c *counter) add(v float64) {
	for {
		b := c.bits.Load()
		nv := math.Float64frombits(b) + v
		if c.bits.CompareAndSwap(b, math.Float64bits(nv)) {
			return
		}
	}
}

func (c *counter) load() float64 { return math.Float64frombits(c.bits.Load()) }

// shard carries one shard's cumulative counters. Shards are persistent
// (pools are per-window, shards are not) so metric scrapes and window folds
// read deltas off the same monotone counters without coordination. The pad
// keeps adjacent shards' decision counters off one cache line; the float
// counters live in per-shard allocations of their own.
type shard struct {
	arrivals []counter // per principal, cost units
	admitted []counter // per principal, cost units
	admits   atomic.Uint64
	rejects  atomic.Uint64
	steals   atomic.Uint64
	_        [64]byte
}

// creditShard is one shard's slice of a window's credit pool.
type creditShard struct {
	// comm[p*n+k]: Community credits for principal p toward owner k.
	comm []cell
	// prov[p]: Provider credits for principal p.
	prov []cell
	_    [64]byte
}

// pool is one window's credit state. Immutable shape; cells mutate via CAS.
// The plane re-arms a retired pool for a later window instead of allocating
// a new one, so an admit can hold a pool across its retirement and re-arming.
type pool struct {
	mode   core.Mode
	n      int
	owner  agreement.Principal // Provider-mode server owner
	shards []creditShard
	// gen numbers the window the pool is armed for; the plane never reuses
	// a value. It changes before the first cell of a re-arming is stored.
	gen atomic.Uint64
	// dry[p] short-circuits rejects once a full steal sweep has seen no
	// credit anywhere for principal p, so saturated principals cost one
	// atomic load per reject instead of a shard scan. It holds the
	// generation the sweep started in and counts only while that is still
	// the pool's: a sweep that outlived its window marks nothing.
	dry []atomic.Uint64
}

// isDry reports whether a sweep of the pool's current generation found
// principal p without credit.
func (cp *pool) isDry(p int) bool { return cp.dry[p].Load() == cp.gen.Load() }

// Config parameterizes a Plane.
type Config struct {
	// Redirector is the window scheduler the plane fronts. The plane owns
	// its credit state between StartWindow calls; callers must route all
	// admissions through the plane (never core.AdmitCost directly) and keep
	// calling the plane's StartWindow from the goroutine that owns the
	// redirector's window loop.
	Redirector *core.Redirector
	// Engine is the redirector's engine (mode, principal count).
	Engine *core.Engine
	// Shards is the credit shard count; 0 picks GOMAXPROCS.
	Shards int
}

// Plane is the sharded admission layer. Admit* methods are safe for
// unbounded concurrency and acquire no shared mutexes on the steady-state
// path; StartWindow must be called by one goroutine at a time (the window
// loop that owns the underlying core.Redirector).
type Plane struct {
	red     *core.Redirector
	mode    core.Mode
	n       int
	owner   agreement.Principal
	nshards int

	shards []shard
	cur    atomic.Pointer[pool]
	// pools are the two credit pools the plane alternates between: cur is
	// one of them, the other was retired at the last boundary (every cell
	// poison) and is the next to be armed. gen numbers the armings.
	pools [2]*pool
	gen   uint64

	// mu serializes window boundaries only; no request-path method takes it.
	mu sync.Mutex
	// Fold bookkeeping: last cumulative counter values per shard (under mu).
	lastArr [][]float64
	lastAdm [][]float64
	lastDec []deciderLast
	arrBuf  []float64
	admBuf  []float64
	// Carry bookkeeping: credit recovered from the pool retired at the
	// previous boundary, imported into the scheduler one window late.
	remMatrix [][]float64
	remTotal  []float64
	// Export scratch for the freshly scheduled credits.
	expMatrix [][]float64
	expTotal  []float64
}

type deciderLast struct {
	admits, rejects uint64
}

// hints hands out shard hints with per-P (per-core) affinity: a sync.Pool
// is the only runtime-blessed way to reach per-P state, and Get/Put of a tiny
// box is allocation-free in steady state. New fires only when a P has no
// cached box, numbering boxes round-robin; a plane reduces the number modulo
// its shard count. The pool is package-level on purpose: the runtime keeps
// every pool it has seen reachable for up to two GC cycles, and a pool
// embedded in a Plane (or a New closure over one) would keep a dropped plane
// — and the redirector and engine behind it — alive that long.
var (
	hints   = sync.Pool{New: func() any { return &shardHint{s: hintSeq.Add(1) - 1} }}
	hintSeq atomic.Uint32
)

type shardHint struct{ s uint32 }

// New builds a Plane over the given redirector/engine pair and publishes
// window 0: the first pool is armed with the credit the redirector holds
// (its blind grant, see core.Engine.NewRedirector), so admits succeed from
// the moment New returns. Restore durable state into the redirector first.
func New(cfg Config) (*Plane, error) {
	if cfg.Redirector == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("admission: Redirector and Engine are required")
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = runtime.GOMAXPROCS(0)
	}
	n := cfg.Engine.NumPrincipals()
	pl := &Plane{
		red:       cfg.Redirector,
		mode:      cfg.Engine.Mode(),
		n:         n,
		owner:     cfg.Engine.ProviderPrincipal(),
		nshards:   ns,
		shards:    make([]shard, ns),
		lastArr:   make([][]float64, ns),
		lastAdm:   make([][]float64, ns),
		lastDec:   make([]deciderLast, ns),
		arrBuf:    make([]float64, n),
		admBuf:    make([]float64, n),
		remMatrix: newMatrix(n),
		remTotal:  make([]float64, n),
		expMatrix: newMatrix(n),
		expTotal:  make([]float64, n),
	}
	for s := range pl.shards {
		pl.shards[s].arrivals = make([]counter, n)
		pl.shards[s].admitted = make([]counter, n)
		pl.lastArr[s] = make([]float64, n)
		pl.lastAdm[s] = make([]float64, n)
	}
	// The first pool goes live with window 0's grant; the spare starts as a
	// retired pool is left, every cell poison, but with nothing left over:
	// window 0's unspent credit is pool 0's, collected when it retires.
	pl.pools = [2]*pool{pl.newPool(), pl.newPool()}
	pl.arm(pl.pools[0])
	pl.retire(pl.pools[1])
	pl.cur.Store(pl.pools[0])
	return pl, nil
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// newPool allocates an all-zero pool (fresh cells read as 0 credit). Only New
// calls it: the plane's two pools live as long as the plane.
func (pl *Plane) newPool() *pool {
	p := &pool{
		mode:   pl.mode,
		n:      pl.n,
		owner:  pl.owner,
		shards: make([]creditShard, pl.nshards),
		dry:    make([]atomic.Uint64, pl.n),
	}
	for s := range p.shards {
		if pl.mode == core.Community {
			p.shards[s].comm = make([]cell, pl.n*pl.n)
		} else {
			p.shards[s].prov = make([]cell, pl.n)
		}
	}
	return p
}

// Shards reports the configured shard count.
func (pl *Plane) Shards() int { return pl.nshards }

// hint returns the caller's shard index with per-core affinity.
func (pl *Plane) hint() int {
	h := hints.Get().(*shardHint)
	s := int(h.s) % pl.nshards
	hints.Put(h)
	return s
}

// Outcome classifies how an admission decision resolved, for request
// tracing: the fast-path CAS admit, the slow-path steal admit, the
// saturated-principal (dry-flag) reject, and the full-sweep reject.
type Outcome uint8

// Admission outcomes.
const (
	OutcomeReject Outcome = iota
	OutcomeAdmit
	OutcomeSteal
	OutcomeDry
)

// AdmitDetail is the tracing side-channel of an admission decision: which
// path resolved it and on which shard.
type AdmitDetail struct {
	Outcome Outcome
	Shard   int
}

// Admit decides one request from principal p (no owner preference).
func (pl *Plane) Admit(p agreement.Principal) core.Decision {
	return pl.AdmitCost(p, -1, 1)
}

// AdmitPreferring is Admit with connection affinity, mirroring
// core.Redirector.AdmitPreferring.
func (pl *Plane) AdmitPreferring(p, preferred agreement.Principal) core.Decision {
	return pl.AdmitCost(p, preferred, 1)
}

// AdmitCost is the general admission primitive. It records the arrival on
// the caller's shard, then draws credit: local cell first (one CAS), then a
// steal sweep over sibling shards. A pool retired mid-decision (window
// boundary racing the admit) is retried against the successor pool, which
// is always published before retirement begins.
func (pl *Plane) AdmitCost(p, preferred agreement.Principal, cost float64) core.Decision {
	d, _ := pl.AdmitTraced(p, preferred, cost)
	return d
}

// AdmitTraced is AdmitCost plus the tracing detail: the resolving path
// (fast admit, steal, dry reject, sweep reject) and the deciding shard.
// Identical cost to AdmitCost — the detail is assembled from values the
// decision already computed.
func (pl *Plane) AdmitTraced(p, preferred agreement.Principal, cost float64) (core.Decision, AdmitDetail) {
	if int(p) < 0 || int(p) >= pl.n {
		return core.Decision{}, AdmitDetail{Outcome: OutcomeReject, Shard: -1}
	}
	if cost <= 0 {
		cost = 1
	}
	s := pl.hint()
	sh := &pl.shards[s]
	sh.arrivals[int(p)].add(cost)
	var cp *pool
	for tries := 0; tries < 4; tries++ {
		cp = pl.cur.Load()
		owner, ok, stole, closed := cp.admit(s, int(p), int(preferred), cost)
		if closed {
			continue // boundary race: reload the successor pool
		}
		if stole {
			sh.steals.Add(1)
		}
		if ok {
			sh.admitted[int(p)].add(cost)
			sh.admits.Add(1)
			out := OutcomeAdmit
			if stole {
				out = OutcomeSteal
			}
			return core.Decision{Admitted: true, Owner: owner}, AdmitDetail{Outcome: out, Shard: s}
		}
		break
	}
	sh.rejects.Add(1)
	out := OutcomeReject
	// The dry flag distinguishes the saturated-principal reject (whether
	// this decision short-circuited on it or was the sweep that set it).
	if cp != nil && cost <= 1 && cp.isDry(int(p)) {
		out = OutcomeDry
	}
	return core.Decision{}, AdmitDetail{Outcome: out, Shard: s}
}

// admit runs the decision against this pool. closed reports that the pool
// was retired before the decision landed (neither admitted nor rejected).
func (cp *pool) admit(s, p, preferred int, cost float64) (owner agreement.Principal, ok, stole, closed bool) {
	// Saturated principal: two atomic loads, no scan. Oversized requests
	// (cost > 1) still scan — dryness is recorded against unit cost.
	gen := cp.gen.Load()
	if cp.dry[p].Load() == gen && cost <= 1 {
		return 0, false, false, false
	}
	if cp.mode == core.Provider {
		return cp.admitProvider(s, p, cost, gen)
	}
	return cp.admitCommunity(s, p, preferred, cost, gen)
}

// admitProvider and admitCommunity take the generation admit read before it
// looked at any cell: a dry verdict is stamped with it.
func (cp *pool) admitProvider(s, p int, cost float64, gen uint64) (agreement.Principal, bool, bool, bool) {
	drawn, closed := cp.shards[s].prov[p].tryDraw(cost)
	if closed {
		return 0, false, false, true
	}
	if drawn {
		return cp.owner, true, false, false
	}
	ok, closed, seen := cp.steal(s, cost, func(sib *creditShard) *cell { return &sib.prov[p] })
	if closed {
		return 0, false, false, true
	}
	if !ok && seen < epsilon && cost <= 1 {
		cp.dry[p].Store(gen)
	}
	return cp.owner, ok, ok, false
}

func (cp *pool) admitCommunity(s, p, preferred int, cost float64, gen uint64) (agreement.Principal, bool, bool, bool) {
	sh := &cp.shards[s]
	row := sh.comm[p*cp.n : (p+1)*cp.n]
	if preferred >= 0 && preferred < cp.n {
		drawn, closed := row[preferred].tryDraw(cost)
		if closed {
			return 0, false, false, true
		}
		if drawn {
			return agreement.Principal(preferred), true, false, false
		}
	}
	// Best-funded local owner; two attempts tolerate CAS races before
	// falling to the steal path.
	for attempt := 0; attempt < 2; attempt++ {
		best, bestV := -1, 0.0
		for k := 0; k < cp.n; k++ {
			v, closed := row[k].load()
			if closed {
				return 0, false, false, true
			}
			if v > bestV {
				best, bestV = k, v
			}
		}
		if best < 0 || bestV < cost-epsilon {
			break
		}
		if drawn, closed := row[best].tryDraw(cost); closed {
			return 0, false, false, true
		} else if drawn {
			return agreement.Principal(best), true, false, false
		}
	}
	// Steal sweep, preferred owner's cells first so affinity survives
	// shard imbalance.
	totalSeen := 0.0
	for i := -1; i < cp.n; i++ {
		k := i
		if i < 0 {
			k = preferred // the sweep's first stop, when there is one
		}
		if k < 0 || k >= cp.n || (i >= 0 && k == preferred) {
			continue
		}
		ok, closed, seen := cp.steal(s, cost, func(sib *creditShard) *cell { return &sib.comm[p*cp.n+k] })
		if closed {
			return 0, false, false, true
		}
		if ok {
			return agreement.Principal(k), true, true, false
		}
		totalSeen += seen
	}
	// Nothing anywhere: mark the principal dry for this pool (unit cost
	// only — a large request failing does not prove small ones will).
	if totalSeen < epsilon && cost <= 1 {
		cp.dry[p].Store(gen)
	}
	return 0, false, false, false
}

// steal is the slow-path refill: a gathering sweep over every shard's cell
// for one (principal, owner) credit line, starting with the caller's own
// (off == 0 re-drains the partial credit the fast path could not use). Each
// donor is drained only as far as needed — a donor that can finish the
// request alone gives up max(need, half its value) so the excess refills the
// caller's cell and a hot shard stops sweeping. Gathering partial cells
// matters for conformance: per-shard splitting fragments fractional credits
// below unit cost, and without aggregation those fragments would be stranded
// (up to shards−1 admissions per principal per window — enough to trip the
// under-floor audit). A sweep that still comes up short deposits what it
// gathered back into the caller's cell, consolidating fragments for the next
// request. seen reports the credit observed during a failed sweep (dryness
// detection); closed reports a pool retirement racing the sweep, which drops
// any gathered credit — conservative, and bounded by one request plus one
// cell.
func (cp *pool) steal(s int, cost float64, pick func(*creditShard) *cell) (ok, closed bool, seen float64) {
	gathered := 0.0
	home := pick(&cp.shards[s])
	for off := 0; off < len(cp.shards); off++ {
		c := pick(&cp.shards[(s+off)%len(cp.shards)])
		for {
			b := c.bits.Load()
			if b == poisonBits {
				return false, true, 0
			}
			v := math.Float64frombits(b)
			if v <= 0 {
				break
			}
			need := cost - gathered
			take := v
			if v >= need {
				take = v / 2
				if take < need {
					take = need
				}
			}
			if !c.bits.CompareAndSwap(b, math.Float64bits(v-take)) {
				continue // donor changed; re-read it
			}
			gathered += take
			seen += v
			break
		}
		if gathered >= cost-epsilon {
			if excess := gathered - cost; excess > epsilon {
				// A failed deposit (pool retired mid-steal) drops the
				// excess — conservative, and bounded by one cell's value.
				_ = home.deposit(excess)
			}
			return true, false, seen
		}
	}
	if gathered > 0 {
		_ = home.deposit(gathered)
	}
	return false, false, seen
}

// StartWindow runs one window boundary: fold shard counters into the
// scheduler, re-import the late carry, schedule the next window, arm the
// spare pool with its credits and publish it, then retire the old pool and
// collect its leftover for the *next* boundary's carry. Errors come from the
// scheduler's LP solve; the plane still flips pools (re-arming the previous
// window's leftover credits, the same fail-static behavior core has). Must be
// called from the goroutine that owns the redirector's window loop.
func (pl *Plane) StartWindow(now time.Duration) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.foldLocked()
	if pl.mode == core.Community {
		pl.red.ImportCredits(pl.remMatrix, nil)
	} else {
		pl.red.ImportCredits(nil, pl.remTotal)
	}
	err := pl.red.StartWindow(now)
	old := pl.cur.Load()
	next := pl.pools[0]
	if next == old {
		next = pl.pools[1]
	}
	pl.arm(next)
	pl.cur.Store(next)
	pl.retire(old)
	return err
}

// foldLocked delivers one aggregate window sample (deltas of the cumulative
// shard counters) to the core redirector.
func (pl *Plane) foldLocked() {
	for i := range pl.arrBuf {
		pl.arrBuf[i], pl.admBuf[i] = 0, 0
	}
	var admits, rejects uint64
	for s := range pl.shards {
		sh := &pl.shards[s]
		for p := 0; p < pl.n; p++ {
			a := sh.arrivals[p].load()
			pl.arrBuf[p] += a - pl.lastArr[s][p]
			pl.lastArr[s][p] = a
			m := sh.admitted[p].load()
			pl.admBuf[p] += m - pl.lastAdm[s][p]
			pl.lastAdm[s][p] = m
		}
		ad, rj := sh.admits.Load(), sh.rejects.Load()
		admits += ad - pl.lastDec[s].admits
		rejects += rj - pl.lastDec[s].rejects
		pl.lastDec[s].admits, pl.lastDec[s].rejects = ad, rj
	}
	pl.red.AddWindowSample(pl.arrBuf, pl.admBuf, int(admits), int(rejects))
}

// arm gives a pool a new generation, exports the scheduler's fresh credits
// and stores an even split of them into the pool's cells, live or poison. The
// generation goes first, so a dry mark left by, or still to come from, an
// admit of an earlier arming can never match it.
func (pl *Plane) arm(p *pool) {
	pl.gen++
	p.gen.Store(pl.gen)
	if pl.mode == core.Community {
		pl.red.ExportCredits(pl.expMatrix, nil)
	} else {
		pl.red.ExportCredits(nil, pl.expTotal)
	}
	inv := 1 / float64(pl.nshards)
	for s := range p.shards {
		sh := &p.shards[s]
		if pl.mode == core.Community {
			for i := 0; i < pl.n; i++ {
				for k, v := range pl.expMatrix[i] {
					sh.comm[i*pl.n+k].bits.Store(math.Float64bits(v * inv))
				}
			}
		} else {
			for i, v := range pl.expTotal {
				sh.prov[i].bits.Store(math.Float64bits(v * inv))
			}
		}
	}
}

// retire poisons every cell of a pool; the credit the cells still held
// replaces remMatrix/remTotal — the carry the next boundary imports.
func (pl *Plane) retire(p *pool) {
	for i := range pl.remMatrix {
		for k := range pl.remMatrix[i] {
			pl.remMatrix[i][k] = 0
		}
		pl.remTotal[i] = 0
	}
	for s := range p.shards {
		sh := &p.shards[s]
		for c := range sh.comm {
			pl.remMatrix[c/pl.n][c%pl.n] += sh.comm[c].retire()
		}
		for c := range sh.prov {
			pl.remTotal[c] += sh.prov[c].retire()
		}
	}
}

// Counts folds the per-shard decision counters at read time (metrics
// scrapes, stats handlers) without touching any lock.
func (pl *Plane) Counts() (admits, rejects uint64) {
	for s := range pl.shards {
		admits += pl.shards[s].admits.Load()
		rejects += pl.shards[s].rejects.Load()
	}
	return admits, rejects
}

// Steals folds the per-shard steal counters (slow-path refills).
func (pl *Plane) Steals() uint64 {
	var n uint64
	for s := range pl.shards {
		n += pl.shards[s].steals.Load()
	}
	return n
}

// CountersSnapshot freezes the plane's decision counters into a flat map —
// the admission-shard view a flight-recorder capture embeds: fleet totals
// plus per-shard admit/reject/steal counts (shard imbalance is itself a
// tail-latency signal).
func (pl *Plane) CountersSnapshot() map[string]float64 {
	out := make(map[string]float64, 3+3*len(pl.shards))
	var admits, rejects, steals uint64
	for s := range pl.shards {
		sh := &pl.shards[s]
		a, r, st := sh.admits.Load(), sh.rejects.Load(), sh.steals.Load()
		admits, rejects, steals = admits+a, rejects+r, steals+st
		out[fmt.Sprintf("shard%d_admits", s)] = float64(a)
		out[fmt.Sprintf("shard%d_rejects", s)] = float64(r)
		out[fmt.Sprintf("shard%d_steals", s)] = float64(st)
	}
	out["admits"] = float64(admits)
	out["rejects"] = float64(rejects)
	out["steals"] = float64(steals)
	return out
}

// CreditsRemaining sums principal p's live credit across all shards of the
// current pool (diagnostics and tests; racy by nature).
func (pl *Plane) CreditsRemaining(p agreement.Principal) float64 {
	if int(p) < 0 || int(p) >= pl.n {
		return 0
	}
	cp := pl.cur.Load()
	total := 0.0
	for s := range cp.shards {
		if cp.mode == core.Community {
			for k := 0; k < cp.n; k++ {
				v, _ := cp.shards[s].comm[int(p)*cp.n+k].load()
				total += v
			}
		} else {
			v, _ := cp.shards[s].prov[int(p)].load()
			total += v
		}
	}
	return total
}
