// Package l4 is the transport-layer (Layer-4) prototype of §4.2 on real
// sockets. The paper's implementation is a Linux Virtual Server kernel
// module doing NAT; here the same scheduling-relevant behavior runs in user
// space:
//
//   - one listener per principal plays the role of the per-customer virtual
//     IP the NAT switch matches on;
//   - an accepted connection is the SYN: admission is decided at accept
//     time against the window credits — through the sharded admission plane
//     (internal/admission), so concurrent accepts never serialize on a
//     shared mutex;
//   - admitted connections are spliced byte-for-byte to a backend (the NAT
//     rewrite) by the kernel's splice(2) when both ends are TCP, through a
//     pooled 32 KiB buffer otherwise, preserving client→server affinity to
//     the extent the agreements allow;
//   - connections over quota are parked in sharded pending queues and
//     reinjected in later windows, exactly like the paper's kernel thread
//     re-queuing packets.
package l4

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

// ServiceSpec binds a listener (virtual IP analogue) to a principal.
type ServiceSpec struct {
	Principal agreement.Principal
	// Addr is the listen address; use "127.0.0.1:0" for tests.
	Addr string
}

// Config parameterizes a Layer-4 redirector.
type Config struct {
	Engine *core.Engine
	ID     int
	// Services lists the per-principal listeners.
	Services []ServiceSpec
	// Backends maps owner principals to backend TCP addresses.
	Backends map[agreement.Principal][]string
	// MaxPending bounds each principal's pending-connection queue
	// (default 512); beyond it new over-quota connections are dropped.
	MaxPending int
	// PendingTimeout closes connections parked longer than this
	// (default 5 s).
	PendingTimeout time.Duration
	// AdmissionShards sets the admission plane's credit shard count
	// (0 selects GOMAXPROCS; see internal/admission).
	AdmissionShards int
	// Tree, if non-nil, joins a combining tree of redirectors.
	Tree *treenet.Spec
	// TraceDepth is the window-trace ring capacity served at
	// /v1/debug/windows (0 selects obs.DefaultRingDepth). The Layer-4
	// switch has no HTTP server of its own; mount ObsHandler on an admin
	// listener to scrape it.
	TraceDepth int
	// Trace, if non-nil, enables request-span tracing: per-connection phase
	// timestamps (admit, park, dial, first byte, close) recorded with zero
	// allocations, head-sampled plus slowest-K-per-window, served at
	// /v1/debug/trace on the ObsHandler.
	Trace *obs.TraceConfig
	// Flight, if non-nil, arms the SLO flight recorder: an under-floor
	// settled window or a span breaching Flight.SLO freezes a bounded
	// capture (span ring + window records + admission shard counters)
	// served at /v1/debug/flight. Requires Trace.
	Flight *obs.FlightConfig
	// Health, if non-nil, enables active backend health checking: down
	// backends are skipped by backend choice and every down/up transition
	// re-interprets the agreements against the surviving capacity.
	Health *health.Options
	// Ctrl, if true, attaches the dynamic agreement control plane to the
	// ObsHandler admin surface (/v1/agreements, /v1/principals/...). With
	// a tree, accepted mutations are epoch-gated and piggybacked on this
	// node's downward broadcasts — enable Ctrl on the tree root only.
	Ctrl bool
	// CtrlLead is the rollout gate lead in tree epochs (<=0 selects
	// ctrlplane.DefaultLead). Ignored unless Ctrl is set.
	CtrlLead int
	// Persist, if non-nil, arms the durable-state plane (internal/persist):
	// at boot the switch restores its window position, carried credit,
	// demand estimate and newest agreement set from the store, announces a
	// tree rejoin from the durable epoch, and resumes appending one record
	// per window. The caller owns the store's lifecycle; Close checkpoints
	// but does not close it.
	Persist *persist.Store
}

// flow is one client connection from accept to close. It is parked,
// re-parked and launched as one value, and carries the join of its two
// splice halves.
type flow struct {
	conn     net.Conn
	client   netip.Addr
	svc      agreement.Principal
	accepted time.Time // PendingTimeout counts from here, across re-parks
	parkedAt time.Time // start of the current park, for the span's park time
	span     *obs.Span // nil when the request was not sampled for tracing
	backend  string
	halves   sync.WaitGroup
}

// pendShard is one stripe of the parked-connection state, indexed by
// principal. Parking and reinjection lock one stripe at a time, so the
// accept path never waits on a fleet-wide reinjection pass; reinjection
// swaps q with spare, so neither table is reallocated per window.
type pendShard struct {
	mu       sync.Mutex
	q, spare [][]*flow
	_        [64]byte
}

// Redirector is the Layer-4 switch.
type Redirector struct {
	// Node is the shared enforcement node: admission, window loop, tree,
	// rollout, recovery and the admin surface (internal/node).
	*node.Node

	cfg       Config
	listeners []net.Listener
	svcAddrs  map[agreement.Principal]string

	aff       *affinityCache
	pend      []pendShard
	pendCount []atomic.Int64 // parked connections per principal (MaxPending bound)
	parkSeq   atomic.Uint32  // round-robin park stripe cursor
	dials     dialDeadline

	stopped atomic.Bool // Close drained the pending queues
	wg      sync.WaitGroup

	// Stats (atomic; admitted/rejected counts live in the admission plane).
	parked       atomic.Int64
	dropped      atomic.Int64
	expired      atomic.Int64
	dialFailures atomic.Int64 // backend dials that failed after admission
	reparked     atomic.Int64 // connections returned to pending after a failed dial
	copyErrIn    atomic.Int64 // client→backend transport errors mid-splice
	copyErrOut   atomic.Int64 // backend→client transport errors mid-splice
}

// NewRedirector starts the listeners and the window loop.
func NewRedirector(cfg Config) (*Redirector, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("l4: nil engine")
	}
	if len(cfg.Services) == 0 || len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("l4: need services and backends")
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 512
	}
	if cfg.PendingTimeout <= 0 {
		cfg.PendingTimeout = 5 * time.Second
	}
	r := &Redirector{
		cfg:       cfg,
		svcAddrs:  make(map[agreement.Principal]string),
		aff:       newAffinityCache(),
		pendCount: make([]atomic.Int64, cfg.Engine.NumPrincipals()),
	}
	var err error
	r.Node, err = node.New(node.Config{
		Layer: "l4", Engine: cfg.Engine, ID: cfg.ID, Backends: cfg.Backends,
		Tree: cfg.Tree, AdmissionShards: cfg.AdmissionShards,
		TraceDepth: cfg.TraceDepth, Trace: cfg.Trace, Flight: cfg.Flight,
		Health: cfg.Health, Ctrl: cfg.Ctrl, CtrlLead: cfg.CtrlLead,
		Persist: cfg.Persist, Extra: r.extraMetrics,
	})
	if err != nil {
		return nil, err
	}
	r.pend = make([]pendShard, r.Admission().Shards())
	for i := range r.pend {
		r.pend[i].q = make([][]*flow, len(r.pendCount))
		r.pend[i].spare = make([][]*flow, len(r.pendCount))
	}

	for _, svc := range cfg.Services {
		ln, lerr := net.Listen("tcp", svc.Addr)
		if lerr != nil {
			r.Close()
			return nil, fmt.Errorf("l4: listen %s: %w", svc.Addr, lerr)
		}
		r.listeners = append(r.listeners, ln)
		r.svcAddrs[svc.Principal] = ln.Addr().String()
		p := svc.Principal
		r.wg.Add(1)
		go r.acceptLoop(ln, p)
	}

	r.Start(r.reinject)
	return r, nil
}

// Addr returns the listen address serving principal p.
func (r *Redirector) Addr(p agreement.Principal) string { return r.svcAddrs[p] }

func (r *Redirector) acceptLoop(ln net.Listener, p agreement.Principal) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r.handleConn(conn, p)
	}
}

// handleConn is the SYN-time decision: forward now, park, or drop. The
// whole path is mutex-free — affinity lookup on a striped cache, admission
// on the sharded plane, backend choice on an atomic cursor. Tracing adds
// only nil-safe stamp calls on pre-allocated spans (Begin returns nil when
// sampling is off).
func (r *Redirector) handleConn(conn net.Conn, p agreement.Principal) {
	now := time.Now()
	f := &flow{conn: conn, client: clientKey(conn), svc: p, accepted: now, span: r.Begin(p)}
	d, det := r.Admission().AdmitTraced(p, r.aff.lookup(f.client, now), 1)
	node.StampAdmit(f.span, det)
	if !d.Admitted {
		if r.park(f, now) {
			r.parked.Add(1)
		}
		return
	}
	r.forward(f, d.Owner, now)
}

// forward pins an admitted connection's client to its owner and hands the
// connection to a goroutine that dials and splices, or closes it when the
// owner has no live backend.
func (r *Redirector) forward(f *flow, owner agreement.Principal, now time.Time) {
	r.aff.pin(f.client, owner, now)
	f.backend = r.chooseBackend(owner)
	f.span.StampBackend()
	if f.backend == "" {
		f.conn.Close()
		f.span.Finish()
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.spliceOrRepark(f)
	}()
}

// park enqueues an over-quota connection on a pending stripe, holding the
// per-principal MaxPending bound with an atomic count. Returns false when
// the connection was dropped (bound hit or redirector stopped) instead.
// The span (nil when untraced) rides the queue entry; park/drop verdicts
// are stamped here, expiry and reinjection at the reinject pass.
func (r *Redirector) park(f *flow, now time.Time) bool {
	if r.stopped.Load() {
		drop(f)
		return false
	}
	if r.pendCount[f.svc].Add(1) > int64(r.cfg.MaxPending) {
		r.pendCount[f.svc].Add(-1)
		r.dropped.Add(1)
		drop(f)
		return false
	}
	f.span.SetVerdict(obs.VerdictPark)
	f.parkedAt = now
	sh := &r.pend[int(r.parkSeq.Add(1))%len(r.pend)]
	sh.mu.Lock()
	sh.q[f.svc] = append(sh.q[f.svc], f)
	sh.mu.Unlock()
	if r.stopped.Load() {
		// Close raced the enqueue; drain again so the connection cannot
		// leak past shutdown.
		r.drainShard(sh)
	}
	return true
}

// drop closes a connection the switch will not serve.
func drop(f *flow) {
	f.conn.Close()
	f.span.SetVerdict(obs.VerdictDrop)
	f.span.Finish()
}

// drainShard closes and forgets every connection parked on the stripe.
func (r *Redirector) drainShard(sh *pendShard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for p, queue := range sh.q {
		for _, f := range queue {
			drop(f)
		}
		r.pendCount[p].Add(-int64(len(queue)))
		clear(queue)
		sh.q[p] = queue[:0]
	}
}

// chooseBackend round-robins over the owner's backends, skipping ones the
// health checker holds down. Safe without the node mutex: the cursor is
// atomic and the checker locks internally.
func (r *Redirector) chooseBackend(owner agreement.Principal) string {
	backends := r.cfg.Backends[owner]
	for range backends {
		b := backends[r.NextBackend(owner)%len(backends)]
		if r.BackendUp(b) {
			return b
		}
	}
	return ""
}

// dialer dials every backend; the bound comes from the dial's context.
var dialer net.Dialer

// dialSlice is how long one deadline context is handed out to dials. Its
// deadline lies two slices after it was made, so every dial is bounded by
// one to two slices (1–2 s), and a context with its timer is made once per
// slice instead of once per dial.
const dialSlice = time.Second

// dialDeadline holds the current slice's shared deadline context.
type dialDeadline struct {
	mu     sync.Mutex
	ctx    context.Context
	until  time.Time // the last instant ctx is handed out
	cancel context.CancelFunc
}

// get returns the deadline context for a dial starting at now. A replaced
// context is not cancelled: dials of its slice may still be running, and its
// own deadline, at most one slice later, releases it.
func (d *dialDeadline) get(now time.Time) context.Context {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ctx == nil || now.After(d.until) {
		d.ctx, d.cancel = context.WithDeadline(context.Background(), now.Add(2*dialSlice))
		d.until = now.Add(dialSlice)
	}
	return d.ctx
}

// spliceOrRepark dials the backend and splices. A failed dial is not a
// silent connection drop: the failure feeds the health checker and the
// untouched client connection goes back to the pending queue (respecting
// MaxPending) for reinjection toward a healthier backend next window. It
// keeps its accept time, so PendingTimeout bounds its whole stay: a backend
// that never answers cannot hold it, and a credit per window, forever.
func (r *Redirector) spliceOrRepark(f *flow) {
	backend, err := dialer.DialContext(r.dials.get(time.Now()), "tcp", f.backend)
	if err != nil {
		r.ReportFailure(f.backend)
		r.dialFailures.Add(1)
		if r.park(f, time.Now()) {
			r.reparked.Add(1)
		}
		return
	}
	f.span.StampDial()
	r.splice(f, backend)
}

// copyBufs pools the buffers of splice halves that the kernel cannot move:
// a non-TCP destination, and the traced first-byte read. 32 KiB is io.Copy's
// own default.
var copyBufs = sync.Pool{
	New: func() any { b := make([]byte, 32<<10); return &b },
}

// splice is the NAT analogue: copy bytes both ways until either side closes,
// propagating the client's half-close to the backend. A traced connection
// stamps first-byte on the backend→client direction and finishes its span
// once both halves drain.
func (r *Redirector) splice(f *flow, backend net.Conn) {
	f.halves.Add(1)
	go func() {
		defer f.halves.Done()
		copyHalf(backend, f.conn, &r.copyErrIn)
		if hc, ok := backend.(interface{ CloseWrite() error }); ok {
			_ = hc.CloseWrite()
		}
	}()
	if f.span != nil {
		copyHalfFirstByte(f.conn, backend, f.span, &r.copyErrOut)
	} else {
		copyHalf(f.conn, backend, &r.copyErrOut)
	}
	f.halves.Wait()
	backend.Close()
	f.conn.Close()
	f.span.Finish()
}

// copyHalf copies one splice direction until src ends. A *net.TCPConn dst
// takes src through its ReadFrom, where Linux moves the bytes with splice(2)
// and no user-space buffer. io.CopyBuffer reaches the same splice, but tries
// src's WriteTo first, which (since Go 1.22) boxes src in a wrapper on every
// call and never uses the buffer it was given. Any other dst copies through
// a pooled buffer.
func copyHalf(dst, src net.Conn, errCounter *atomic.Int64) {
	var err error
	if tc, ok := dst.(*net.TCPConn); ok {
		_, err = tc.ReadFrom(src)
	} else {
		bp := copyBufs.Get().(*[]byte)
		_, err = io.CopyBuffer(dst, src, *bp)
		copyBufs.Put(bp)
	}
	countCopyErr(err, errCounter)
}

// copyHalfFirstByte is copyHalf for a traced backend→client direction: the
// first read is taken by hand so the span's first-byte stamp lands on real
// response bytes, then copyHalf moves the rest.
func copyHalfFirstByte(dst, src net.Conn, sp *obs.Span, errCounter *atomic.Int64) {
	bp := copyBufs.Get().(*[]byte)
	n, err := src.Read(*bp)
	if n > 0 {
		sp.StampFirstByte()
		if _, werr := dst.Write((*bp)[:n]); werr != nil {
			err = werr
		}
	}
	copyBufs.Put(bp)
	if err != nil {
		countCopyErr(err, errCounter)
		return
	}
	copyHalf(dst, src, errCounter)
}

// countCopyErr classifies how a splice half ended: a clean half-close (EOF,
// or our own shutdown closing the socket) is the normal end of a TCP
// conversation, anything else — connection reset, broken pipe, a timeout —
// is a transport error worth counting.
func countCopyErr(err error, errCounter *atomic.Int64) {
	if err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) {
		errCounter.Add(1)
	}
}

// reinject is the node's per-window hook: once the boundary has scheduled
// the new window it re-admits parked connections against the fresh credits.
// A boundary whose scheduling failed kept last window's (spent) credits, so
// there is nothing to reinject against.
func (r *Redirector) reinject(startErr error) {
	if startErr != nil {
		return
	}
	// Stripe by stripe, oldest parked connections first, while credits last.
	// Only one stripe's lock is held at a time, so the accept path keeps
	// parking concurrently.
	now := time.Now()
	for i := range r.pend {
		r.reinjectShard(&r.pend[i], now)
	}
	r.aff.sweep(now)
}

// reinjectShard re-admits one stripe's parked connections: expired ones are
// closed, admitted ones are forwarded, the rest keep their queue position
// ahead of connections parked meanwhile.
func (r *Redirector) reinjectShard(sh *pendShard, now time.Time) {
	sh.mu.Lock()
	taken := sh.q
	sh.q, sh.spare = sh.spare, nil
	sh.mu.Unlock()

	for p, queue := range taken {
		kept := queue[:0]
		for _, f := range queue {
			if now.Sub(f.accepted) > r.cfg.PendingTimeout {
				// Count before closing: a client that sees the close may
				// read the counters at once.
				r.expired.Add(1)
				r.pendCount[p].Add(-1)
				f.conn.Close()
				f.span.AddPark(now.Sub(f.parkedAt))
				f.span.SetVerdict(obs.VerdictExpire)
				f.span.Finish()
				continue
			}
			d, det := r.Admission().AdmitTraced(f.svc, r.aff.lookup(f.client, now), 1)
			if !d.Admitted {
				kept = append(kept, f)
				continue
			}
			r.pendCount[p].Add(-1)
			f.span.AddPark(now.Sub(f.parkedAt))
			node.StampAdmit(f.span, det)
			r.forward(f, d.Owner, now)
		}
		clear(queue[len(kept):])
		taken[p] = kept
	}

	sh.mu.Lock()
	for p, parked := range sh.q {
		taken[p] = append(taken[p], parked...)
		clear(parked)
		sh.q[p] = parked[:0]
	}
	sh.q, sh.spare = taken, sh.q
	sh.mu.Unlock()
}

// Stats returns the forwarding counters.
func (r *Redirector) Stats() (forwarded, parked, dropped, expired int) {
	admits, _ := r.Admission().Counts()
	return int(admits), int(r.parked.Load()), int(r.dropped.Load()), int(r.expired.Load())
}

// DialStats returns the backend-dial failure counters: dials that failed
// after admission, and how many of those connections were re-parked rather
// than dropped.
func (r *Redirector) DialStats() (dialFailures, reparked int) {
	return int(r.dialFailures.Load()), int(r.reparked.Load())
}

// CopyErrorStats returns the splice transport-error counters per direction
// (client→backend, backend→client). Clean half-closes are not errors.
func (r *Redirector) CopyErrorStats() (in, out int) {
	return int(r.copyErrIn.Load()), int(r.copyErrOut.Load())
}

// extraMetrics writes the Layer-4 forwarding counters to /v1/metrics; the
// node appends the shared admission, health and tree-transport series.
func (r *Redirector) extraMetrics(w io.Writer) {
	forwarded, parked, dropped, expired := r.Stats()
	obs.WriteMetric(w, "rsa_l4_forwarded_total", "counter",
		"Connections admitted and spliced to a backend.", float64(forwarded))
	obs.WriteMetric(w, "rsa_l4_parked_total", "counter",
		"Connections parked in a pending queue for lack of window credit.", float64(parked))
	obs.WriteMetric(w, "rsa_l4_dropped_total", "counter",
		"Connections dropped because a pending queue was full.", float64(dropped))
	obs.WriteMetric(w, "rsa_l4_expired_total", "counter",
		"Parked connections closed after exceeding the pending timeout.", float64(expired))
	dialFailures, reparked := r.DialStats()
	obs.WriteMetric(w, "rsa_l4_dial_failures_total", "counter",
		"Backend dials that failed after a connection was admitted.", float64(dialFailures))
	obs.WriteMetric(w, "rsa_l4_reparked_total", "counter",
		"Admitted connections returned to the pending queue after a failed backend dial.", float64(reparked))
	in, out := r.CopyErrorStats()
	obs.WriteMetricHeader(w, "rsa_l4_copy_errors_total", "counter",
		"Splice copies ended by a transport error rather than a clean half-close, by direction.")
	obs.WriteLabeled(w, "rsa_l4_copy_errors_total", "direction", "client_to_backend", float64(in))
	obs.WriteLabeled(w, "rsa_l4_copy_errors_total", "direction", "backend_to_client", float64(out))
}

// Close stops the node (window loop joined, so no reinjection runs after
// it; transport closed; durable log checkpointed), the listeners and the
// parked connections, and returns the node's first error. It waits for
// in-flight spliced connections to drain, so callers should close or
// deadline long-lived client connections first.
func (r *Redirector) Close() error {
	err := r.Node.Close()
	for _, ln := range r.listeners {
		ln.Close()
	}
	r.stopped.Store(true)
	for i := range r.pend {
		r.drainShard(&r.pend[i])
	}
	r.wg.Wait()
	if r.dials.cancel != nil {
		r.dials.cancel() // every dial has returned
	}
	return err
}

// clientKey is conn's affinity key: the client's IP address, unmapped so an
// IPv4 client reached through a dual-stack listener (::ffff:a.b.c.d) and
// one reached over IPv4 share a pin. Conns that are not TCP share the zero
// key.
func clientKey(conn net.Conn) netip.Addr {
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		return ta.AddrPort().Addr().Unmap()
	}
	return netip.Addr{}
}
