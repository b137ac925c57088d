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
//     rewrite) with pooled 32 KiB buffers (and the kernel splice(2) fast
//     path when both ends are TCP), preserving client→server affinity to
//     the extent the agreements allow;
//   - connections over quota are parked in sharded pending queues and
//     reinjected in later windows, exactly like the paper's kernel thread
//     re-queuing packets.
package l4

import (
	"errors"
	"fmt"
	"io"
	"net"
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

type heldConn struct {
	conn     net.Conn
	client   string
	parkedAt time.Time
	span     *obs.Span // nil when the request was not sampled for tracing
}

// pendShard is one stripe of the parked-connection state. Parking and
// reinjection lock one stripe at a time, so the accept path never waits on
// a fleet-wide reinjection pass.
type pendShard struct {
	mu sync.Mutex
	q  map[agreement.Principal][]heldConn
	_  [64]byte
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
		r.pend[i].q = make(map[agreement.Principal][]heldConn)
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
	client := clientKey(conn)
	sp := r.Begin(p)
	d, det := r.Admission().AdmitTraced(p, r.aff.lookup(client, now), 1)
	node.StampAdmit(sp, det)
	if !d.Admitted {
		if r.park(conn, client, p, now, sp) {
			r.parked.Add(1)
		}
		return
	}
	r.aff.pin(client, d.Owner, now)
	backend := r.chooseBackend(d.Owner)
	sp.StampBackend()
	if backend == "" {
		conn.Close()
		sp.Finish()
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.spliceOrRepark(conn, client, p, backend, sp)
	}()
}

// park enqueues an over-quota connection on a pending stripe, holding the
// per-principal MaxPending bound with an atomic count. Returns false when
// the connection was dropped (bound hit or redirector stopped) instead.
// The span (nil when untraced) rides the queue entry; park/drop verdicts
// are stamped here, expiry and reinjection at the reinject pass.
func (r *Redirector) park(conn net.Conn, client string, p agreement.Principal, now time.Time, sp *obs.Span) bool {
	if r.stopped.Load() {
		conn.Close()
		sp.SetVerdict(obs.VerdictDrop)
		sp.Finish()
		return false
	}
	if r.pendCount[p].Add(1) > int64(r.cfg.MaxPending) {
		r.pendCount[p].Add(-1)
		r.dropped.Add(1)
		conn.Close()
		sp.SetVerdict(obs.VerdictDrop)
		sp.Finish()
		return false
	}
	sp.SetVerdict(obs.VerdictPark)
	sh := &r.pend[int(r.parkSeq.Add(1))%len(r.pend)]
	sh.mu.Lock()
	sh.q[p] = append(sh.q[p], heldConn{conn: conn, client: client, parkedAt: now, span: sp})
	sh.mu.Unlock()
	if r.stopped.Load() {
		// Close raced the enqueue; drain again so the connection cannot
		// leak past shutdown.
		r.drainShard(sh)
	}
	return true
}

// drainShard closes and forgets every connection parked on the stripe.
func (r *Redirector) drainShard(sh *pendShard) {
	sh.mu.Lock()
	taken := sh.q
	sh.q = make(map[agreement.Principal][]heldConn)
	sh.mu.Unlock()
	for p, queue := range taken {
		for _, hc := range queue {
			hc.conn.Close()
			hc.span.SetVerdict(obs.VerdictDrop)
			hc.span.Finish()
		}
		r.pendCount[p].Add(-int64(len(queue)))
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

// spliceOrRepark dials the backend and splices. A failed dial is not a
// silent connection drop: the failure feeds the health checker and the
// untouched client connection goes back to the pending queue (respecting
// MaxPending) for reinjection toward a healthier backend next window.
func (r *Redirector) spliceOrRepark(conn net.Conn, client string, svc agreement.Principal, backendAddr string, sp *obs.Span) {
	backend, err := net.DialTimeout("tcp", backendAddr, 2*time.Second)
	if err != nil {
		r.ReportFailure(backendAddr)
		r.dialFailures.Add(1)
		// The pending clock restarts: the connection already waited zero
		// windows, the dial failure is the backend's fault, not the client's.
		if r.park(conn, client, svc, time.Now(), sp) {
			r.reparked.Add(1)
		}
		return
	}
	sp.StampDial()
	r.splice(conn, backend, sp)
}

// copyBufs pools the splice buffers: 32 KiB is io.Copy's own default and
// large enough that a buffered copy of a short-lived connection needs one
// refill at most. Pooling removes a per-connection-direction allocation from
// the data path.
var copyBufs = sync.Pool{
	New: func() any { b := make([]byte, 32<<10); return &b },
}

// splice is the NAT analogue: copy bytes both ways until either side closes,
// propagating the client's half-close to the backend. A traced connection
// stamps first-byte on the backend→client direction and finishes its span
// once both halves drain.
func (r *Redirector) splice(client, backend net.Conn, sp *obs.Span) {
	defer client.Close()
	defer backend.Close()
	done := make(chan struct{})
	go func() {
		r.copyHalf(backend, client, &r.copyErrIn)
		if tc, ok := backend.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		close(done)
	}()
	if sp != nil {
		r.copyHalfFirstByte(client, backend, sp, &r.copyErrOut)
	} else {
		r.copyHalf(client, backend, &r.copyErrOut)
	}
	<-done
	sp.Finish()
}

// copyHalf shuttles one splice direction through a pooled buffer and
// classifies how it ended: a clean half-close (EOF, or our own shutdown
// closing the socket) is the normal end of a TCP conversation, anything
// else — connection reset, broken pipe, a timeout — is a transport error
// worth counting. When dst is a *net.TCPConn, io.CopyBuffer defers to its
// ReadFrom and the kernel moves the bytes (splice(2)/sendfile on Linux)
// without touching the buffer at all.
func (r *Redirector) copyHalf(dst, src net.Conn, errCounter *atomic.Int64) {
	bp := copyBufs.Get().(*[]byte)
	_, err := io.CopyBuffer(dst, src, *bp)
	copyBufs.Put(bp)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		errCounter.Add(1)
	}
}

// copyHalfFirstByte is copyHalf for a traced backend→client direction: the
// first read is taken by hand so the span's first-byte stamp lands on real
// response bytes, then the remainder goes through io.CopyBuffer (which still
// defers to the kernel splice fast path for the bulk of the transfer).
func (r *Redirector) copyHalfFirstByte(dst, src net.Conn, sp *obs.Span, errCounter *atomic.Int64) {
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	n, rerr := src.Read(buf)
	if n > 0 {
		sp.StampFirstByte()
		if _, werr := dst.Write(buf[:n]); werr != nil {
			if !errors.Is(werr, net.ErrClosed) {
				errCounter.Add(1)
			}
			return
		}
	}
	if rerr != nil {
		if rerr != io.EOF && !errors.Is(rerr, net.ErrClosed) {
			errCounter.Add(1)
		}
		return
	}
	_, err := io.CopyBuffer(dst, src, buf)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		errCounter.Add(1)
	}
}

type launch struct {
	conn    net.Conn
	client  string
	svc     agreement.Principal
	backend string
	span    *obs.Span
}

// reinject is the node's per-window hook: once the boundary has scheduled
// the new window it re-admits parked connections against the fresh credits.
// A boundary whose scheduling failed kept last window's (spent) credits, so
// there is nothing to reinject against.
func (r *Redirector) reinject(startErr error) {
	if startErr != nil {
		return
	}

	// Reinjection: stripe by stripe, oldest parked connections first, while
	// credits last. Only one stripe's lock is held at a time, so the accept
	// path keeps parking concurrently.
	now := time.Now()
	var launches []launch
	for i := range r.pend {
		launches = append(launches, r.reinjectShard(&r.pend[i], now)...)
	}
	r.aff.sweep(now)

	for _, l := range launches {
		if l.backend == "" {
			l.conn.Close()
			l.span.Finish()
			continue
		}
		l := l
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.spliceOrRepark(l.conn, l.client, l.svc, l.backend, l.span)
		}()
	}
}

// reinjectShard re-admits one stripe's parked connections: expired ones are
// closed, admitted ones become launches, the rest keep their queue position
// ahead of connections parked meanwhile.
func (r *Redirector) reinjectShard(sh *pendShard, now time.Time) []launch {
	sh.mu.Lock()
	taken := sh.q
	sh.q = make(map[agreement.Principal][]heldConn)
	sh.mu.Unlock()

	var launches []launch
	for p, queue := range taken {
		kept := queue[:0]
		for _, hc := range queue {
			if now.Sub(hc.parkedAt) > r.cfg.PendingTimeout {
				hc.conn.Close()
				r.expired.Add(1)
				r.pendCount[p].Add(-1)
				hc.span.AddPark(now.Sub(hc.parkedAt))
				hc.span.SetVerdict(obs.VerdictExpire)
				hc.span.Finish()
				continue
			}
			d, det := r.Admission().AdmitTraced(p, r.aff.lookup(hc.client, now), 1)
			if !d.Admitted {
				kept = append(kept, hc)
				continue
			}
			r.pendCount[p].Add(-1)
			r.aff.pin(hc.client, d.Owner, now)
			hc.span.AddPark(now.Sub(hc.parkedAt))
			node.StampAdmit(hc.span, det)
			backend := r.chooseBackend(d.Owner)
			hc.span.StampBackend()
			launches = append(launches, launch{
				conn: hc.conn, client: hc.client, svc: p,
				backend: backend, span: hc.span,
			})
		}
		if len(kept) > 0 {
			sh.mu.Lock()
			sh.q[p] = append(kept, sh.q[p]...)
			sh.mu.Unlock()
		}
	}
	if r.stopped.Load() {
		r.drainShard(sh)
	}
	return launches
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
	return err
}

func clientKey(conn net.Conn) string {
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return conn.RemoteAddr().String()
	}
	return host
}
