// Package treenet carries combining-tree messages between redirector
// processes over TCP. It is the wide-area transport behind the real
// Layer-7/Layer-4 redirectors; the virtual-time harness uses internal/simnet
// instead.
//
// Each peer gets one persistent connection fed by a bounded send queue and a
// single writer goroutine: a Send never blocks the window loop and never
// spawns a goroutine, a broken connection is redialed with exponential
// backoff, and a slow or dead peer costs at most the queue's buffered
// messages. Delivery stays best effort, exactly like the paper's scheme
// assumes: a lost report only means the parent aggregates slightly staler
// data for one epoch.
//
// Messages travel as the binary frames of wire.go. Sending follows the
// combining package's lend-on-send rule: Send takes the *Report, *Broadcast
// or *Rejoin a node lends it and copies it into a recycled per-peer slot
// before returning, so sending allocates nothing. Delivery is by value: the
// Handler gets a Report, Broadcast or Rejoin, and that interface box is the
// one allocation a message costs in the steady state — each peer's writer
// and each inbound connection encode and decode through buffers they own.
package treenet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/combining"
	"repro/internal/topology"
)

const (
	// sendQueueDepth bounds in-flight messages per peer; the window loop
	// produces one report per epoch, so depth buys many epochs of outage.
	sendQueueDepth = 128
	dialTimeout    = 2 * time.Second
	writeTimeout   = 2 * time.Second
	// idleTimeout closes inbound connections with no traffic; peers redial
	// transparently.
	idleTimeout = 60 * time.Second
	// backoffBase/backoffMax bound the redial schedule of a peer writer.
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// Spec describes one node's place in a combining tree of redirector
// processes, plus the transport addresses of its peers. Both the Layer-7
// and Layer-4 redirectors take a Spec to join a tree.
type Spec struct {
	NodeID   combining.NodeID
	Parent   combining.NodeID // -1 for the root
	Children []combining.NodeID
	Peers    map[combining.NodeID]string
	// ListenAddr is the tree transport bind address (default 127.0.0.1:0).
	ListenAddr string
	// Fanout records the fan-out the flat Parent/Children were laid out
	// with; the wiring itself is Parent/Children.
	Fanout int
	// FailureTimeout is how long a tree neighbor may stay silent before the
	// node re-parents around it (0 disables failure detection). It needs a
	// Topology: a flat tree with failure detection is the one-region plane.
	FailureTimeout time.Duration
	// Topology, when set, supersedes Parent/Children: the node takes its
	// placement (and its failure repairs) from the plane compiled from this
	// spec.
	Topology *topology.Spec
}

// Handler receives decoded tree messages as values: a combining.Report,
// combining.Broadcast or combining.Rejoin. tree is the component-tree index
// the sender tagged the frame with (0 on a single flat tree). It is called
// from connection goroutines: implementations must synchronize access to
// the combining node or forest. msg.Agg aliases the connection's decode
// buffer and is overwritten by the next frame: a handler must not retain it
// after returning (combining.Node.OnMessage copies it in).
type Handler func(tree int, from combining.NodeID, msg interface{})

// outMsg is one queued message. Slots are recycled through peer.free, so
// the aggregate copy Send takes reuses its slices.
type outMsg struct {
	kind  byte
	tree  int
	epoch int
	ack   uint64
	agg   combining.Aggregate
	cfg   *combining.ConfigUpdate
}

// peer is one neighbor's outbound state: an address, a bounded queue, and a
// writer goroutine that owns the connection.
type peer struct {
	id   combining.NodeID
	ch   chan *outMsg
	free chan *outMsg // recycled slots; as many exist as were ever in flight

	mu         sync.Mutex
	addr       string
	backoff    time.Duration
	nextDialAt time.Time
	everDialed bool

	// enc is used by the writer goroutine alone; encMu lets Stats read the
	// stream counters.
	encMu sync.Mutex
	enc   encoder
}

// slot returns a recycled message slot, or a new one when all are in flight.
func (p *peer) slot() *outMsg {
	select {
	case m := <-p.free:
		return m
	default:
		return new(outMsg)
	}
}

func (p *peer) recycle(m *outMsg) {
	m.cfg = nil
	select {
	case p.free <- m:
	default:
	}
}

// Stats is a snapshot of the transport's health counters, exported through
// /metrics as the rsa_treenet_* series.
type Stats struct {
	// SendErrors counts messages dropped for any reason: unknown peer,
	// closed transport, full queue, failed dial or write.
	SendErrors int
	// QueueDrops counts the SendErrors caused by a full per-peer queue.
	QueueDrops int
	// Dials counts connections successfully established.
	Dials int
	// Reconnects counts successful dials beyond the first per peer — each
	// one is a connection that broke and was repaired.
	Reconnects int
	// PeersConnected is the current number of live outbound connections.
	PeersConnected int
	// DeadlineErrorsWrite counts SetWriteDeadline failures on outbound
	// connections; each one also disconnects the peer (a socket whose
	// deadline cannot be armed would otherwise write unbounded).
	DeadlineErrorsWrite int
	// DeadlineErrorsRead counts SetReadDeadline failures on inbound
	// connections; each one ends that read loop.
	DeadlineErrorsRead int
	// WriteTimeouts counts write failures classified as deadline expiry —
	// a live but stalled peer, distinguishable from outright peer death
	// (other write errors) in the failure-detector sense.
	WriteTimeouts int
	// BytesSent and BytesReceived count whole frames, length prefix
	// included, as written to and read from the sockets.
	BytesSent     uint64
	BytesReceived uint64
	// Delta aggregates the delta-compression codec counters over every
	// per-(tree,peer) stream (zero when EnableDelta was never called).
	Delta combining.DeltaStats
}

// deltaParams is the transport-wide delta compression setting.
type deltaParams struct {
	on          bool
	threshold   float64
	resyncEvery int
}

// Transport is one node's endpoint.
type Transport struct {
	self    combining.NodeID
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	peers  map[combining.NodeID]*peer
	closed bool
	stats  Stats

	// delta is under mu. The streams themselves live with their owners:
	// encoders on the peer, decoders on the inbound connection.
	delta deltaParams

	stop chan struct{}
	wg   sync.WaitGroup
}

// Listen starts a transport for node self on addr (use "127.0.0.1:0" for an
// ephemeral port) and dispatches inbound messages to handler.
func Listen(self combining.NodeID, addr string, handler Handler) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("treenet: listen %s: %w", addr, err)
	}
	t := &Transport{
		self:    self,
		ln:      ln,
		handler: handler,
		peers:   make(map[combining.NodeID]*peer),
		stop:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound address for peer configuration.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) the address of a tree neighbor. The peer's
// writer picks the new address up on its next (re)dial.
func (t *Transport) SetPeer(id combining.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[id]; ok {
		p.mu.Lock()
		if p.addr != addr {
			p.addr = addr
			// New address: dial eagerly, the old backoff no longer applies.
			p.nextDialAt = time.Time{}
			p.backoff = backoffBase
		}
		p.mu.Unlock()
		return
	}
	p := &peer{
		id:      id,
		ch:      make(chan *outMsg, sendQueueDepth),
		free:    make(chan *outMsg, sendQueueDepth),
		addr:    addr,
		backoff: backoffBase,
	}
	t.peers[id] = p
	if !t.closed {
		t.wg.Add(1)
		go t.writeLoop(p)
	}
}

// SendErrors reports how many sends were dropped so far.
func (t *Transport) SendErrors() int { return t.Stats().SendErrors }

// Stats returns a snapshot of the transport counters, including the delta
// codec counters folded over every stream.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	for _, p := range t.peers {
		p.encMu.Lock()
		p.enc.addStats(&st.Delta)
		p.encMu.Unlock()
	}
	return st
}

// count applies one counter update under the stats lock.
func (t *Transport) count(update func(*Stats)) {
	t.mu.Lock()
	update(&t.stats)
	t.mu.Unlock()
}

func (t *Transport) dropSend() { t.count(func(st *Stats) { st.SendErrors++ }) }

// EnableDelta turns on delta compression for outbound aggregates: an
// entry rides the wire only when a statistic moved by more than threshold
// (or went to zero) since the last transmission on that (tree, peer)
// stream, with a full-state resync every resyncEvery frames bounding the
// drift a dropped frame can cause. Call before traffic starts.
func (t *Transport) EnableDelta(threshold float64, resyncEvery int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delta = deltaParams{true, threshold, resyncEvery}
}

// Send transmits a lent *combining.Report, *combining.Broadcast or
// *combining.Rejoin to a peer on tree 0. It satisfies combining.SendFunc
// and never blocks: the message is copied into a slot queued for the
// peer's writer goroutine, and dropped (counted) if the queue is full, the
// peer is unknown, the message is nil, or the transport is closed.
func (t *Transport) Send(to combining.NodeID, msg combining.Message) {
	t.send(0, to, msg)
}

// TreeSend returns the SendFunc for one component tree: frames it produces
// are tagged with the tree index so the receiving forest can route them.
func (t *Transport) TreeSend(tree int) combining.SendFunc {
	return func(to combining.NodeID, msg combining.Message) {
		t.send(tree, to, msg)
	}
}

func (t *Transport) send(tree int, to combining.NodeID, msg combining.Message) {
	t.mu.Lock()
	p, ok := t.peers[to]
	closed := t.closed
	t.mu.Unlock()
	if !ok || closed {
		t.dropSend()
		return
	}
	// Copy into a slot before returning: msg is only lent
	// (combining.Message). The writer encodes; see writeLoop.
	m := p.slot()
	m.tree = tree
	switch v := msg.(type) {
	case *combining.Report:
		m.kind, m.epoch, m.ack = kindReport, v.Epoch, v.AckVersion
		m.agg.CopyFrom(v.Agg)
	case *combining.Broadcast:
		m.kind, m.epoch, m.ack = kindBroadcast, v.Epoch, 0
		m.agg.CopyFrom(v.Agg)
		if v.Config != nil && v.Config.Version > 0 {
			m.cfg = v.Config
		}
	case *combining.Rejoin:
		m.kind, m.epoch, m.ack = kindRejoin, v.Epoch, v.AckVersion
	default:
		p.recycle(m)
		t.dropSend()
		return
	}
	select {
	case p.ch <- m:
	default:
		p.recycle(m)
		t.count(func(st *Stats) { st.SendErrors++; st.QueueDrops++ })
	}
}

// writeLoop owns peer p's connection: it dials lazily on the first queued
// message, re-dials with exponential backoff after failures, and retries a
// message once on a stale connection (the peer may have restarted since the
// last write).
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	disconnect := func() {
		if conn != nil {
			conn.Close()
			conn = nil
			t.count(func(st *Stats) { st.PeersConnected-- })
		}
	}
	defer disconnect()
	for {
		select {
		case <-t.stop:
			return
		case m := <-p.ch:
			sent := false
			for attempt := 0; attempt < 2 && !sent; attempt++ {
				if conn == nil && !t.redial(p, &conn) {
					break
				}
				if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
					// A socket whose write deadline cannot be armed could
					// block the writer forever; treat it as dead.
					t.count(func(st *Stats) { st.DeadlineErrorsWrite++ })
					disconnect()
					continue
				}
				// Encode here, per attempt, not in Send: a redial resets
				// the delta streams, and the frame that opens a connection
				// must be a full one for the far end's fresh decoder.
				t.mu.Lock()
				delta := t.delta
				t.mu.Unlock()
				p.encMu.Lock()
				wire, saved := p.enc.encode(t.self, m, delta)
				p.encMu.Unlock()
				if _, err := conn.Write(wire); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						t.count(func(st *Stats) { st.WriteTimeouts++ })
					}
					disconnect()
					continue
				}
				t.count(func(st *Stats) { st.BytesSent += uint64(len(wire)); st.Delta.BytesSaved += saved })
				sent = true
			}
			if !sent {
				t.dropSend()
			}
			p.recycle(m)
		}
	}
}

// redial establishes peer p's connection, respecting the backoff window. It
// reports whether conn is usable afterwards.
func (t *Transport) redial(p *peer, conn *net.Conn) bool {
	p.mu.Lock()
	addr := p.addr
	wait := !p.nextDialAt.IsZero() && time.Now().Before(p.nextDialAt)
	p.mu.Unlock()
	if wait {
		return false
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	p.mu.Lock()
	if err != nil {
		p.nextDialAt = time.Now().Add(p.backoff)
		p.backoff *= 2
		if p.backoff > backoffMax {
			p.backoff = backoffMax
		}
		p.mu.Unlock()
		return false
	}
	p.backoff = backoffBase
	p.nextDialAt = time.Time{}
	again := p.everDialed
	p.everDialed = true
	p.mu.Unlock()

	*conn = c
	t.count(func(st *Stats) {
		st.Dials++
		st.PeersConnected++
		if again {
			st.Reconnects++
		}
	})
	// The far end decodes each connection with fresh stream state (it may
	// also have restarted): lead every stream with a full resync frame.
	p.encMu.Lock()
	p.enc.reset()
	p.encMu.Unlock()
	return true
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes a stream of frames from one inbound connection until
// the peer hangs up, a frame is malformed, or the idle deadline expires.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	done := make(chan struct{})
	defer close(done)
	defer conn.Close()
	t.wg.Add(1)
	go func() { // unblock the pending Read when the transport closes
		defer t.wg.Done()
		select {
		case <-t.stop:
			conn.Close()
		case <-done:
		}
	}()
	dec := decoder{br: bufio.NewReader(conn)}
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			t.count(func(st *Stats) { st.DeadlineErrorsRead++ })
			return
		}
		n, err := dec.read()
		if err != nil {
			return
		}
		// Desynced stream: drop the message and wait for the sender's
		// next full frame — the tree just aggregates staler data for a
		// few epochs, exactly like a lost report.
		msg, ok := dec.message()
		t.count(func(st *Stats) {
			st.BytesReceived += uint64(n)
			if !ok {
				st.Delta.Desyncs++
			}
		})
		if ok {
			t.handler(dec.f.tree, dec.f.from, msg)
		}
	}
}

// Close shuts the listener down, tears down peer connections, and waits for
// the writer and reader goroutines.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.stop)
	err := t.ln.Close()
	t.wg.Wait()
	return err
}
