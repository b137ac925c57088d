// Package combining implements the dynamic combining tree of §3.2: redirector
// nodes organized into a tree that aggregates per-principal queue lengths
// upward each epoch and broadcasts the global aggregate back down, costing
// 2(n−1) messages per epoch instead of the O(n²) of pairwise exchange.
//
// Beyond the total queue length the paper needs, nodes aggregate max, min,
// count and sum-of-squares, so schedulers can also consume average and
// variance (the paper's "other aggregate queue metrics").
//
// The package is transport-agnostic: a Node is driven by Tick/OnMessage and
// emits messages through a send callback. Messages are lent on send and
// delivered by value: the SendFunc gets a pointer to a Report, Broadcast or
// Rejoin the node reuses, valid only for the call, and OnMessage takes the
// value form (Detach converts one into the other). So a steady-state epoch
// allocates nothing inside a node. internal/sim wires nodes to simnet;
// cmd/redirector wires them to TCP.
package combining

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// NodeID identifies a tree node (a redirector).
type NodeID int

// Aggregate is the combinable statistic vector, indexed by principal.
type Aggregate struct {
	Sum   []float64
	Max   []float64
	Min   []float64
	SumSq []float64
	Count int // number of contributing nodes
}

// NewAggregate returns an identity aggregate for n principals.
func NewAggregate(n int) Aggregate {
	a := Aggregate{
		Sum:   make([]float64, n),
		Max:   make([]float64, n),
		Min:   make([]float64, n),
		SumSq: make([]float64, n),
	}
	for i := range a.Min {
		a.Max[i] = math.Inf(-1)
		a.Min[i] = math.Inf(1)
	}
	return a
}

// FromLocal wraps one node's local vector as an aggregate.
func FromLocal(local []float64) Aggregate {
	a := NewAggregate(len(local))
	a.setLocal(local)
	return a
}

// setLocal overwrites a (already len(local) long) with one node's vector.
func (a *Aggregate) setLocal(local []float64) {
	for i, v := range local {
		a.Sum[i] = v
		a.Max[i] = v
		a.Min[i] = v
		a.SumSq[i] = v * v
	}
	a.Count = 1
}

// Combine merges other into a (pointwise sum/max/min).
func (a *Aggregate) Combine(other Aggregate) {
	for i := range a.Sum {
		if i >= len(other.Sum) {
			break
		}
		a.Sum[i] += other.Sum[i]
		a.SumSq[i] += other.SumSq[i]
		if other.Max[i] > a.Max[i] {
			a.Max[i] = other.Max[i]
		}
		if other.Min[i] < a.Min[i] {
			a.Min[i] = other.Min[i]
		}
	}
	a.Count += other.Count
}

// Avg returns the per-principal mean queue length across nodes.
func (a Aggregate) Avg(i int) float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum[i] / float64(a.Count)
}

// Variance returns the per-principal population variance across nodes.
func (a Aggregate) Variance(i int) float64 {
	if a.Count == 0 {
		return 0
	}
	m := a.Avg(i)
	v := a.SumSq[i]/float64(a.Count) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// Clone deep-copies the aggregate.
func (a Aggregate) Clone() (c Aggregate) {
	c.CopyFrom(a)
	return c
}

// CopyFrom overwrites a with src, reusing a's slices when they are large
// enough: how every owned buffer on the tree path is filled.
func (a *Aggregate) CopyFrom(src Aggregate) {
	a.Sum = append(a.Sum[:0], src.Sum...)
	a.Max = append(a.Max[:0], src.Max...)
	a.Min = append(a.Min[:0], src.Min...)
	a.SumSq = append(a.SumSq[:0], src.SumSq...)
	a.Count = src.Count
}

// ConfigUpdate is a versioned configuration payload piggybacked on the
// tree's own epoch messages: the control plane hands the root an encoded
// agreement-set snapshot, downward Broadcasts carry the newest one to every
// child whose last report does not acknowledge it, and upward Reports
// acknowledge the version each node holds. No extra messages are spent —
// distribution rides the existing 2(n−1)/epoch flow.
// A ConfigUpdate is immutable once published; nodes share the pointer.
type ConfigUpdate struct {
	// Version is the fleet-wide agreement-set version (monotonic).
	Version uint64
	// GateEpoch is the root epoch at which redirectors swap to this
	// configuration's scheduling state (the epoch gate).
	GateEpoch int
	// Payload is the encoded agreement.Set.
	Payload []byte
}

// Report flows up the tree: the combined aggregate of a subtree.
type Report struct {
	Epoch int
	Agg   Aggregate
	// AckVersion is the configuration version the sender currently holds
	// (0 when none) — the root's visibility into rollout progress.
	AckVersion uint64
}

// Broadcast flows down the tree: the global aggregate computed at the root,
// plus the newest configuration update while the receiving child's last
// report does not acknowledge it (nil otherwise, and when none has been
// published).
type Broadcast struct {
	Epoch  int
	Agg    Aggregate
	Config *ConfigUpdate
}

// Rejoin is the crash-recovery handshake a restarted node sends its parent:
// its last durable (epoch, configuration version) position. The parent
// resets the child's stale-report gate (the restarted process counts epochs
// from its restored position, which may trail what the parent last heard)
// and immediately replies with the current global broadcast — carrying the
// newest configuration unless AckVersion shows the child holds it — so the
// child converges before its next scheduling window instead of waiting out a
// full epoch round.
type Rejoin struct {
	// Epoch is the sender's restored local epoch (0 on a cold start).
	Epoch int
	// AckVersion is the newest configuration version the sender holds
	// from durable state (0 when none).
	AckVersion uint64
}

// Message is what a Node lends its SendFunc: a *Report, *Broadcast or
// *Rejoin, and nothing else (the interface is sealed, so passing a value
// form is a compile error rather than a message a transport drops). The
// pointer and its Agg, which aliases the sending node's reused buffers, are
// valid only for the duration of the SendFunc call; a Broadcast's Config is
// immutable and may be kept.
type Message interface{ message() }

func (*Report) message()    {}
func (*Broadcast) message() {}
func (*Rejoin) message()    {}

// SendFunc transmits a message toward another node. The message is lent (see
// Message): the transport must not retain msg or its Agg after the call
// returns. One that queues or delays delivery copies first (treenet into a
// recycled slot, the rest via Detach). Delivery is by value: the receiving
// end hands Report, Broadcast and Rejoin values to OnMessage.
type SendFunc func(to NodeID, msg Message)

// Detach returns the owned value form of a lent message — a Report,
// Broadcast or Rejoin with its aggregate deep-copied — so it may outlive the
// SendFunc call and be delivered to OnMessage later.
func Detach(msg Message) interface{} {
	switch m := msg.(type) {
	case *Report:
		r := *m
		r.Agg = r.Agg.Clone()
		return r
	case *Broadcast:
		b := *m
		b.Agg = b.Agg.Clone()
		return b
	case *Rejoin:
		return *m
	}
	return nil
}

// neighbor is what a node remembers about one tree neighbor: liveness for
// parent and children, and for a child its report slot, gates and hop stamp.
type neighbor struct {
	heardAt time.Duration
	heard   bool

	report  Aggregate // latest accepted report, copied in; empty when none
	epoch   int       // epoch of that report; older ones are dropped
	ack     uint64    // configuration version the child last reported holding
	gateAck uint64    // highest version it acknowledged, for the gate-lag stamp

	bcastAt      time.Duration // broadcast forwarded, child lag not yet observed
	bcastPending bool
}

// forget drops what a child's reports contributed, keeping its liveness.
func (nb *neighbor) forget() {
	nb.report.CopyFrom(Aggregate{})
	nb.epoch, nb.ack, nb.gateAck = 0, 0, 0
}

// Node is one combining-tree participant. All methods are safe for
// concurrent use: the window loop Ticks it, the transport goroutine feeds
// OnMessage, and the control plane reads Epoch/Config and publishes
// SetConfig from admin handlers. Message sends are asynchronous in every
// transport (simnet schedules deliveries, treenet enqueues), so the
// internal lock is never held across a blocking operation.
//
// Steady state allocates nothing: child reports are copied into their
// neighbor slots, the subtree sum is rebuilt in one scratch aggregate, and
// every outgoing message is lent — the node fills its one Report, Broadcast
// or Rejoin field under its lock and hands the SendFunc a pointer to it, the
// report aliasing the subtree scratch and broadcasts the one global buffer.
// Incoming messages arrive as values and are copied in.
type Node struct {
	mu sync.Mutex

	id          NodeID
	parent      NodeID // -1 at the root
	children    []NodeID
	numPrin     int
	send        SendFunc
	now         func() time.Duration
	local       []float64
	nbrs        map[NodeID]*neighbor
	sub         Aggregate // subtree scratch, rebuilt every Tick
	epoch       int
	global      Aggregate
	globalAt    time.Duration
	globalEpoch int
	haveGlobal  bool

	// config is the newest configuration update seen (nil when none);
	// onConfig fires when a strictly newer version arrives from the parent.
	config   *ConfigUpdate
	onConfig func(*ConfigUpdate)

	reportsIn    uint64
	broadcastsIn uint64
	msgsOut      uint64

	// The lent outgoing messages (see Message), refilled for each send.
	outReport Report
	outBcast  Broadcast
	outRejoin Rejoin

	// Hop timing (nil hop disables; all under mu). A non-root stamps
	// reportSentAt at each Tick and observes the broadcast→report round
	// trip when the next broadcast lands. A parent stamps each child's
	// neighbor.bcastAt when forwarding a broadcast and observes the child's
	// lag when its next report arrives. configAt stamps when the current
	// config version was first held, for per-child epoch-gate crossing lag.
	hop               *HopMetrics
	reportSentAt      time.Duration
	reportOutstanding bool
	configAt          time.Duration
	configAtVer       uint64
}

// HopMetrics holds the per-hop combining-tree timing distributions a node
// feeds when SetHopMetrics arms it: the report→broadcast round trip seen by
// a child, the broadcast→report lag a parent observes per child, and the
// lag between this node holding a configuration version and each child
// acknowledging it (epoch-gate crossing). The histograms are atomic; share
// them across nodes of a process or give each node its own.
type HopMetrics struct {
	// RoundTrip: non-root nodes, time from sending an epoch report to
	// receiving the next global broadcast.
	RoundTrip *obs.Histogram
	// ChildLag: parent nodes, time from forwarding a broadcast to a child
	// to that child's next report arriving.
	ChildLag *obs.Histogram
	// GateLag: parent nodes, time from first holding a configuration
	// version to a child acknowledging it.
	GateLag *obs.Histogram
}

// NewHopMetrics builds an armed HopMetrics with fresh histograms.
func NewHopMetrics() *HopMetrics {
	return &HopMetrics{
		RoundTrip: obs.NewHistogram(),
		ChildLag:  obs.NewHistogram(),
		GateLag:   obs.NewHistogram(),
	}
}

// newNode constructs a node (the Builder's backend). parent is −1 for the
// root. now supplies timestamps for staleness tracking (virtual or wall
// time).
func newNode(id NodeID, parent NodeID, children []NodeID, numPrincipals int,
	send SendFunc, now func() time.Duration) *Node {
	return &Node{
		id:       id,
		parent:   parent,
		children: append([]NodeID(nil), children...),
		numPrin:  numPrincipals,
		send:     send,
		now:      now,
		local:    make([]float64, numPrincipals),
		nbrs:     make(map[NodeID]*neighbor),
		sub:      NewAggregate(numPrincipals),
	}
}

// nbr returns id's neighbor state, creating it on first contact.
func (n *Node) nbr(id NodeID) *neighbor {
	nb := n.nbrs[id]
	if nb == nil {
		nb = &neighbor{}
		n.nbrs[id] = nb
	}
	return nb
}

// SetHopMetrics arms per-hop timing on this node (nil disables). Call it
// before the first Tick; the observations go to hm's histograms, exported
// as the rsa_tree_hop_* families by WriteHopMetrics.
func (n *Node) SetHopMetrics(hm *HopMetrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hop = hm
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// IsRoot reports whether this node is the tree root.
func (n *Node) IsRoot() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isRoot()
}

// isRoot is IsRoot with the lock already held.
func (n *Node) isRoot() bool { return n.parent < 0 }

// SetLocal records the node's current local queue-length vector.
func (n *Node) SetLocal(values []float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	copy(n.local, values)
	for i := len(values); i < n.numPrin; i++ {
		n.local[i] = 0
	}
}

// subtree rebuilds n.sub: the local vector combined with the latest child
// reports.
func (n *Node) subtree() {
	n.sub.setLocal(n.local)
	for _, c := range n.children {
		n.sub.Combine(n.nbr(c).report)
	}
}

// Tick runs one epoch: leaves and intermediates push their subtree aggregate
// to their parent; the root computes the global aggregate and broadcasts it.
func (n *Node) Tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	n.subtree()
	if n.isRoot() {
		n.acceptGlobal(n.epoch, n.sub, n.config)
		return
	}
	n.msgsOut++
	if n.hop != nil {
		n.reportSentAt = n.now()
		n.reportOutstanding = true
	}
	n.outReport = Report{Epoch: n.epoch, Agg: n.sub, AckVersion: n.configVersion()}
	n.send(n.parent, &n.outReport)
}

// acceptGlobal copies agg into the node's global buffer and forwards it.
func (n *Node) acceptGlobal(epoch int, agg Aggregate, cfg *ConfigUpdate) {
	n.global.CopyFrom(agg)
	n.globalAt = n.now()
	n.globalEpoch = epoch
	n.haveGlobal = true
	if cfg != nil && (n.config == nil || cfg.Version > n.config.Version) {
		n.config = cfg
		if n.hop != nil {
			n.configAt = n.now()
			n.configAtVer = cfg.Version
		}
		if n.onConfig != nil {
			n.onConfig(cfg)
		}
	}
	for _, c := range n.children {
		n.msgsOut++
		if n.hop != nil {
			nb := n.nbr(c)
			nb.bcastAt, nb.bcastPending = n.now(), true
		}
		// Forward the newest configuration held, not the incoming one (a
		// reordered older broadcast must not regress descendants), and only
		// to a child that has not acknowledged it yet.
		n.outBcast = Broadcast{Epoch: epoch, Agg: n.global, Config: n.configFor(n.nbr(c))}
		n.send(c, &n.outBcast)
	}
}

// OnMessage processes a Report from a child, a Broadcast from the parent or a
// Rejoin from a restarted child, each delivered as a value (Detach turns a
// lent Message into one). The aggregate is copied in, so msg.Agg may be a
// buffer the caller reuses.
// Unknown message types are ignored, as are messages older (by epoch) than
// what is already held — TCP transports may reorder deliveries, and a stale
// report must not overwrite a fresher one.
func (n *Node) OnMessage(from NodeID, msg interface{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m := msg.(type) {
	case Report:
		n.reportsIn++
		nb := n.nbr(from)
		nb.heardAt, nb.heard = n.now(), true
		if n.hop != nil && nb.bcastPending {
			n.hop.ChildLag.Observe(n.now() - nb.bcastAt)
			nb.bcastPending = false
		}
		// The ack is what the child holds now, not a high-water mark, and it
		// is taken before the epoch gate: a child that restarted without a
		// Rejoin (none sent, or lost in transit) reports a lower version in
		// reports the gate drops as stale, and the next broadcast carries
		// the set again.
		nb.ack = m.AckVersion
		if m.Epoch < nb.epoch {
			return
		}
		nb.report.CopyFrom(m.Agg)
		nb.epoch = m.Epoch
		if m.AckVersion > nb.gateAck {
			prev := nb.gateAck
			nb.gateAck = m.AckVersion
			// Epoch-gate crossing: the child just acknowledged the version
			// this node holds for the first time.
			if n.hop != nil && n.configAtVer > 0 &&
				m.AckVersion >= n.configAtVer && prev < n.configAtVer {
				n.hop.GateLag.Observe(n.now() - n.configAt)
			}
		}
	case Broadcast:
		n.broadcastsIn++
		nb := n.nbr(from)
		nb.heardAt, nb.heard = n.now(), true
		if n.haveGlobal && m.Epoch < n.globalEpoch {
			return
		}
		if n.hop != nil && n.reportOutstanding {
			n.hop.RoundTrip.Observe(n.now() - n.reportSentAt)
			n.reportOutstanding = false
		}
		n.acceptGlobal(m.Epoch, m.Agg, m.Config)
	case Rejoin:
		nb := n.nbr(from)
		nb.heardAt, nb.heard = n.now(), true
		// The restarted child's epoch counter resumed from its durable
		// position (or zero): drop the pre-crash gate and aggregate so its
		// fresh reports are accepted rather than rejected as stale.
		nb.forget()
		nb.ack, nb.gateAck = m.AckVersion, m.AckVersion
		nb.bcastPending = false
		// Reply immediately with the newest global, and the configuration
		// unless the child's durable state already holds it: the child
		// converges now, not an epoch round from now.
		if n.haveGlobal {
			n.msgsOut++
			n.outBcast = Broadcast{Epoch: n.globalEpoch, Agg: n.global, Config: n.configFor(nb)}
			n.send(from, &n.outBcast)
		}
	}
}

// AnnounceRejoin sends the crash-recovery handshake to the parent: the
// node's restored (epoch, configuration version) position. Call it once
// after constructing or Resetting a node whose process restarted (the
// transport may also re-announce after a reconnect). A no-op at the root —
// the root recovers its configuration from durable state directly.
func (n *Node) AnnounceRejoin() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isRoot() {
		return
	}
	n.msgsOut++
	n.outRejoin = Rejoin{Epoch: n.epoch, AckVersion: n.configVersion()}
	n.send(n.parent, &n.outRejoin)
}

// Reset rewinds the node to a restarted process's state: the epoch counter
// resumes from the durable position (epoch), the newest durable
// configuration (cu, may be nil) is reinstalled, and all volatile state —
// child aggregates, epoch gates, acks, the last global broadcast — is
// dropped, exactly as if the process had been re-exec'd around the same
// Node object. Topology (parent, children) and transport wiring survive.
// Follow with AnnounceRejoin on non-root nodes.
func (n *Node) Reset(epoch int, cu *ConfigUpdate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = epoch
	n.config = cu
	n.haveGlobal = false
	n.globalEpoch = 0
	n.globalAt = 0
	n.global.CopyFrom(Aggregate{}) // empty, buffers kept
	for i := range n.local {
		n.local[i] = 0
	}
	clear(n.nbrs)
	n.reportOutstanding = false
	if n.hop != nil && cu != nil {
		n.configAt = n.now()
		n.configAtVer = cu.Version
	}
}

// LastHeard reports when a message from the given neighbor last arrived;
// ok is false if it has never been heard. Failure detectors use this to
// decide when to rebuild the tree.
func (n *Node) LastHeard(neighbor NodeID) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nb := n.nbrs[neighbor]; nb != nil {
		return nb.heardAt, nb.heard
	}
	return 0, false
}

// Global returns the latest global aggregate, its timestamp, and whether one
// has been received at all. The aggregate aliases the node's global buffer,
// which the next Tick (root) or Broadcast overwrites: read it under the lock
// that serializes the caller's Tick/OnMessage calls, or Clone it.
func (n *Node) Global() (Aggregate, time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.global, n.globalAt, n.haveGlobal
}

// Epoch reports the node's local epoch (incremented each Tick).
func (n *Node) Epoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// GlobalEpoch reports the epoch of the last global broadcast applied (0 when
// none has arrived).
func (n *Node) GlobalEpoch() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.globalEpoch
}

// SetConfig publishes a configuration update from this node (the root of
// the tree; the control plane lives there). Older or equal versions are
// ignored. The update rides on the next Tick's broadcast; the publisher is
// expected to have applied it locally already, so no handler fires here.
func (n *Node) SetConfig(cu *ConfigUpdate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cu == nil || (n.config != nil && cu.Version <= n.config.Version) {
		return
	}
	n.config = cu
	if n.hop != nil {
		n.configAt = n.now()
		n.configAtVer = cu.Version
	}
}

// Config returns the newest configuration update this node holds (nil when
// none has arrived). The returned value is shared and must not be mutated.
func (n *Node) Config() *ConfigUpdate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.config
}

// SetConfigHandler installs the callback fired when a strictly newer
// configuration version arrives from the parent. It runs on the goroutine
// delivering the message, with the node's lock held — the handler must not
// call back into this Node.
func (n *Node) SetConfigHandler(fn func(*ConfigUpdate)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onConfig = fn
}

// configFor is the configuration a broadcast to a child carries: the newest
// held while the version the child last reported (in a Report or a Rejoin)
// is older, else nothing — the set is not re-sent to a child that holds it.
// A restarted child reports what its durable state holds, possibly 0, and a
// new or re-parented child starts at 0, so each gets the set again.
func (n *Node) configFor(nb *neighbor) *ConfigUpdate {
	if n.config == nil || nb.ack >= n.config.Version {
		return nil
	}
	return n.config
}

// configVersion is the version this node acknowledges upward.
func (n *Node) configVersion() uint64 {
	if n.config == nil {
		return 0
	}
	return n.config.Version
}

// ChildConfigAcks returns the configuration version each current child last
// reported holding — the root's rollout-progress view.
func (n *Node) ChildConfigAcks() map[NodeID]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[NodeID]uint64, len(n.children))
	for _, c := range n.children {
		out[c] = n.nbr(c).ack
	}
	return out
}

// MessageCounts reports cumulative tree traffic at this node: reports and
// broadcasts received, and messages sent. Together with Epoch they verify
// the 2(n−1) messages/epoch bound and feed per-window trace records.
func (n *Node) MessageCounts() (reportsIn, broadcastsIn, sent uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reportsIn, n.broadcastsIn, n.msgsOut
}

// Reconfigure rewires the node's position in the tree (dynamic membership:
// a failed parent is replaced by the grandparent, new children attach).
// Stale child reports from nodes no longer children are discarded, and the
// broadcast-epoch gate resets: a replacement root starts from its own (lower)
// epoch counter, and its broadcasts must not be rejected as stale against the
// dead root's. The last global aggregate is kept — it stays usable until its
// timestamp ages past the staleness bound.
func (n *Node) Reconfigure(parent NodeID, children []NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parent = parent
	n.children = append(n.children[:0], children...)
	n.globalEpoch = 0
	for id, nb := range n.nbrs {
		if !slices.Contains(n.children, id) {
			nb.forget()
		}
	}
	// n.config survives reconfiguration: the newest agreement set stays in
	// force while the tree heals, and a promoted root keeps re-broadcasting
	// it so late joiners converge.
}

// String renders the node's tree position.
func (n *Node) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("combining.Node{id=%d parent=%d children=%v}", n.id, n.parent, n.children)
}
