package node

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/obs"
	"repro/internal/persist"
)

// persistCheckpointEvery is how many durable window appends accumulate
// before the record log is compacted to its newest record.
const persistCheckpointEvery = 256

// Placement is a member's position in the combining plane: its tree id,
// its parent (−1 at the root) and children, and, under component sharding,
// one ascending principal list per tree (empty: one tree over all).
type Placement struct {
	ID         combining.NodeID
	Parent     combining.NodeID
	Children   []combining.NodeID
	Components [][]int
}

// Member is the socket-free half of an enforcement node: the core
// redirector and its admission plane, the combining forest, the window
// boundary, durable recovery and rejoin, agreement-set staging, the control
// plane and the window observer. It owns no socket, goroutine or wall
// clock: the tree's SendFunc and the clock are constructor arguments, so the
// same member runs under a Node (treenet, time.Since) and under the
// simulator (simnet, vclock). Its methods are safe for concurrent use.
type Member struct {
	cfg Config
	now func() time.Duration

	// mu guards the window-boundary state (core redirector, forest, estimate
	// and persist buffers). Admission never takes it.
	mu     sync.Mutex
	red    *core.Redirector
	tree   *combining.Forest // nil: the member's own estimate is the global view
	estBuf []float64

	adm    *admission.Plane
	hop    *combining.HopMetrics
	obsv   *obs.Observer
	ctrl   *ctrlplane.Plane
	resume *agreement.Set // the recovered set, nil on a cold start

	// Durable-state scratch: export buffers and the append count that
	// paces log compaction.
	persistM   [][]float64
	persistT   []float64
	persistE   []float64
	persistSeq int
}

// NewMember boots a member from cfg's Engine, ID, AdmissionShards,
// TraceDepth, Persist and Layer (the rest of Config is the Node's). place
// and send join a combining forest (place nil: no tree); now is the time
// base; aud, when non-nil, is an auditor shared with other members. A
// member with a store restores its durable window position, carried credit,
// estimate and newest agreement set and announces a rejoin before the
// admission plane publishes window 0, so it admits from the moment NewMember
// returns.
func NewMember(cfg Config, place *Placement, send func(tree int) combining.SendFunc,
	now func() time.Duration, aud *obs.Auditor) (*Member, error) {
	eng := cfg.Engine
	m := &Member{cfg: cfg, now: now, red: eng.NewRedirector(cfg.ID)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if place != nil {
		if err := m.joinTreeLocked(place, send); err != nil {
			return nil, err
		}
	}
	if cfg.Persist != nil {
		if err := m.recoverLocked(); err != nil {
			return nil, err
		}
	}
	var err error
	m.adm, err = admission.New(admission.Config{Redirector: m.red, Engine: eng, Shards: cfg.AdmissionShards})
	if err != nil {
		return nil, err
	}
	m.obsv = eng.NewObserver(cfg.ID, aud, cfg.TraceDepth)
	if tree := m.tree; tree != nil {
		// Read inside the boundary, under mu.
		m.obsv.SetTreeInfo(func() obs.TreeInfo {
			reports, broadcasts, sent := tree.MessageCounts()
			return obs.TreeInfo{
				Epoch:       tree.Epoch(),
				GlobalEpoch: tree.GlobalEpoch(),
				MsgsIn:      reports + broadcasts,
				MsgsOut:     sent,
			}
		})
	}
	m.red.SetObserver(m.obsv)
	return m, nil
}

// joinTreeLocked builds the combining forest and its configuration handler.
func (m *Member) joinTreeLocked(place *Placement, send func(tree int) combining.SendFunc) error {
	eng := m.cfg.Engine
	m.hop = combining.NewHopMetrics()
	var err error
	m.tree, err = combining.NewForest(combining.ForestConfig{
		ID: place.ID, Parent: place.Parent, Children: place.Children,
		NumPrincipals: eng.NumPrincipals(), Components: place.Components,
		Send: send, Now: m.now, Hop: m.hop,
	})
	if err != nil {
		return err
	}
	// Configuration updates arriving from the parent stage a new scheduling
	// generation behind the sender's epoch gate; the window boundary swaps
	// once this member's epoch crosses it. Runs under mu (OnMessage).
	m.tree.SetConfigHandler(func(cu *combining.ConfigUpdate) {
		set, derr := agreement.DecodeSet(cu.Payload)
		if derr != nil {
			eng.Logger().Error("bad config payload", "version", cu.Version, "err", derr)
			return
		}
		if _, serr := eng.StageSet(set, cu.GateEpoch); serr != nil {
			eng.Logger().Error("stage agreement set", "version", cu.Version, "err", serr)
			return
		}
		// Every set the tree delivers becomes durable before the gate can
		// arrive: a crash after this point recovers the newest entitlements
		// instead of rejoining blind.
		m.saveSet(set)
	})
	return nil
}

// recoverLocked restores the durable window position, carried credit,
// demand estimate and newest agreement set before the admission plane
// publishes window 0, then announces a rejoin so the parent unblocks this
// member's (rewound) epoch and streams back the current global and
// configuration.
func (m *Member) recoverLocked() error {
	st, eng := m.cfg.Persist, m.cfg.Engine
	set, err := st.LoadNewestSet()
	if err != nil {
		return fmt.Errorf("%s: recover agreement set: %w", m.cfg.Layer, err)
	}
	if set != nil {
		// Gate 0: a recovered set the fleet already converged on commits
		// at once, before window 0 is armed.
		if _, serr := eng.StageSet(set, 0); serr != nil {
			eng.Logger().Error("restage recovered set", "version", set.Version, "err", serr)
			set = nil
		}
	}
	m.resume = set
	// Restore even without a window record: it re-arms window 0 against the
	// recovered set's entitlements.
	ws, ok := st.LastWindow()
	m.red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
	if !ok {
		return nil
	}
	m.red.SetRollout(ws.Epoch, ws.SetVersion)
	if m.tree != nil {
		var cu *combining.ConfigUpdate
		if set != nil {
			cu = m.configUpdate(set, ws.Gate)
		}
		m.tree.Reset(ws.Epoch, cu)
		m.tree.AnnounceRejoin()
	}
	return nil
}

// saveSet makes an agreement set durable (a no-op without a store).
// Persistence errors are logged, never fatal: enforcement continues with a
// wider crash-loss bound.
func (m *Member) saveSet(set *agreement.Set) {
	if st := m.cfg.Persist; st != nil {
		if err := st.SaveSet(set); err != nil {
			m.cfg.Engine.Logger().Error("persist agreement set", "version", set.Version, "err", err)
		}
	}
}

// configUpdate wraps an agreement set for the tree's downward broadcasts
// (nil, logged, when the set does not encode).
func (m *Member) configUpdate(set *agreement.Set, gate int) *combining.ConfigUpdate {
	data, err := set.Encode()
	if err != nil {
		m.cfg.Engine.Logger().Error("encode agreement set", "version", set.Version, "err", err)
		return nil
	}
	return &combining.ConfigUpdate{Version: set.Version, GateEpoch: gate, Payload: data}
}

// EnableControlPlane attaches the dynamic agreement control plane to this
// member (the tree root, where the paper's combining tree is rooted) with
// rollout gate lead lead (<= 0 selects ctrlplane.DefaultLead). Accepted sets
// become durable, then ride the member's downward broadcasts; the lease
// table is saved after every lease mutation. A recovered member resumes
// version numbering and the lease table from its store.
func (m *Member) EnableControlPlane(lead int) (*ctrlplane.Plane, error) {
	eng := m.cfg.Engine
	logger := eng.Logger()
	opt := ctrlplane.Options{Lead: lead, Logger: logger, Resume: m.resume}
	if st := m.cfg.Persist; st != nil {
		opt.SaveLeases = func(t *budget.Table) {
			if err := st.SaveLeases(t); err != nil {
				logger.Error("persist lease table", "version", t.Version, "err", err)
			}
		}
		tbl, err := st.LoadNewestLeases()
		if err != nil {
			logger.Error("load lease table", "err", err)
		}
		opt.ResumeLeases = tbl
		opt.Publish = func(set *agreement.Set, gate int) { m.saveSet(set) }
	}
	if tree := m.tree; tree != nil {
		opt.Epoch = func() int {
			m.mu.Lock()
			defer m.mu.Unlock()
			return tree.Epoch()
		}
		opt.Publish = func(set *agreement.Set, gate int) {
			// Durable before distributed: a root crash between publish and
			// fleet convergence must not lose the renegotiation.
			m.saveSet(set)
			if cu := m.configUpdate(set, gate); cu != nil {
				m.mu.Lock()
				tree.SetConfig(cu)
				m.mu.Unlock()
			}
		}
	}
	var err error
	m.ctrl, err = ctrlplane.New(eng.System(), eng, opt)
	return m.ctrl, err
}

// OnMessage delivers one tree message. A broadcast publishes the new global
// view and pre-solves the plan the next boundary needs, so the boundary's
// solve is a plan-cache hit.
func (m *Member) OnMessage(tree int, from combining.NodeID, msg interface{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tree.OnMessage(tree, from, msg)
	if _, ok := msg.(combining.Broadcast); ok {
		m.pushGlobalLocked()
		m.red.Presolve(m.now())
	}
}

// pushGlobalLocked publishes the settled aggregates to the engine: the
// single-tree path keeps the uniform SetGlobal semantics, sharded forests
// stamp each agreement component with its own tree's timestamp.
func (m *Member) pushGlobalLocked() {
	if m.tree.Trees() == 1 {
		if agg, at, ok := m.tree.ComponentGlobal(0); ok {
			m.red.SetGlobal(agg.Sum, at)
		}
		return
	}
	for t := 0; t < m.tree.Trees(); t++ {
		if agg, at, ok := m.tree.ComponentGlobal(t); ok {
			m.red.SetGlobalComponent(m.tree.Component(t), agg.Sum, at)
		}
	}
}

// Tick is the first phase of a window boundary: local estimate → tree tick
// → root push. A fleet driven from one goroutine ticks every member, lets
// the tree messages settle, then runs every StartWindow.
func (m *Member) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tickLocked()
}

func (m *Member) tickLocked() {
	// Requests a front-end is still holding already counted as demand when
	// their admission was attempted.
	m.estBuf = m.red.LocalEstimateInto(m.estBuf)
	if m.tree == nil {
		// Single redirector: its own estimate is the global truth.
		m.red.SetGlobal(m.estBuf, m.now())
		return
	}
	m.tree.SetLocal(m.estBuf)
	m.tree.Tick()
	if m.tree.IsRoot() {
		m.pushGlobalLocked()
	}
}

// StartWindow is the second phase of a window boundary: rollout view →
// admission-plane window start → durable append. It returns the scheduling
// error; a failed schedule leaves last window's credits in place, so
// enforcement degrades gracefully.
func (m *Member) StartWindow() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.startWindowLocked()
}

func (m *Member) startWindowLocked() error {
	var epoch, gate int
	var known uint64
	if m.tree != nil {
		// Rollout view for the epoch gate: this member's epoch and the
		// newest agreement-set version the tree delivered.
		epoch = m.tree.Epoch()
		if ge := m.tree.GlobalEpoch(); ge > epoch {
			epoch = ge
		}
		if cu := m.tree.Config(); cu != nil {
			known, gate = cu.Version, cu.GateEpoch
		}
		m.red.SetRollout(epoch, known)
	}
	// The plane folds the shards' arrival/admission counters, schedules the
	// next window, and flips the credit pool — in-flight admits keep
	// draining the old pool until the new one is published.
	err := m.adm.StartWindow(m.now())
	m.persistWindowLocked(epoch, known, gate)
	return err
}

// persistWindowLocked appends the just-started window's durable record —
// carried credit, demand estimate, window sequence, rollout position — to
// the store, compacting the record log every persistCheckpointEvery
// appends. A no-op without a store; errors are logged, never fatal.
func (m *Member) persistWindowLocked(epoch int, known uint64, gate int) {
	st, eng := m.cfg.Persist, m.cfg.Engine
	if st == nil {
		return
	}
	if m.persistT == nil {
		np := eng.NumPrincipals()
		m.persistT = make([]float64, np)
		m.persistM = make([][]float64, np)
		for i := range m.persistM {
			m.persistM[i] = make([]float64, np)
		}
	}
	m.red.ExportCredits(m.persistM, m.persistT)
	m.persistE = m.red.ExportEstimate(m.persistE)
	ws := persist.WindowState{
		WindowSeq:  m.red.Windows,
		Epoch:      epoch,
		SetVersion: known,
		Gate:       gate,
		Estimate:   m.persistE,
	}
	if eng.Mode() == core.Provider {
		ws.CreditTotal = m.persistT
	} else {
		ws.Credit = m.persistM
	}
	if err := st.AppendWindow(ws); err != nil {
		eng.Logger().Error("persist window record", "window", ws.WindowSeq, "err", err)
		return
	}
	m.persistSeq++
	if m.persistSeq%persistCheckpointEvery == 0 {
		if err := st.Checkpoint(); err != nil {
			eng.Logger().Error("persist checkpoint", "err", err)
		}
	}
}

// Engine exposes the member's own enforcement engine.
func (m *Member) Engine() *core.Engine { return m.cfg.Engine }

// Admission exposes the sharded admission plane: front-ends admit on it
// directly and read its counters; the window boundary is the member's.
func (m *Member) Admission() *admission.Plane { return m.adm }

// Observer exposes the window-trace observer (auditor counters, trace ring).
func (m *Member) Observer() *obs.Observer { return m.obsv }

// Tree exposes the combining forest (nil without a tree).
func (m *Member) Tree() *combining.Forest { return m.tree }

// WindowStats snapshots the window position: windows started, windows
// scheduled conservatively, and whether a global view has arrived.
func (m *Member) WindowStats() (windows, conservative int, hasGlobal bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.red.Windows, m.red.Conservative, m.red.HasGlobal()
}
