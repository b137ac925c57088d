package node

import (
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/persist"
)

// persistCheckpointEvery is how many durable window appends accumulate
// before the record log is compacted to its newest record.
const persistCheckpointEvery = 256

// onTreeMessage is the transport's handler (connection goroutines).
func (n *Node) onTreeMessage(tree int, from combining.NodeID, msg interface{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tree == nil {
		// The boot failed between Listen and NewForest; New is about to
		// close the transport.
		return
	}
	n.tree.OnMessage(tree, from, msg)
	if _, ok := msg.(combining.Broadcast); ok {
		n.pushGlobalLocked()
		// Pre-solve the plan the next window boundary will need while we
		// are already off the request path; the boundary's solve becomes a
		// plan-cache hit and never stalls admissions.
		n.red.Presolve(n.elapsed())
	}
}

// pushGlobalLocked publishes the settled aggregates to the engine: the
// flat single-tree path keeps the uniform SetGlobal semantics, sharded
// forests stamp each agreement component with its own tree's timestamp.
func (n *Node) pushGlobalLocked() {
	if n.tree.Trees() == 1 {
		if agg, at, ok := n.tree.ComponentGlobal(0); ok {
			n.red.SetGlobal(agg.Sum, at)
		}
		return
	}
	for t := 0; t < n.tree.Trees(); t++ {
		if agg, at, ok := n.tree.ComponentGlobal(t); ok {
			n.red.SetGlobalComponent(n.tree.Component(t), agg.Sum, at)
		}
	}
}

// boundary runs one window boundary under mu: local estimate → failure
// detection → tree tick → root push → rollout view → StartWindow → durable
// append → tracer window. It returns StartWindow's scheduling error;
// scheduling failures leave last window's credits in place, so enforcement
// degrades gracefully.
func (n *Node) boundary() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Requests a front-end is still holding already counted as demand when
	// their admission was attempted.
	n.estBuf = n.red.LocalEstimateInto(n.estBuf)
	var epoch, gate int
	var known uint64
	if n.tree != nil {
		if n.wiring.Detector != nil {
			// Failure detection first: a silent neighbor is pruned and
			// this epoch's report already goes to the new parent.
			n.wiring.Detector.Check(n.tree, n.elapsed())
		}
		n.tree.SetLocal(n.estBuf)
		n.tree.Tick()
		if n.tree.IsRoot() {
			n.pushGlobalLocked()
		}
		// Rollout view for the epoch gate: this node's epoch and the
		// newest agreement-set version the tree delivered.
		epoch = n.tree.Epoch()
		if ge := n.tree.GlobalEpoch(); ge > epoch {
			epoch = ge
		}
		if cu := n.tree.Config(); cu != nil {
			known, gate = cu.Version, cu.GateEpoch
		}
		n.red.SetRollout(epoch, known)
	} else {
		// Single redirector: its own estimate is the global truth.
		n.red.SetGlobal(n.estBuf, n.elapsed())
	}
	// The plane folds the shards' arrival/admission counters, schedules the
	// next window, and flips the credit pool — in-flight admits keep
	// draining the old pool until the new one is published, so the boundary
	// never stalls them.
	err := n.adm.StartWindow(n.elapsed())
	n.persistWindowLocked(epoch, known, gate)
	n.tracer.StartWindow(uint64(n.red.Windows), uint64(n.cfg.Engine.Version()))
	return err
}

// persistWindowLocked appends the just-started window's durable record —
// carried credit, demand estimate, window sequence, rollout position — to
// the store, compacting the record log every persistCheckpointEvery
// appends. Runs at the window boundary under mu; a no-op without a store.
// Persistence errors are logged, never fatal: enforcement continues with a
// wider crash-loss bound.
func (n *Node) persistWindowLocked(epoch int, known uint64, gate int) {
	st, eng := n.cfg.Persist, n.cfg.Engine
	if st == nil {
		return
	}
	if n.persistT == nil {
		np := eng.NumPrincipals()
		n.persistT = make([]float64, np)
		n.persistM = make([][]float64, np)
		for i := range n.persistM {
			n.persistM[i] = make([]float64, np)
		}
	}
	n.red.ExportCredits(n.persistM, n.persistT)
	n.persistE = n.red.ExportEstimate(n.persistE)
	ws := persist.WindowState{
		WindowSeq:  n.red.Windows,
		Epoch:      epoch,
		SetVersion: known,
		Gate:       gate,
		Estimate:   n.persistE,
	}
	if eng.Mode() == core.Provider {
		ws.CreditTotal = n.persistT
	} else {
		ws.Credit = n.persistM
	}
	if err := st.AppendWindow(ws); err != nil {
		eng.Logger().Error("persist window record", "window", ws.WindowSeq, "err", err)
		return
	}
	n.persistSeq++
	if n.persistSeq%persistCheckpointEvery == 0 {
		if err := st.Checkpoint(); err != nil {
			eng.Logger().Error("persist checkpoint", "err", err)
		}
	}
}
