package core

import (
	"testing"
	"time"
)

// runWindows drives the given redirectors through windows [from, to] with a
// fixed global aggregate, feeding each its rollout view.
func runWindows(t *testing.T, reds []*Redirector, from, to int, known uint64) {
	t.Helper()
	global := []float64{80, 40}
	for w := from; w <= to; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		for _, r := range reds {
			if r == nil {
				continue // crashed: schedules no windows
			}
			r.SetGlobal(global, now)
			r.SetRollout(w, known)
			if err := r.StartWindow(now); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNewRedirectorOneID pins one engine per admission point: the engine
// accepts its redirector's id again — a restarted process re-registering —
// and panics on a second, distinct id, so an engine cannot be shared.
func TestNewRedirectorOneID(t *testing.T) {
	e, _, _ := communityEngine(t, 2)
	e.NewRedirector(3)
	e.NewRedirector(3)
	defer func() {
		if recover() == nil {
			t.Fatal("a second redirector id shared the engine")
		}
	}()
	e.NewRedirector(4)
}

// TestReregistrationIdempotent pins restart identity semantics: a crashed
// redirector re-registering under its old id gets fresh state on the same
// engine. Restored but not yet caught up with a staged set, it runs the
// conservative claim past the gate, and only its crossing with the set
// promotes the rollout.
func TestReregistrationIdempotent(t *testing.T) {
	e, a, b := communityEngine(t, 2)
	runWindows(t, []*Redirector{e.NewRedirector(0)}, 1, 3, 0)
	stageRenegotiation(t, e, a, b, 0.25, 0.25, 1, 5)
	r0 := e.NewRedirector(0) // the process restarts
	global := []float64{80, 40}
	now := 600 * time.Millisecond
	r0.SetGlobal(global, now)
	r0.SetRollout(6, 0)
	cons := r0.Conservative
	if err := r0.StartWindow(now); err != nil {
		t.Fatal(err)
	}
	if r0.Conservative != cons+1 {
		t.Fatal("re-registered redirector did not fall back to the conservative claim")
	}
	if info := e.Rollout(); info.Staged == 0 || info.Rollouts != 0 {
		t.Fatalf("promoted before the redirector learned the set: %+v", info)
	}
	// The rejoin handshake delivers the set; the redirector crosses and the
	// rollout converges.
	runWindows(t, []*Redirector{r0}, 7, 7, 1)
	if info := e.Rollout(); info.Staged != 0 || info.Rollouts != 1 {
		t.Fatalf("rollout did not converge after rejoin: %+v", info)
	}
	if mc := e.Access().MC[a]; mc != 40 {
		t.Fatalf("post-swap MC_A = %v, want 40", mc)
	}
}
