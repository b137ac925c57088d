package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/obs"
)

// stageRenegotiation clones the engine's system, renegotiates B→A to
// [lb, ub], and stages the resulting snapshot behind gateEpoch — the same
// set a ctrlplane.Plane would publish.
func stageRenegotiation(t *testing.T, e *Engine, a, b agreement.Principal, lb, ub float64, version uint64, gateEpoch int) {
	t.Helper()
	clone := e.System().Clone()
	if err := clone.SetAgreement(b, a, lb, ub); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StageSet(clone.Snapshot(version), gateEpoch); err != nil {
		t.Fatal(err)
	}
}

// fleet builds n community redirectors, each on its own engine as every
// node process runs one, returning the engines, the redirectors and the two
// principals.
func fleet(t *testing.T, n int) ([]*Engine, []*Redirector, agreement.Principal, agreement.Principal) {
	t.Helper()
	engs, reds := make([]*Engine, n), make([]*Redirector, n)
	var a, b agreement.Principal
	for i := range engs {
		engs[i], a, b = communityEngine(t, n)
		reds[i] = engs[i].NewRedirector(i)
	}
	return engs, reds, a, b
}

// TestEpochGatedSwapGolden pins the rollout contract at the swap boundary:
// with a set staged behind gate epoch 8 on both members' engines and both
// redirectors learning the version before the gate, every window runs a
// single agreement version fleet-wide — the set version flips for both
// redirectors at exactly the gate window, the auditor sees zero
// mixed-version windows, and no window (including the boundary one)
// under-serves a mandatory floor.
func TestEpochGatedSwapGolden(t *testing.T) {
	const (
		gate    = 8
		windows = 12
	)
	engs, reds, a, b := fleet(t, 2)
	auditor := obs.NewAuditor(engs[0].PrincipalNames())
	for i, r := range reds {
		r.SetObserver(engs[i].NewObserver(i, auditor, windows+2))
	}
	if mc := engs[0].Access().MC[a]; mc != 48 {
		t.Fatalf("initial MC_A = %v, want 48", mc)
	}

	// knownAt simulates tree propagation: redirector 0 holds version 1 from
	// epoch 5, redirector 1 from epoch 6 — both before the gate.
	knownAt := func(id, epoch int) uint64 {
		if epoch >= 5+id {
			return 1
		}
		return 0
	}
	global := []float64{80, 40}
	var settledA, settledB int64
	for w := 1; w <= windows+1; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		for id, r := range reds {
			r.SetGlobal(global, now)
			r.SetRollout(w, knownAt(id, w))
			if err := r.StartWindow(now); err != nil {
				t.Fatal(err)
			}
			// Window demand: both principals over their floors, so the
			// auditor's under-floor check is armed every window.
			for k := 0; k < 60; k++ {
				r.Admit(a)
				r.Admit(b)
			}
		}
		if w == 4 {
			for _, e := range engs {
				stageRenegotiation(t, e, a, b, 0.25, 0.25, 1, gate)
				if info := e.Rollout(); info.Staged == 0 || info.GateEpoch != gate {
					t.Fatalf("staging missing: %+v", info)
				}
			}
		}
		if w == 6 {
			// Demand estimates have settled; from here through the swap and
			// beyond, no window may under-serve a floor. (Windows 1-4 carry
			// EWMA warm-up transients unrelated to the rollout.)
			settledA, settledB = auditor.UnderMC(int(a)), auditor.UnderMC(int(b))
		}
	}

	for _, e := range engs {
		if mc := e.Access().MC[a]; mc != 40 {
			t.Fatalf("post-swap MC_A = %v, want 40", mc)
		}
		if info := e.Rollout(); info.Staged != 0 || info.Rollouts != 1 {
			t.Fatalf("rollout did not converge: %+v", info)
		}
	}

	// Golden version sequence: the boot configuration (set version 0) up to
	// the gate, set 1 from the gate window on, identical across redirectors.
	for id, r := range reds {
		recs := r.obsv.Ring().Snapshot(windows + 2)
		if len(recs) < windows {
			t.Fatalf("redirector %d has %d records", id, len(recs))
		}
		for _, rec := range recs {
			want := uint64(0)
			if int(rec.Window) >= gate {
				want = 1
			}
			if rec.ConfigVersion != want {
				t.Fatalf("redirector %d window %d ran version %d, want %d",
					id, rec.Window, rec.ConfigVersion, want)
			}
		}
	}
	if mixed := auditor.MixedVersion(); mixed != 0 {
		t.Fatalf("%d mixed-version windows", mixed)
	}
	if dA, dB := auditor.UnderMC(int(a))-settledA, auditor.UnderMC(int(b))-settledB; dA != 0 || dB != 0 {
		t.Fatalf("under-floor windows across the swap: A +%d, B +%d", dA, dB)
	}
}

// TestLaggingRedirectorConservative pins the fallback: a redirector whose
// epoch passes the gate without having received the staged version must not
// run the old entitlements as if nothing happened — it falls back to the
// conservative claim, and its engine holds the rollout (no promotion) until
// it crosses, while a peer that has the set promotes on its own.
func TestLaggingRedirectorConservative(t *testing.T) {
	engs, reds, a, b := fleet(t, 2)
	r0, r1 := reds[0], reds[1]
	global := []float64{80, 40}
	for w := 1; w <= 3; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		for _, r := range []*Redirector{r0, r1} {
			r.SetGlobal(global, now)
			r.SetRollout(w, 0)
			if err := r.StartWindow(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range engs {
		stageRenegotiation(t, e, a, b, 0.25, 0.25, 1, 5)
	}

	// Window 6 is past the gate. Redirector 0 has the set; redirector 1
	// never received it.
	now := 600 * time.Millisecond
	r0.SetGlobal(global, now)
	r0.SetRollout(6, 1)
	if err := r0.StartWindow(now); err != nil {
		t.Fatal(err)
	}
	r1.SetGlobal(global, now)
	r1.SetRollout(6, 0)
	consBefore := r1.Conservative
	if err := r1.StartWindow(now); err != nil {
		t.Fatal(err)
	}
	if r1.Conservative != consBefore+1 {
		t.Fatalf("lagging redirector did not fall back to the conservative claim (%d → %d)",
			consBefore, r1.Conservative)
	}
	if info := engs[0].Rollout(); info.Staged != 0 || info.Rollouts != 1 {
		t.Fatalf("the redirector with the set did not promote: %+v", info)
	}
	if info := engs[1].Rollout(); info.Staged == 0 || info.Rollouts != 0 {
		t.Fatalf("rollout promoted with a lagging redirector: %+v", info)
	}

	// The set arrives one window later: the laggard crosses and its engine
	// commits too.
	now = 700 * time.Millisecond
	for _, r := range []*Redirector{r0, r1} {
		r.SetGlobal(global, now)
		r.SetRollout(7, 1)
		if err := r.StartWindow(now); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engs {
		if info := e.Rollout(); info.Staged != 0 || info.Rollouts != 1 {
			t.Fatalf("rollout did not converge after the set arrived: %+v", info)
		}
		if mc := e.Access().MC[a]; mc != 40 {
			t.Fatalf("post-swap MC_A = %v, want 40", mc)
		}
	}
}

// TestStageSetIdempotent guards re-delivery: the tree may hand the same
// versioned set to the engine many times (every broadcast repeats the newest
// config); only the first staging may act.
func TestStageSetIdempotent(t *testing.T) {
	e, a, b := communityEngine(t, 0)
	clone := e.System().Clone()
	if err := clone.SetAgreement(b, a, 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	set := clone.Snapshot(1)
	v1, err := e.StageSet(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.StageSet(set, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("re-delivered set produced a new generation: %d then %d", v1, v2)
	}
	if got := e.Access().MC[a]; got != 40 {
		t.Fatalf("MC_A = %v, want 40", got)
	}
}

// TestConcurrentRolloutRace hammers the rollout machinery from many
// goroutines — windows starting, admissions flowing, sets staging,
// capacities re-interpreting, on every member's engine — and relies on -race
// to flag any unsynchronized access. Run with: go test -race.
func TestConcurrentRolloutRace(t *testing.T) {
	engs, reds, a, b := fleet(t, 4)
	const iters = 200
	var wg sync.WaitGroup
	for id, r := range reds {
		wg.Add(1)
		go func(id int, r *Redirector) {
			defer wg.Done()
			global := []float64{80, 40}
			for w := 1; w <= iters; w++ {
				now := time.Duration(w) * time.Millisecond
				r.SetGlobal(global, now)
				r.SetRollout(w, uint64(w/2))
				if err := r.StartWindow(now); err != nil {
					t.Error(err)
					return
				}
				r.Admit(a)
				r.Admit(b)
			}
		}(id, r)
	}
	// The staging goroutine models the tree-delivery path: sets are built from
	// a private base system (a ctrlplane.Plane's clone, or a decoded network
	// payload) — never from the engine's live system, which mutators own.
	base := engs[0].System().Clone()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			lb := 0.25
			if i%2 == 1 {
				lb = 0.5
			}
			clone := base.Clone()
			if err := clone.SetAgreement(b, a, lb, lb); err != nil {
				continue
			}
			for _, e := range engs {
				if _, err := e.StageSet(clone.Snapshot(uint64(i+1)), i*4); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			caps := []float64{320, 320}
			if i%2 == 1 {
				caps = []float64{160, 160}
			}
			for _, e := range engs {
				if _, err := e.UpdateCapacities(caps); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestWindowRecordsCompareSetVersions: window records carry the
// agreement-set version the generation was built from, not the engine's own
// generation count. A member restarted after two renegotiations restages
// only the newest set (two generations) while its peer built three; both
// enforce set 2, so their windows are not mixed. A member still on the boot
// configuration is.
func TestWindowRecordsCompareSetVersions(t *testing.T) {
	peer, a, b := communityEngine(t, 3)
	stageRenegotiation(t, peer, a, b, 0.25, 0.25, 1, 0)
	stageRenegotiation(t, peer, a, b, 0.3, 0.3, 2, 0)
	restarted, _, _ := communityEngine(t, 3)
	stageRenegotiation(t, restarted, a, b, 0.3, 0.3, 2, 0)
	boot, _, _ := communityEngine(t, 3)
	if peer.Version() == restarted.Version() {
		t.Fatalf("both engines at generation %d: the scenario needs them to differ", peer.Version())
	}
	aud := obs.NewAuditor(peer.PrincipalNames())
	// runWindow schedules window 1 and commits its record by starting the
	// next one.
	runWindow := func(id int, e *Engine) {
		r := e.NewRedirector(id)
		r.SetObserver(e.NewObserver(id, aud, 4))
		for w := 1; w <= 2; w++ {
			if err := r.StartWindow(time.Duration(w) * 100 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	runWindow(0, peer)
	runWindow(1, restarted)
	if got := aud.MixedVersion(); got != 0 {
		t.Fatalf("set 2 on two engines counted %d mixed windows, want 0", got)
	}
	runWindow(2, boot)
	if got := aud.MixedVersion(); got != 1 {
		t.Fatalf("the boot configuration beside set 2 counted %d mixed windows, want 1", got)
	}
}
