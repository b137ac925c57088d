package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/budget"
)

// renegotiation stages agreement sets on reconfig_churn's engine: the
// 48-node budget tree (ternary, every edge [0.3, 1], a 20 000 req/s root) in
// Provider mode at the root, 50 ms windows, 8 admission points. Each step
// stages the next version of a set that toggles one edge's floor between
// 0.27 and 0.3, as the benchmark's control plane does.
type renegotiation struct {
	e       *Engine
	sets    [2]*agreement.Set
	version uint64
}

func newRenegotiation(tb testing.TB) *renegotiation {
	tb.Helper()
	var build func(i int) budget.Node
	build = func(i int) budget.Node {
		n := budget.Node{Name: fmt.Sprintf("n%02d", i), Floor: 0.3, Ceil: 1}
		for c := 3*i + 1; c <= 3*i+3 && c < 48; c++ {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	root := build(0)
	root.Floor, root.Ceil, root.Capacity = 0, 0, 20000
	sys, err := budget.Compile(budget.Spec{Roots: []budget.Node{root}})
	if err != nil {
		tb.Fatal(err)
	}
	provider, _ := sys.Lookup("n00")
	owner, _ := sys.Lookup("n01")
	user, _ := sys.Lookup("n05")
	e, err := NewEngine(Config{Mode: Provider, System: sys, ProviderPrincipal: provider,
		Window: 50 * time.Millisecond, NumRedirectors: 8})
	if err != nil {
		tb.Fatal(err)
	}
	d := &renegotiation{e: e}
	for i, floor := range []float64{0.27, 0.3} {
		c := sys.Clone()
		c.MustSetAgreement(owner, user, floor, 1)
		d.sets[i] = c.Snapshot(0)
	}
	return d
}

func (d *renegotiation) step(tb testing.TB) {
	set := d.sets[d.version%2]
	d.version++
	set.Version = d.version
	if _, err := d.e.StageSet(set, 0); err != nil {
		tb.Fatal(err)
	}
}

// TestStageSetAllocs pins one renegotiation on the 48-node budget tree —
// apply the set, refold the dirty owner's ancestors, rebuild the window
// entitlements and scheduler — at 64 allocations. Before edge lists and the
// one-pass ScaledAccess it cost 502.
func TestStageSetAllocs(t *testing.T) {
	d := newRenegotiation(t)
	d.step(t)
	got := testing.AllocsPerRun(50, func() { d.step(t) })
	t.Logf("StageSet: %v allocs", got)
	if got > 64 {
		t.Fatalf("StageSet allocates %v times on the 48-node tree, pin 64", got)
	}
}

// BenchmarkStageSet times one renegotiation on reconfig_churn's engine.
func BenchmarkStageSet(b *testing.B) {
	b.Run("budget-48", func(b *testing.B) {
		d := newRenegotiation(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.step(b)
		}
	})
}
