package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/<id>.golden from this build")

// runAndCheck executes an experiment, diffs its output against
// testdata/<id>.golden (the regression gate: any moved cell fails) and
// fails on any shape violation against the paper (the reproduction gate).
func runAndCheck(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	t.Logf("\n%s", res.Summary())
	checkGolden(t, id, res)
	if v := res.Violations(); len(v) > 0 {
		t.Fatalf("%s does not reproduce the paper: %v", id, v)
	}
	return res
}

func goldenPath(id string) string { return filepath.Join("testdata", id+".golden") }

// checkGolden compares res.Summary(), followed by the per-second series
// table where the experiment records one, with the experiment's golden
// file, or rewrites the file under -update.
func checkGolden(t *testing.T, id string, res *Result) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(res.Summary())
	if res.Recorder != nil {
		if err := res.Recorder.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
	}
	got, path := sb.String(), goldenPath(id)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (go test -run <its test> -update writes it)", id, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s moved from %s at line %d (rerun with -update if the move is meant):\n- %s\n+ %s",
				id, path, i+1, w, g)
			return
		}
	}
}

func TestFig1EndpointViolation(t *testing.T) {
	res := runAndCheck(t, "fig1")
	// The headline claim: end-point enforcement under-serves B.
	if res.Values["B@endpoint"] >= res.Values["B@coordinated"] {
		t.Fatal("end-point enforcement did not under-serve B")
	}
}

func TestFig3CurrencyValues(t *testing.T) {
	runAndCheck(t, "fig3")
}

func TestFig6ProviderL7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "fig6")
}

func TestFig7CommunityThetaL7(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "fig7")
	// A must be served at about twice B's rate.
	a, _ := res.Measured("steady", "A")
	b, _ := res.Measured("steady", "B")
	if a < 1.7*b || a > 2.3*b {
		t.Fatalf("A/B ratio = %.2f, want ≈2", a/b)
	}
}

func TestFig8NetworkDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "fig8")
	// Phase 3 (lag window) must show contention: B still above its
	// post-enforcement rate while A ramps.
	b3, _ := res.Measured("phase3", "B")
	b4, _ := res.Measured("phase4", "B")
	if b3 <= b4 {
		t.Fatalf("no competition during the lag: B phase3 %.1f <= phase4 %.1f", b3, b4)
	}
}

func TestFig9CommunityL4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "fig9")
}

func TestFig10ProviderIncomeL4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "fig10")
}

func TestAblationQueuing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "abl-queue")
	// The qualitative claim: implicit beats explicit well before saturation.
	if res.Values["implicit@T=32"] < 1.5*res.Values["explicit@T=32"] {
		t.Fatalf("implicit %.0f vs explicit %.0f at T=32: anomaly not visible",
			res.Values["implicit@T=32"], res.Values["explicit@T=32"])
	}
}

func TestAblationTree(t *testing.T) {
	runAndCheck(t, "abl-tree")
}

func TestExtReselling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "ext-resell")
}

func TestExtLocalityCaps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-local")
	// The cap must actually shift load: B gains, A loses.
	if res.Values["B@capped"] <= res.Values["B@uncapped"] {
		t.Fatalf("locality cap had no effect: %v", res.Values)
	}
}

func TestExtDynamicCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "ext-dynamic")
}

func TestExtFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-failover")
	if res.Values["reconfigurations@failed"] < 1 {
		t.Fatal("tree never reconfigured")
	}
}

func TestAblationWindowSize(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "abl-window")
	// Longer windows must track the post-change target more loosely.
	short := res.Values["error@w=100ms"]
	long := res.Values["error@w=2s"]
	if long <= short {
		t.Fatalf("window sweep not monotone: err(100ms)=%.1f err(2s)=%.1f", short, long)
	}
	if short > 40 {
		t.Fatalf("100 ms window error = %.1f req/s, too loose", short)
	}
}

func TestAblationConservativeFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "abl-conservative")
	if res.Values["B@aggressive"] < 1.6*res.Values["B@conservative"] {
		t.Fatalf("aggressive claiming did not over-serve B: %v", res.Values)
	}
}

// TestExtChaos: the seeded fault schedule kills one of S's two servers
// mid-run; served rates must re-converge to the re-interpreted (halved)
// entitlements, return to the original split after the restart, and — after
// each convergence settling period — no window may serve a principal below
// the recomputed mandatory floor. The run must also be bit-reproducible:
// same seed, same series.
func TestExtChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-chaos")
	if res.Values["degraded-windows@plane"] <= 0 {
		t.Fatalf("no window was flagged degraded: %v", res.Values)
	}
	table := func(r *Result) string {
		var sb strings.Builder
		if err := r.Recorder.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	again, err := Run("ext-chaos")
	if err != nil {
		t.Fatal(err)
	}
	if table(res) != table(again) {
		t.Fatal("ext-chaos series differ between identical seeded runs")
	}
}

// TestExperimentsAreDeterministic: the virtual-time harness must produce
// bit-identical series on repeated runs — the property that makes every
// figure reproduction exactly repeatable.
func TestExperimentsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	run := func() string {
		res, err := Run("fig9")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.Recorder.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatal("fig9 series differ between identical runs")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("IDs = %v", ids)
	}
	for _, id := range ids {
		if _, err := os.Stat(goldenPath(id)); err != nil {
			t.Errorf("experiment %s has no golden output: %v", id, err)
		}
	}
	if _, err := Run("nope"); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("unknown id error = %v", err)
	}
}

func TestResultMeasuredMissing(t *testing.T) {
	res := &Result{}
	if _, ok := res.Measured("x", "y"); ok {
		t.Fatal("Measured on empty result succeeded")
	}
	res.Expected = []Expectation{{Phase: "x", Series: "y", Paper: 1}}
	if v := res.Violations(); len(v) != 1 || !strings.Contains(v[0], "no measurement") {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(res.Summary(), "MISMATCH") {
		t.Fatal("Summary must surface mismatches")
	}
}

// TestExtReconfig: a mid-run SLA renegotiation flows through the versioned
// control plane, rides the combining tree, and swaps fleet-wide at one
// epoch-gated window boundary — with no mixed-version windows, no settled
// under-floor windows, and a bit-identical replay.
func TestExtReconfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-reconfig")
	if res.Values["mixed-version@windows"] != 0 {
		t.Fatalf("%v windows mixed agreement versions", res.Values["mixed-version@windows"])
	}
	if res.Values["identical@replay"] != 1 {
		t.Fatal("two runs of the experiment diverged: not deterministic")
	}
}

// TestExtHierPlane: the hierarchical plane experiment survives a regional
// sub-root crash with re-convergence, no mixed-version windows, and a
// bit-identical replay.
func TestExtHierPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-hier")
	if res.Values["identical@replay"] != 1 {
		t.Fatal("two runs of the experiment diverged: not deterministic")
	}
	if res.Values["mixed-version@windows"] != 0 {
		t.Fatalf("%v windows mixed agreement versions", res.Values["mixed-version@windows"])
	}
	if res.Values["promoted-parent@west"] != 0 || res.Values["leaf-parent@west"] != 4 {
		t.Fatalf("west region re-parented wrong: %v", res.Values)
	}
}

// TestExtSoak: the crash-recovery soak commits its rollout with two of
// three members dead, the restarted members rejoin and re-enter
// enforcement, and the run replays bit-identically.
func TestExtSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	runAndCheck(t, "ext-soak")
}

// TestExtBudget: entitlements fold down the budget tree, the burst never
// pushes a sibling under its floor, the mid-run lease sets capacity aside
// and reclaims it within the documented bound, and the run replays
// bit-identically.
func TestExtBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runAndCheck(t, "ext-budget")
	if res.Values["identical@replay"] != 1 {
		t.Fatal("two runs of the experiment diverged: not deterministic")
	}
	if res.Values["set-aside@capacity"] != 120 || res.Values["restored@capacity"] != 160 {
		t.Fatalf("lease capacity set-aside/reclaim missed the %v-window bound: %v",
			res.Values["bound@reclaim"], res.Values)
	}
}
