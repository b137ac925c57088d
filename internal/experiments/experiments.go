// Package experiments contains runnable reproductions of every figure in
// the paper's evaluation (Figures 6–10), the two analytic figures (1, 3),
// and two ablations the paper describes in prose (explicit-vs-implicit
// queuing, combining tree vs pairwise exchange).
//
// Each experiment returns a Result carrying the measured time series, the
// phase means, and the paper's expected values, so callers (tests, the
// benchmark harness, cmd/experiment) can print paper-vs-measured tables and
// check shapes mechanically.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Expectation is one paper data point: the mean rate of a series during a
// phase (or a named scalar for analytic experiments).
type Expectation struct {
	// Phase names the interval (must match a Result.Phases entry), or is
	// the key prefix for Values-based experiments.
	Phase string
	// Series is the principal/series name.
	Series string
	// Paper is the value read off the paper's figure.
	Paper float64
	// RelTol is the acceptable relative deviation (default 0.10).
	RelTol float64
	// AbsTol is the acceptable absolute deviation used when Paper is small
	// (default 5).
	AbsTol float64
}

// Result is the outcome of one experiment run.
type Result struct {
	ID    string
	Title string

	// Recorder holds per-second rate series for figure experiments (nil
	// for analytic experiments).
	Recorder *metrics.Recorder
	// Phases are the assertable measurement intervals (transition edges
	// already trimmed).
	Phases []metrics.Phase

	// Values holds scalar results for analytic experiments, keyed
	// "series@phase".
	Values map[string]float64

	Expected []Expectation
	Notes    []string
}

// Measured returns the measured value for an expectation's (phase, series).
func (r *Result) Measured(phase, series string) (float64, bool) {
	if v, ok := r.Values[series+"@"+phase]; ok {
		return v, true
	}
	if r.Recorder == nil {
		return 0, false
	}
	var ph *metrics.Phase
	for i := range r.Phases {
		if r.Phases[i].Name == phase {
			ph = &r.Phases[i]
			break
		}
	}
	if ph == nil {
		return 0, false
	}
	for i := 0; i < r.Recorder.NumSeries(); i++ {
		if r.Recorder.Name(i) == series {
			return r.Recorder.MeanRateBetween(i, ph.From, ph.To), true
		}
	}
	return 0, false
}

// Violations compares every expectation against the measurement and returns
// human-readable mismatches (empty means the reproduction matches the
// paper's shape).
func (r *Result) Violations() []string {
	var out []string
	for _, e := range r.Expected {
		got, ok := r.Measured(e.Phase, e.Series)
		if !ok {
			out = append(out, fmt.Sprintf("%s/%s: no measurement", e.Phase, e.Series))
			continue
		}
		relTol := e.RelTol
		if relTol == 0 {
			relTol = 0.10
		}
		absTol := e.AbsTol
		if absTol == 0 {
			absTol = 5
		}
		diff := math.Abs(got - e.Paper)
		if diff > absTol && diff > relTol*math.Abs(e.Paper) {
			out = append(out, fmt.Sprintf("%s/%s: paper %.1f, measured %.1f",
				e.Phase, e.Series, e.Paper, got))
		}
	}
	return out
}

// Summary renders a paper-vs-measured table for EXPERIMENTS.md and the
// cmd/experiment output.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, e := range r.Expected {
		got, _ := r.Measured(e.Phase, e.Series)
		fmt.Fprintf(&sb, "  %-12s %-10s paper %8.1f   measured %8.1f\n",
			e.Phase, e.Series, e.Paper, got)
	}
	if extra := r.unexpectedValues(); len(extra) > 0 {
		for _, k := range extra {
			fmt.Fprintf(&sb, "  %-23s measured %8.1f\n", k, r.Values[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	if v := r.Violations(); len(v) > 0 {
		for _, s := range v {
			fmt.Fprintf(&sb, "  MISMATCH: %s\n", s)
		}
	} else {
		sb.WriteString("  shape: OK\n")
	}
	return sb.String()
}

// unexpectedValues lists Values keys not covered by an expectation, sorted.
func (r *Result) unexpectedValues() []string {
	covered := make(map[string]bool)
	for _, e := range r.Expected {
		covered[e.Series+"@"+e.Phase] = true
	}
	var out []string
	for k := range r.Values {
		if !covered[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Runner produces a Result; experiments are pure functions of their seed
// configuration, so repeated runs are identical.
type Runner func() (*Result, error)

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	id     string
	runner Runner
}{
	{"fig1", Fig1},
	{"fig3", Fig3},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"abl-queue", AblationQueuing},
	{"abl-tree", AblationTree},
	{"abl-window", AblationWindowSize},
	{"abl-conservative", AblationConservativeFallback},
	{"ext-hier", ExtHierPlane},
	{"ext-resell", ExtReselling},
	{"ext-local", ExtLocality},
	{"ext-dynamic", ExtDynamicCapacity},
	{"ext-failover", ExtFailover},
	{"ext-chaos", ExtChaos},
	{"ext-reconfig", ExtReconfig},
	{"ext-soak", ExtSoak},
	{"ext-budget", ExtBudget},
}

// IDs lists all experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes the experiment with the given id.
func Run(id string) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.runner()
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// replayed executes run twice and returns the first outcome with the value
// every Ext* experiment publishes as identical@replay: 1 when the second
// run's digest (see sim.Sim.Digest) equals the first's, else 0.
func replayed[T any](run func() (T, uint64, error)) (T, float64, error) {
	first, want, err := run()
	if err != nil {
		return first, 0, err
	}
	_, got, err := run()
	if err != nil || got != want {
		return first, 0, err
	}
	return first, 1, nil
}

// trim returns a phase whose mean excludes settle seconds at the start and
// one second at the end — EWMA warm-up and tree lag.
func trim(name string, from, to, settle time.Duration) metrics.Phase {
	return metrics.Phase{Name: name, From: from + settle, To: to - time.Second}
}
