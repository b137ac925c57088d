package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs both passes of every workload for a fraction of a second
// and checks that every catalogued metric comes out, finite. It keeps the
// benchmark compiling and booting through refactors of the packages it
// drives; it does not judge the numbers or the correctness gates, which need
// a full-length run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here judges timings, so the workloads may share the cores
			smoke(t, w)
		})
	}
}

func smoke(t *testing.T, w workload) {
	for _, traced := range []bool{false, true} {
		rep, err := run(w, runOptions{seed: 1, seconds: 0.2, trace: traced, outDir: t.TempDir(), short: true})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", w.name, traced, err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(rep.Result.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, catalogue has %d", w.name, traced, len(rep.Result.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Result.Metrics[d.Name]
			if !ok {
				t.Errorf("%s trace=%v: %s missing", w.name, traced, d.Name)
				continue
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s trace=%v: %s = %v %q", w.name, traced, d.Name, m.Value, m.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
			}
		}
		if rep.Result.Failed != 0 {
			t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, traced, rep.Result.Failed, rep.Result.Attempted, rep.Violations)
		}
		if rep.Claim != nil {
			t.Errorf("%s: report claims %q; this benchmark claims nothing", w.name, *rep.Claim)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the catalogue the
// program reports from, so the driver and the program agree on every name,
// unit, direction and bound.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) || len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer; catalogue has %d, %d, %d",
			len(file.Workloads), len(file.EndToEnd), len(file.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		if got := file.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := file.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, got, d)
		}
	}
}

// TestPercentilesAreExact checks the order statistics and the rule that a
// percentile with fewer than minBeyond samples beyond it is refused.
func TestPercentilesAreExact(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i))
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{{0.50, 50, true}, {0.90, 90, true}, {0.91, 91, false}, {0.99, 99, false}} {
		got, ok := s.pct(tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%.0f of 1..100 = %v (printable %v), want %v (%v)", 100*tc.q, got, ok, tc.want, tc.ok)
		}
	}
	var few samples
	for i := 0; i < 19; i++ {
		few.add(time.Duration(i))
	}
	if _, ok := few.pct(0.5); ok {
		t.Error("median of 19 samples has only 9 beyond it and must be refused")
	}
}

// TestSelfTime checks that unaccounted time is a parent's duration minus what
// its children cover, summed over parents, as a share of root time.
func TestSelfTime(t *testing.T) {
	epoch := time.Now()
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	log := newSpanLogs(1, epoch)[0]
	root := log.newID()
	step := log.newID()
	log.add("a", step, at(10), at(40))
	log.put(step, "step", root, at(0), at(50)) // 20 us of its own
	log.add("wait", root, at(50), at(90))
	log.put(root, "cycle", 0, at(0), at(100)) // 10 us of its own
	sum := summarize([]*spanLog{log})
	if want := 30.0; math.Abs(sum.unaccountedPct-want) > 1e-9 {
		t.Errorf("unaccounted = %v%%, want %v%%", sum.unaccountedPct, want)
	}
	if n := sum.byName["a"].n(); n != 1 || len(sum.byName) != 4 {
		t.Errorf("summary holds %d names, %d spans named a", len(sum.byName), n)
	}
}
