package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints one row per workload × end-to-end metric comparing two
// result files written by -workload all -o. A file may hold several untraced
// runs of a workload (-repeat); medians are compared and the old side's
// run-to-run spread decides whether a difference can be resolved at all.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := oldRuns[wl.name][d.Name], newRuns[wl.name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %8s %7s  %s\n", wl.name, d.Name, "-", "-", "-", "-", "-", "missing")
				continue
			}
			om, nm := median(o), median(n)
			change := 0.0
			if om != 0 {
				change = (nm - om) / om
			}
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			spread := max(relSpread(o), relSpread(n))
			fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.name, d.Name, om, nm, 100*change, 100*spread, 100*d.Bound,
				verdict(worse, spread, d.Bound, min(len(o), len(n))))
		}
	}
	return nil
}

// verdict classifies one pairing. A difference inside the bound is
// unchanged; outside it, it is improved or regressed only when the runs
// themselves repeat more tightly than the bound — otherwise unresolved.
func verdict(worse, spread, bound float64, runs int) string {
	switch {
	case spread > bound:
		return "unresolved (spread exceeds bound)"
	case worse > bound:
		return "regressed"
	case -worse > bound && -worse > spread:
		return "improved"
	case runs < 2:
		return "unchanged (one run a side: spread unknown)"
	}
	return "unchanged"
}

// relSpread is the distance between the quartiles as a share of the median
// (the whole range when there are fewer than four runs, 0 for one).
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	lo, hi := c[0], c[len(c)-1]
	if len(c) >= 4 {
		lo, hi = c[len(c)/4], c[(3*len(c))/4]
	}
	return (hi - lo) / m
}

// loadRuns reads a suite (or a single report) into workload → metric →
// values, untraced passes only.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil || rep.Params.Workload == "" {
			return nil, fmt.Errorf("%s holds neither a suite nor a report", path)
		}
		s.Runs = []*report{&rep}
	}
	out := map[string]map[string][]float64{}
	for _, rep := range s.Runs {
		if rep.Params.Trace {
			continue
		}
		m := out[rep.Params.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[rep.Params.Workload] = m
		}
		for name, v := range rep.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out, nil
}
