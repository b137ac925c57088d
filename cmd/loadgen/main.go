// Command loadgen is the macro-benchmark driver: open-loop, seeded request
// streams against a redirector fleet, with latency percentiles and
// agreement-conformance deltas in one report.
//
// It runs in one of two modes:
//
// External mode drives an already-running fleet over real sockets —
// Layer-7 base URLs via -targets (round-robinned) or Layer-4 service
// addresses via -l4. Conformance counters are scraped from the fleet's
// /v1/metrics endpoints (-scrape) before and after the measured span:
//
//	loadgen -targets http://127.0.0.1:8080,http://127.0.0.1:8081 \
//	        -scrape http://127.0.0.1:9090/v1/metrics,http://127.0.0.1:9091/v1/metrics \
//	        -orgs alpha,beta -rate 200 -duration 30s -warmup 5s -process poisson -seed 1
//
// Sweep mode (-sweep) is what `make bench-scale` runs: it boots an
// in-process Layer-7 fleet per point of the scale grid (redirector count ×
// combining-tree fanout × offered load, see loadgen.DefaultSweep), drives
// every point over loopback TCP, and writes a BENCH_scale.json report
// (one benchResult per grid point). Every point is asserted to settle
// with zero under-floor windows and zero transport errors; any violation
// fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// benchResult is one row of the sweep report, in `go test -bench` terms
// (iterations, ns/op) plus the point's flat metric map.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Baseline json.RawMessage `json:"baseline,omitempty"`
	Results  []benchResult   `json:"results"`
}

// pointMetrics folds one run plus its conformance delta into the flat
// metric map carried per sweep point.
func pointMetrics(res *loadgen.Result, offered float64, delta loadgen.Conformance) (benchResult, *obs.Histogram) {
	agg := obs.NewHistogram()
	var ok int64
	for i := range res.Streams {
		agg.Merge(res.Streams[i].Hist)
		ok += res.Streams[i].OK
	}
	_, _, rejected, errors := res.Totals()
	r := benchResult{
		Iterations: ok,
		NsPerOp:    float64(agg.Mean().Nanoseconds()),
		Metrics: map[string]float64{
			"p50_ms":               float64(agg.Quantile(0.50)) / 1e6,
			"p95_ms":               float64(agg.Quantile(0.95)) / 1e6,
			"p99_ms":               float64(agg.Quantile(0.99)) / 1e6,
			"p999_ms":              float64(agg.Quantile(0.999)) / 1e6,
			"max_ms":               float64(agg.Max()) / 1e6,
			"qps":                  float64(ok) / res.Measured.Seconds(),
			"offered_qps":          offered,
			"rejected":             float64(rejected),
			"errors":               float64(errors),
			"windows":              delta.Windows,
			"under_floor_windows":  delta.UnderFloor,
			"over_ceiling_windows": delta.OverCeiling,
			"conservative_windows": delta.Conservative,
		},
	}
	return r, agg
}

// runSweepPoint boots a fleet for one grid point, drives it, and returns
// the point's result row. The conformance delta is measured from the
// warmup boundary so convergence-phase fallback windows don't count
// against the settled assertion.
func runSweepPoint(pt loadgen.SweepPoint) (benchResult, error) {
	def := loadgen.SweepDefaults
	capacity, window := def.Capacity, def.Window
	duration, warmup := def.Duration, def.Warmup
	if pt.Capacity > 0 {
		capacity = pt.Capacity
	}
	if pt.Window > 0 {
		window = pt.Window
	}
	if pt.Duration > 0 {
		duration = pt.Duration
	}
	if pt.Warmup > 0 {
		warmup = pt.Warmup
	}
	fleet, err := loadgen.StartFleet(loadgen.FleetConfig{
		Redirectors: pt.Redirectors,
		Fanout:      pt.Fanout,
		Capacity:    capacity,
		Backends:    def.Backends,
		Window:      window,
		Regions:     pt.Regions,
		// 1% head sampling plus the slowest 8 per window: enough spans to
		// attribute each point's tail to a phase without perturbing it.
		Trace: &obs.TraceConfig{SampleEvery: 100, SlowestK: 8},
	})
	if err != nil {
		return benchResult{}, err
	}
	defer fleet.Close()
	target, err := fleet.Target()
	if err != nil {
		return benchResult{}, err
	}

	settled := make(chan loadgen.Conformance, 1)
	timer := time.AfterFunc(warmup, func() { settled <- fleet.Conformance() })
	defer timer.Stop()

	res, err := loadgen.Run(target, loadgen.Options{
		Streams:  pt.Streams(fleet.Capacity, fleet.Orgs),
		Duration: duration,
		Warmup:   warmup,
	})
	if err != nil {
		return benchResult{}, err
	}
	delta := fleet.Conformance().Sub(<-settled)

	offered := pt.Load * fleet.Capacity
	row, _ := pointMetrics(res, offered, delta)
	row.Name = pt.Name()
	// Per-phase tail attribution: which stage of the request path the
	// point's p99 actually lives in (span clocks, not client clocks).
	ph := fleet.Phases()
	row.Metrics["phase_admit_p99_ms"] = float64(ph.Admit.Quantile(0.99)) / 1e6
	row.Metrics["phase_park_p99_ms"] = float64(ph.Park.Quantile(0.99)) / 1e6
	row.Metrics["phase_dial_p99_ms"] = float64(ph.Dial.Quantile(0.99)) / 1e6
	row.Metrics["phase_proxy_p99_ms"] = float64(ph.Proxy.Quantile(0.99)) / 1e6
	// Hierarchical points record the fleet-wide delta-compression counters
	// (the in-process sum of every node's rsa_tree_delta_* series) so the
	// report shows upstream message volume, not just latency.
	if pt.Regions > 1 {
		ts := fleet.TreeStats()
		row.Metrics["delta_frames"] = float64(ts.Delta.Frames)
		row.Metrics["delta_full_frames"] = float64(ts.Delta.FullFrames)
		row.Metrics["delta_entries_sent"] = float64(ts.Delta.EntriesSent)
		row.Metrics["delta_entries_suppressed"] = float64(ts.Delta.EntriesSuppressed)
		row.Metrics["delta_bytes_saved"] = float64(ts.Delta.BytesSaved)
		row.Metrics["delta_desyncs"] = float64(ts.Delta.Desyncs)
	}

	if delta.UnderFloor > 0 {
		return row, fmt.Errorf("%s: %.0f settled under-floor windows (agreement violated)",
			pt.Name(), delta.UnderFloor)
	}
	if delta.MixedVersion > 0 {
		return row, fmt.Errorf("%s: %.0f mixed-version windows", pt.Name(), delta.MixedVersion)
	}
	if errs := row.Metrics["errors"]; errs > 0 {
		return row, fmt.Errorf("%s: %.0f transport errors against a healthy fleet", pt.Name(), errs)
	}
	if row.Iterations == 0 {
		return row, fmt.Errorf("%s: no requests completed", pt.Name())
	}
	return row, nil
}

// runSweep executes the full grid and writes the report.
func runSweep(outPath, baselinePath string) error {
	rep := report{Results: []benchResult{}}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("baseline %s: not valid JSON", baselinePath)
		}
		rep.Baseline = json.RawMessage(raw)
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintln(os.Stderr, "loadgen: FAIL", err)
	}
	hier := make(map[int]benchResult)
	for _, pt := range loadgen.DefaultSweep() {
		row, err := runSweepPoint(pt)
		if err != nil {
			fail(err)
		} else if pt.Regions > 1 {
			hier[pt.Redirectors] = row
		}
		if row.Name != "" {
			rep.Results = append(rep.Results, row)
			fmt.Fprintf(os.Stderr,
				"loadgen: %-24s qps=%7.1f/%7.1f p50=%6.2fms p99=%7.2fms p999=%7.2fms under_floor=%.0f\n",
				row.Name, row.Metrics["qps"], row.Metrics["offered_qps"],
				row.Metrics["p50_ms"], row.Metrics["p99_ms"], row.Metrics["p999_ms"],
				row.Metrics["under_floor_windows"])
		}
	}
	// Hierarchical-grid assertions: delta compression must actually bite on
	// every hier point, and the 64→256 quadrupling of the fleet must cost
	// strictly less than 4× the transmitted delta entries — the sub-linear
	// upstream message volume the hierarchical plane exists to buy.
	for r, row := range hier {
		if row.Metrics["delta_entries_suppressed"] == 0 || row.Metrics["delta_bytes_saved"] == 0 {
			fail(fmt.Errorf("%s: delta compression suppressed nothing (r=%d)", row.Name, r))
		}
		if row.Metrics["delta_desyncs"] > 0 {
			fail(fmt.Errorf("%s: %.0f delta decoder desyncs on a healthy fleet", row.Name, row.Metrics["delta_desyncs"]))
		}
	}
	if lo, ok := hier[64]; ok {
		if hi, ok := hier[256]; ok && lo.Metrics["delta_entries_sent"] > 0 {
			ratio := hi.Metrics["delta_entries_sent"] / lo.Metrics["delta_entries_sent"]
			fmt.Fprintf(os.Stderr, "loadgen: delta entries sent 64→256: %.0f → %.0f (ratio %.2f, want < 4.0)\n",
				lo.Metrics["delta_entries_sent"], hi.Metrics["delta_entries_sent"], ratio)
			if ratio >= 4.0 {
				fail(fmt.Errorf("upstream message volume grew super-linearly: 4x redirectors cost %.2fx delta entries", ratio))
			}
		}
	}
	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" || outPath == "-" {
		_, _ = os.Stdout.Write(enc)
	} else if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	return firstErr
}

// buildTarget assembles the external-mode target from flags.
func buildTarget(targets, l4addrs string, timeout time.Duration) (loadgen.Target, error) {
	if targets != "" && l4addrs != "" {
		return nil, fmt.Errorf("use -targets or -l4, not both")
	}
	if targets != "" {
		var list []loadgen.Target
		for _, base := range strings.Split(targets, ",") {
			t, err := loadgen.NewHTTPTarget(strings.TrimSpace(base))
			if err != nil {
				return nil, err
			}
			list = append(list, t)
		}
		if len(list) == 1 {
			return list[0], nil
		}
		return &loadgen.MultiTarget{Targets: list}, nil
	}
	if l4addrs != "" {
		addrs := make(map[int]string)
		for _, pair := range strings.Split(l4addrs, ",") {
			p, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return nil, fmt.Errorf("bad -l4 entry %q (want principal=host:port)", pair)
			}
			idx, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("bad -l4 principal %q: %w", p, err)
			}
			addrs[idx] = addr
		}
		return &loadgen.TCPTarget{Addrs: addrs, Timeout: timeout}, nil
	}
	return nil, fmt.Errorf("external mode needs -targets or -l4 (or use -sweep)")
}

// scrapeAll sums conformance over every configured metrics endpoint.
func scrapeAll(urls []string) (loadgen.Conformance, error) {
	var sum loadgen.Conformance
	for _, u := range urls {
		c, err := loadgen.Scrape(u)
		if err != nil {
			return sum, err
		}
		sum = sum.Add(c)
	}
	return sum, nil
}

// runExternal drives an already-running fleet and prints the summary.
func runExternal(target loadgen.Target, streams []loadgen.Stream, duration, warmup time.Duration,
	workers int, scrapeURLs []string, outPath string) error {
	type snap struct {
		c   loadgen.Conformance
		err error
	}
	haveScrape := len(scrapeURLs) > 0
	settled := make(chan snap, 1)
	if haveScrape {
		// Snapshot at the warmup boundary, concurrent with the run.
		time.AfterFunc(warmup, func() {
			c, err := scrapeAll(scrapeURLs)
			settled <- snap{c, err}
		})
	}
	res, err := loadgen.Run(target, loadgen.Options{
		Streams: streams, Duration: duration, Warmup: warmup, Workers: workers,
	})
	if err != nil {
		return err
	}
	var delta loadgen.Conformance
	if haveScrape {
		before := <-settled
		if before.err != nil {
			return fmt.Errorf("warmup scrape: %w", before.err)
		}
		after, err := scrapeAll(scrapeURLs)
		if err != nil {
			return fmt.Errorf("final scrape: %w", err)
		}
		delta = after.Sub(before.c)
	}

	var offered float64
	for _, s := range streams {
		offered += s.Rate
	}
	row, agg := pointMetrics(res, offered, delta)
	row.Name = "External"

	fmt.Printf("measured %v (of %v wall), %d streams\n", res.Measured, res.Wall, len(res.Streams))
	for i := range res.Streams {
		s := &res.Streams[i]
		fmt.Printf("  stream %d (org=%s rate=%.1f %s): ok=%d rejected=%d errors=%d p50=%v p99=%v\n",
			i, s.Stream.Org, s.Stream.Rate, s.Stream.Process, s.OK, s.Rejected, s.Errors,
			s.Hist.Quantile(0.50), s.Hist.Quantile(0.99))
	}
	fmt.Printf("total: qps=%.1f (offered %.1f) p50=%v p95=%v p99=%v p999=%v max=%v\n",
		row.Metrics["qps"], offered,
		agg.Quantile(0.50), agg.Quantile(0.95), agg.Quantile(0.99), agg.Quantile(0.999), agg.Max())
	if haveScrape {
		fmt.Printf("conformance delta: windows=%.0f under_floor=%.0f over_ceiling=%.0f conservative=%.0f mixed_version=%.0f\n",
			delta.Windows, delta.UnderFloor, delta.OverCeiling, delta.Conservative, delta.MixedVersion)
	}
	if outPath != "" {
		enc, err := json.MarshalIndent(&report{Results: []benchResult{row}}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if haveScrape && delta.UnderFloor > 0 {
		return fmt.Errorf("%.0f settled under-floor windows (agreement violated)", delta.UnderFloor)
	}
	return nil
}

func main() {
	sweep := flag.Bool("sweep", false, "run the in-process scale sweep and emit a BENCH-style JSON report")
	out := flag.String("o", "", "report output path ('-' or empty for stdout in sweep mode)")
	baseline := flag.String("baseline", "", "JSON file to embed verbatim as the report baseline (sweep mode)")
	targets := flag.String("targets", "", "comma-separated Layer-7 redirector base URLs (round-robinned)")
	l4 := flag.String("l4", "", "comma-separated Layer-4 principal=host:port service addresses")
	scrape := flag.String("scrape", "", "comma-separated /v1/metrics URLs for conformance deltas")
	orgs := flag.String("orgs", "alpha,beta", "comma-separated Layer-7 org segments, one stream per org")
	rate := flag.Float64("rate", 100, "total offered load in requests/second, split evenly over streams")
	duration := flag.Duration("duration", 30*time.Second, "scheduled run length")
	warmup := flag.Duration("warmup", 5*time.Second, "span excluded from counters while the fleet converges")
	process := flag.String("process", "poisson", "arrival process: uniform|poisson|bursty")
	seed := flag.Uint64("seed", 1, "schedule seed; stream i uses seed+i")
	workers := flag.Int("workers", 0, "max in-flight requests (default 256)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout for Layer-4 targets")
	flag.Parse()

	if *sweep {
		if err := runSweep(*out, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	proc, err := loadgen.ParseProcess(*process)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	target, err := buildTarget(*targets, *l4, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	orgList := strings.Split(*orgs, ",")
	streams := make([]loadgen.Stream, len(orgList))
	for i, org := range orgList {
		streams[i] = loadgen.Stream{
			Principal: i,
			Org:       strings.TrimSpace(org),
			Rate:      *rate / float64(len(orgList)),
			Process:   proc,
			Seed:      *seed + uint64(i),
		}
	}
	var scrapeURLs []string
	if *scrape != "" {
		for _, u := range strings.Split(*scrape, ",") {
			scrapeURLs = append(scrapeURLs, strings.TrimSpace(u))
		}
	}
	if err := runExternal(target, streams, *duration, *warmup, *workers, scrapeURLs, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
