package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// workload is one named set of inputs.
type workload struct {
	name   string
	why    string
	socket *socketSpec
	window *windowSpec
}

// workloads is the benchmark's fixed set; BENCHMARK.json repeats the names
// and reasons.
var workloads = []workload{
	{
		name: "l7_steady",
		why:  "L7 proxy path at 10% of capacity: accept/parse/admit/proxy do the work, the window plane almost none; closed-loop tail shows per-request CPU",
		socket: &socketSpec{
			capacity: 4000, window: 50 * time.Millisecond,
			rates: [2]float64{250, 150}, satCapacity: 1e6,
			// At a tenth of capacity the fleet refuses a sixth of the
			// requests: README.md, "What the instrument already shows".
			knownUnderFloor: true,
		},
	},
	{
		name: "l7_overload",
		why:  "same L7 fleet offered 1.5x its capacity: the reject, dry-flag and steal paths carry most calls and credit accuracy is the product",
		socket: &socketSpec{
			capacity: 400, window: 100 * time.Millisecond,
			rates: [2]float64{450, 150},
		},
	},
	{
		name: "l4_steady",
		why:  "L4 front-end, one TCP connection per request (accept, admit, dial, splice): a keep-alive gain on L7 should leave this flat",
		socket: &socketSpec{
			l4: true, capacity: 4000, window: 50 * time.Millisecond,
			rates: [2]float64{250, 150}, satCapacity: 1e6,
		},
	},
	{
		name:   "window_churn",
		why:    "window path with the plan cache defeated by moving demand: LP solve, treenet codec and round trip, WAL fsync dominate; no request sockets",
		window: &windowSpec{},
	},
	{
		name:   "reconfig_churn",
		why:    "write side of the window plane: still demand keeps the plan cache hot while ctrlplane mutations, leases and leaf crash-recovery invalidate and rebuild it",
		window: &windowSpec{reconfig: true},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOptions are one pass's inputs.
type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// short is the smoke test's scale: one boot, one epoch, a tenth of the
	// warm-up. Every gate still runs; a run this short trips the ones that
	// need a full run's samples, and the smoke test does not read them.
	short bool
}

const (
	// windowSetupReps is how often a window workload boots its fleet to time
	// set-up. A boot takes some 12 ms, so these cost under half a second.
	windowSetupReps = 31
	// floorAttainMin is the under-floor gate: over the run every principal
	// must be served at least this share of min(offered, MC). The auditor's
	// own per-window verdict compares whole requests against one node's
	// fractional share and cannot be gated (see README.md). Seeds move
	// floor_attain_pct between 97.9 and 100 on l7_overload; the gate sits
	// below that, and the metric itself shows anything finer.
	floorAttainMin = 95.0
)

func (o runOptions) reps() int {
	if o.short || o.trace {
		return 1
	}
	return windowSetupReps
}

func run(w workload, opt runOptions) (*report, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Provenance: gatherProvenance(opt.outDir),
		Params: runParams{
			Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
			Workers: runtime.NumCPU(),
		},
	}
	c := newCollector()
	var logs []*spanLog
	if opt.trace {
		// One log per generator worker; the window driver is one goroutine.
		logs = newSpanLogs(runtime.NumCPU(), benchEpoch)
	}
	var attempted, failed int64
	var err error
	if w.socket != nil {
		attempted, failed, err = runSocket(*w.socket, opt, c, &rep.Params, logs)
	} else {
		attempted, failed, err = runWindow(*w.window, opt, c, &rep.Params, logs)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		rep.Result = c.result(perLayer, attempted, failed)
		if rep.TraceFile, err = writeTrace(opt.outDir, w.name, rep.Provenance, rep.Params, logs); err != nil {
			return nil, err
		}
	} else {
		rep.Result = c.result(endToEnd, attempted, failed)
		rep.Ungated = map[string]metricValue{}
		for _, d := range perLayer {
			if v, ok := c.values[d.Name]; ok {
				rep.Ungated[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
		}
	}
	rep.Samples, rep.Refused, rep.Violations, rep.KnownFailures = c.samples, c.refused, c.violations, c.known
	return rep, nil
}

// runSocket runs one pass of a socket workload: socketEpochs freshly booted
// fleets, each warmed up and driven open loop then closed loop. Timings are
// the median over epochs of each epoch's percentile; ratios pool the counts.
// On the traced pass every other fleet records spans; the timings still come
// from the fleets that do not, and the difference between the two kinds is
// the tracing overhead.
func runSocket(spec socketSpec, opt runOptions, c *collector, params *runParams, logs []*spanLog) (attempted, failed int64, err error) {
	epochs, warm := socketEpochs, socketWarmup
	if opt.short {
		epochs, warm = 1, socketWarmup/10
	}
	workers := runtime.NumCPU()
	inflight := workers
	if spec.l4 {
		inflight = l4OpenInflight
	}
	params.Detail = map[string]any{
		"front_end":   map[bool]string{false: "l7-proxy", true: "l4"}[spec.l4],
		"redirectors": socketFleetSize, "backends": 2, "capacity_rps": spec.capacity,
		"window_ms": spec.window.Milliseconds(), "rate_a_rps": spec.rates[0], "rate_b_rps": spec.rates[1],
		"agreements": "A [0.5,1], B [0.2,1]", "arrivals": "poisson",
		"epochs": epochs, "warmup_s_per_epoch": warm.Seconds(), "open_share": openShare,
		"open_loop_pacers": map[bool]int{false: workers, true: 1}[spec.l4], "open_loop_max_inflight": inflight,
		"closed_loop_clients": workers, "closed_loop_capacity_rps": spec.satCapacity,
	}
	openFor := time.Duration(opt.seconds * openShare / float64(epochs) * float64(time.Second))
	closedFor := time.Duration(opt.seconds * (1 - openShare) / float64(epochs) * float64(time.Second))
	var (
		all                   socketPhase // counts pooled over every epoch
		lat                   samples     // latencies pooled over the untraced epochs
		setups, satRates, rss []float64
		p50s, p90s            []float64 // per untraced epoch, ms
		tracedP50s            []float64
		cpu, satDone          float64 // closed loops of the untraced epochs
		admitH, dialH, proxyH = obs.NewHistogram(), obs.NewHistogram(), obs.NewHistogram()
		mc                    [2]float64
	)
	for e := 0; e < epochs; e++ {
		traced := opt.trace && (e%2 == 1 || epochs == 1)
		resetPeakRSS()
		t0 := time.Now()
		env, err := bootSocketEnv(spec, traced)
		if err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		epochLogs := logs
		if !traced {
			epochLogs = nil
		}
		ph := measureSocket(spec, env, opt.seed*uint64(socketEpochs)+uint64(e), warm, openFor, closedFor, epochLogs)
		mc = env.fleet.mc
		if traced {
			for _, r := range env.fleet.reds {
				a, _, d, p := r.Tracer().PhaseHistograms()
				admitH.Merge(a)
				dialH.Merge(d)
				proxyH.Merge(p)
			}
		}
		rss = append(rss, peakRSSMB())
		env.close()
		// Every fleet starts from a collected heap whose free pages have
		// gone back to the kernel, so each epoch's peak is its own.
		debug.FreeOSMemory()
		all.add(&ph)
		p50, _ := ph.lat.pct(0.50)
		if traced {
			tracedP50s = append(tracedP50s, p50/1e6)
			continue
		}
		p90, _ := ph.lat.pct(0.90)
		p50s, p90s = append(p50s, p50/1e6), append(p90s, p90/1e6)
		lat.merge(&ph.lat)
		done := ph.satOK
		if spec.satCapacity == 0 {
			// Against the capped fleet most closed-loop calls are refused;
			// the phase measures how fast the fleet answers, either way.
			done += ph.satRefused
		}
		satRates = append(satRates, float64(done)/ph.closedDur.Seconds())
		cpu, satDone = cpu+ph.cpu, satDone+float64(ph.satOK+ph.satRefused+ph.satFailed)
	}
	openS := all.openDur.Seconds()
	var okAll, refusedAll, failedAll, offeredAll float64
	floor := 100.0
	for p := 0; p < 2; p++ {
		ok, offered := float64(all.ok[p]), float64(all.ok[p]+all.refused[p]+all.failed[p])
		okAll, refusedAll, failedAll, offeredAll = okAll+ok, refusedAll+float64(all.refused[p]), failedAll+float64(all.failed[p]), offeredAll+offered
		if due := min(offered, mc[p]*openS); due > 0 {
			floor = min(floor, 100*ok/due)
		}
	}
	goodput := 100 * okAll / min(offeredAll, spec.capacity*openS)

	c.set("setup_s", median(setups))
	c.samples["setup_s"] = len(setups)
	c.set("goodput_pct", goodput)
	// Over the open loop only: its request count is fixed by the seed, so
	// what the fleet allocates per window is spread over the same number of
	// requests every run. Generator and backends are included.
	c.set("allocs_per_op", float64(all.mallocs)/offeredAll)
	c.set("peak_rss_mb", median(rss))

	c.medianOf("lat_p50_ms", p50s, &lat, 0.50)
	c.medianOf("lat_p90_ms", p90s, &lat, 0.90)
	c.set("sat_rps", median(satRates))
	c.set("refused_pct", 100*refusedAll/offeredAll)
	c.set("floor_attain_pct", floor)
	// Over the closed loop only: the open loop's pacing naps would be
	// charged to the requests.
	c.set("cpu_us_per_op", 1e6*cpu/max(satDone, 1))

	// Each epoch may carry one window of credit across its phase boundary.
	carry := 100 * 2 * spec.window.Seconds() * float64(epochs) / openS
	c.gate(goodput <= 100+carry+0.5, "goodput %.2f%% exceeds agreed capacity plus one window's carry", goodput)
	c.gate(all.audit.over == 0 && all.audit.mixed == 0,
		"auditor: %v over-ceiling, %v mixed-version windows", all.audit.over, all.audit.mixed)
	c.gateOrKnown(floor >= floorAttainMin, spec.knownUnderFloor,
		"under floor: a principal was served %.1f%% of min(offered, MC) (need %.0f%%)", floor, floorAttainMin)
	// The run stands while fewer than a tenth of the requests left late; a
	// rarer stall shows in loadgen.sched_lag_p99_us and loadgen.lat_p99_ms,
	// which gate nothing.
	lagP90, _ := all.lag.pct(0.90)
	c.gate(lagP90/1e3 <= lagLimitP90Us, "generator ran late: schedule lag p90 %.0f us (limit %d)", lagP90/1e3, lagLimitP90Us)
	for _, why := range all.failures {
		c.violate("request failed: %s", why)
	}

	if opt.trace {
		pfx := "l7."
		if spec.l4 {
			pfx = "l4."
		}
		sum := c.summarize(logs)
		c.pct("loadgen.sched_lag_p50_us", &all.lag, 0.50, 1e3)
		c.pct("loadgen.sched_lag_p99_us", &all.lag, 0.99, 1e3)
		c.pct("loadgen.lat_p99_ms", &lat, 0.99, 1e6)
		c.set("loadgen.conn_new", float64(all.newConns))
		c.pct(pfx+"inbound_p50_us", sum.byName[pfx+"inbound"], 0.50, 1e3)
		c.pct(pfx+"outbound_p50_us", sum.byName[pfx+"outbound"], 0.50, 1e3)
		c.set(pfx+"backend_conn_per_kreq", 1000*float64(all.backendConns)/max(okAll, 1))
		c.set("admission.steals_per_kadmit", 1000*all.steals/max(all.admits, 1))
		if spec.l4 {
			c.set("l4.parked", all.l4Parked)
			c.set("l4.dial_failures", all.l4DialFail)
		} else {
			c.pct("l7.inbound_p90_us", sum.byName["l7.inbound"], 0.90, 1e3)
			c.pct("l7.refuse_p50_us", sum.byName["l7.refuse"], 0.50, 1e3)
			c.set("l7.admitted", all.admits)
			c.set("l7.rejected", all.rejects)
			c.set("l7.retry_budget_exhausted", all.retryExhausted)
			// The system's own phase timers, merged over the traced fleets.
			// Their buckets are powers of two; they are read as the system
			// reports them, to be reconciled against the client's view of
			// the same fleets.
			c.set("l7.phase_admit_p99_us", float64(admitH.Quantile(0.99))/1e3)
			c.set("l7.phase_dial_p99_us", float64(dialH.Quantile(0.99))/1e3)
			c.set("l7.phase_proxy_p99_us", float64(proxyH.Quantile(0.99))/1e3)
			c.set("l7.unaccounted_p50_us",
				1e3*median(tracedP50s)-float64(admitH.Quantile(0.5)+proxyH.Quantile(0.5))/1e3)
		}
		c.set("obs.windows", all.audit.windows)
		c.set("obs.under_floor_windows", all.audit.under)
		c.set("obs.over_ceiling_windows", all.audit.over)
		c.set("obs.mixed_version_windows", all.audit.mixed)
		c.set("obs.conservative_windows", all.audit.conservative)
		if cp50 := median(p50s); cp50 > 0 {
			c.set("bench.trace_overhead_pct", 100*(median(tracedP50s)-cp50)/cp50)
		}
	}
	return all.requests(), int64(failedAll) + all.satFailed, nil
}

// runWindow runs one pass of a window workload.
func runWindow(spec windowSpec, opt runOptions, c *collector, params *runParams, logs []*spanLog) (attempted, failed int64, err error) {
	params.Detail = map[string]any{
		"nodes": windowNodes, "regions": 2, "fanout": 2, "window_ms": windowLen.Milliseconds(),
		"delta_threshold": 0.5, "delta_resync_every": 16, "warmup_cycles": windowWarmupCycles,
		"checkpoint_every": checkpointEvery, "setup_reps": opt.reps(),
	}
	if spec.reconfig {
		params.Detail["mode"], params.Detail["principals"] = "provider", budgetNodes
		params.Detail["demand"] = "constant"
		params.Detail["mutate_every_cycles"], params.Detail["crash_every_cycles"] = mutateEvery, crashEvery
		params.Detail["crash_down_cycles"] = crashDownCycles
	} else {
		params.Detail["mode"], params.Detail["principals"] = "community", churnPrincipals
		params.Detail["demand"] = "random walk, step 1..3 requests per node and principal per cycle"
	}

	var setups []float64
	var f *wfleet
	for i := 0; i < opt.reps(); i++ {
		if f != nil {
			f.close()
		}
		root := filepath.Join(opt.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		var err error
		if f, err = bootWindowFleet(spec, opt.seed, root); err != nil {
			return 0, 0, err
		}
		if _, err := f.cycle(nil); err != nil {
			f.close()
			return 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	c.set("setup_s", median(setups))
	c.samples["setup_s"] = len(setups)

	warm := windowWarmupCycles
	if opt.short {
		warm = 20
	}
	for i := 0; i < warm; i++ {
		if _, err := f.cycle(nil); err != nil {
			return 0, 0, err
		}
	}
	// The boots above left their fleets for the collector; peak_rss_mb is
	// the peak of the one fleet that is measured, from a collected heap.
	runtime.GC()
	resetPeakRSS()

	// measure runs cycles back to back for d, with whatever the workload
	// schedules between them, and leaves the fleet whole.
	type stretch struct {
		cyc     samples
		mallocs uint64
		cpu     float64
		rssMB   float64 // VmHWM once spec.rssCycles() cycles had run
	}
	measure := func(d time.Duration, log *spanLog) (st stretch, err error) {
		meter := startMeter()
		start := time.Now()
		for time.Since(start) < d || f.pending != nil || f.downNode != nil {
			dt, err := f.cycle(log)
			if err != nil {
				return st, err
			}
			st.cyc.add(dt)
			f.between()
			if st.cyc.n() == spec.rssCycles() {
				st.rssMB = peakRSSMB()
			}
		}
		st.mallocs, st.cpu = meter.stop()
		if st.rssMB == 0 {
			st.rssMB = peakRSSMB()
		}
		return st, nil
	}

	// The traced pass first runs an untraced control stretch on the same
	// fleet; the cycle timings come from it, everything else from the
	// stretch that follows.
	seconds := opt.seconds
	var control stretch
	if opt.trace {
		var err error
		if control, err = measure(time.Duration(opt.seconds/3*float64(time.Second)), nil); err != nil {
			return 0, 0, err
		}
		f.traced.Store(true)
		seconds = opt.seconds * 2 / 3
	}
	f.resetAccounting()
	auditBefore, solverBefore := f.audit(), f.solver()
	treeBefore := f.treeStats()
	f.commit, f.recoverLat, f.rolloutWins, f.rejoinRnds = samples{}, samples{}, nil, nil
	failedBefore := f.failed

	var log *spanLog
	if logs != nil {
		log = logs[0]
	}
	measured, err := measure(time.Duration(seconds*float64(time.Second)), log)
	if err != nil {
		return 0, 0, err
	}
	audit, solver := f.audit().minus(auditBefore), f.solver().minus(solverBefore)
	cycles := float64(measured.cyc.n())
	untraced := &measured
	if opt.trace {
		untraced = &control
	}

	var served float64
	floor := 100.0
	for _, p := range f.users {
		served += f.served[p]
		if f.floorOK[p] > 0 {
			floor = min(floor, 100*f.served[p]/f.floorOK[p])
		}
	}
	goodput := 100 * served / f.capUsed

	c.set("goodput_pct", goodput)
	c.set("allocs_per_op", float64(measured.mallocs)/cycles)
	c.set("peak_rss_mb", measured.rssMB)

	c.pct("window_cycle_p50_us", &untraced.cyc, 0.50, 1e3)
	c.pct("window_cycle_p90_us", &untraced.cyc, 0.90, 1e3)
	c.set("cpu_us_per_op", 1e6*untraced.cpu/float64(untraced.cyc.n()))
	c.set("floor_attain_pct", floor)

	c.gate(floor >= floorAttainMin, "under floor: a principal was served %.1f%% of min(offered, MC) (need %.0f%%)", floor, floorAttainMin)
	c.gate(goodput <= 100.5, "goodput %.2f%% exceeds the fleet's capacity", goodput)
	c.gate(audit.over == 0 && audit.mixed == 0,
		"auditor: %v over-ceiling, %v mixed-version windows", audit.over, audit.mixed)
	nodeWindows := max(audit.windows, 1)
	solvesPerK := 1000 * float64(solver.solves) / nodeWindows
	hitPct := 0.0
	if solver.hits+solver.misses > 0 {
		hitPct = 100 * float64(solver.hits) / float64(solver.hits+solver.misses)
	}
	if spec.reconfig {
		c.gate(hitPct > 90, "still demand should keep the plan cache hot: hit rate %.1f%% (need > 90)", hitPct)
		c.gate(f.commit.n() > 0 && f.recoverLat.n() > 0, "run saw %d committed mutations and %d recoveries", f.commit.n(), f.recoverLat.n())
	} else {
		// Presolve on broadcast arrival does the solve and the boundary
		// then hits the plan it left, so the hit *rate* sits near 50%
		// even when no plan is ever reused. What "cache defeated" means
		// is that every node-window still costs an LP solve.
		c.gate(solvesPerK > 800, "moving demand should defeat the plan cache: %.0f solves per 1000 node-windows (need > 800)", solvesPerK)
	}
	for _, why := range f.failures {
		c.violate("%s", why)
	}

	if opt.trace {
		sum := c.summarize(logs)
		us := func(metric, span string, q float64) { c.pct(metric, sum.byName[span], q, 1e3) }
		us("admission.start_window_p50_us", "admission.start_window", 0.50)
		us("admission.start_window_p90_us", "admission.start_window", 0.90)
		us("core.local_estimate_p50_us", "core.local_estimate", 0.50)
		us("combining.tick_p50_us", "combining.tick", 0.50)
		us("treenet.up_wait_p50_us", "treenet.up_wait", 0.50)
		us("treenet.down_wait_p50_us", "treenet.down_wait", 0.50)
		us("persist.append_p50_us", "persist.append", 0.50)
		us("persist.append_p90_us", "persist.append", 0.90)
		c.pct("persist.checkpoint_p50_ms", sum.byName["persist.checkpoint"], 0.50, 1e6)
		c.pct("treenet.round_p50_us", &f.round, 0.50, 1e3)
		c.pct("treenet.round_p90_us", &f.round, 0.90, 1e3)
		async := func(metric, name string, per float64) { c.pct(metric, f.async[name], 0.50, per) }
		async("core.presolve_p50_us", "core.presolve", 1e3)
		async("ctrlplane.mutate_p50_us", "ctrlplane.mutate", 1e3)
		async("ctrlplane.lease_grant_p50_us", "ctrlplane.lease_grant", 1e3)
		async("agreement.encode_p50_us", "agreement.encode", 1e3)
		async("agreement.decode_p50_us", "agreement.decode", 1e3)
		async("persist.save_set_p50_us", "persist.save_set", 1e3)
		async("core.stage_set_p50_us", "core.stage_set", 1e3)
		async("persist.open_recover_p50_ms", "persist.open_recover", 1e6)
		async("core.restore_state_p50_us", "core.restore_state", 1e3)
		async("topology.remove_p50_us", "topology.remove", 1e3)
		c.pct("mutation_commit_p50_ms", &f.commit, 0.50, 1e6)
		c.pct("recover_p50_ms", &f.recoverLat, 0.50, 1e6)
		c.set("ctrlplane.rollout_windows", median(f.rolloutWins))
		c.set("combining.rejoin_rounds", median(f.rejoinRnds))
		if f.admitN > 0 {
			c.set("admission.admit_mean_ns", f.admitNs/f.admitN)
			c.samples["admission.admit_mean_ns"] = int(f.admitN)
		}
		if f.rejectN > 0 {
			c.set("admission.reject_mean_ns", f.rejectNs/f.rejectN)
			c.samples["admission.reject_mean_ns"] = int(f.rejectN)
		}
		c.set("sched.cache_hit_pct", hitPct)
		c.set("sched.floor_fallbacks", float64(solver.fallbacks))
		c.set("lp.solves_per_kwindow", solvesPerK)
		if solver.solves > 0 {
			c.set("lp.solve_mean_us", solver.solveNs/float64(solver.solves)/1e3)
		}
		tree := f.treeStats()
		c.set("combining.delta_entries_per_round", float64(tree.Delta.EntriesSent-treeBefore.Delta.EntriesSent)/cycles)
		c.set("combining.delta_desyncs", float64(tree.Delta.Desyncs-treeBefore.Delta.Desyncs))
		c.set("treenet.send_errors", float64(tree.SendErrors-treeBefore.SendErrors))
		c.set("treenet.queue_drops", float64(tree.QueueDrops-treeBefore.QueueDrops))
		if f.checkpoints > 0 {
			c.set("persist.bytes_per_window", float64(f.bytesAppended)/float64(f.checkpoints*checkpointEvery))
		}
		c.set("budget.compile_ms", f.buildSetup["budget.compile_ms"])
		c.set("topology.compile_ms", f.buildSetup["topology.compile_ms"])
		c.set("obs.windows", audit.windows)
		c.set("obs.under_floor_windows", audit.under)
		c.set("obs.over_ceiling_windows", audit.over)
		c.set("obs.mixed_version_windows", audit.mixed)
		c.set("obs.conservative_windows", audit.conservative)
		tp50, _ := measured.cyc.pct(0.50)
		if cp50, _ := control.cyc.pct(0.50); cp50 > 0 {
			c.set("bench.trace_overhead_pct", 100*(tp50-cp50)/cp50)
		}
	}
	return int64(measured.cyc.n() + f.commit.n() + f.recoverLat.n()), int64(f.failed - failedBefore), nil
}
