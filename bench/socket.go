package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/l4"
	"repro/internal/l7"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/treenet"
)

// quietLog keeps the system's info-level chatter (one line per accepted
// mutation) off the terminal while still surfacing its errors.
var quietLog = obs.NewLogger(os.Stderr, obs.LevelError)

// redirector is what the benchmark needs from either front-end; both
// *l7.Redirector and *l4.Redirector provide it.
type redirector interface {
	Close() error
	Observer() *obs.Observer
	Tracer() *obs.Tracer
	ObsHandler() *obs.Handler
	TreeAddr() string
	SetTreePeer(id combining.NodeID, addr string)
}

// socketSpec describes one socket workload. Provider S sells `capacity`
// req/s to A [0.5,1] and B [0.2,1]; rates are the open-loop Poisson offers.
type socketSpec struct {
	l4       bool
	capacity float64
	window   time.Duration
	rates    [2]float64 // A, B
	// satCapacity, when non-zero, boots a second fleet with this capacity
	// for the closed-loop phase, so credit never binds and the phase
	// measures per-request cost. Zero runs the closed loop against the
	// first fleet: under overload that times the refusal path.
	satCapacity float64
	// knownUnderFloor marks a workload on which the fleet is known to serve
	// a principal less than min(offered, MC): the under-floor gate is
	// evaluated and printed but does not fail the run.
	knownUnderFloor bool
}

const (
	socketFleetSize = 2
	// openShare of the measured time is the open-loop phase, the rest the
	// closed-loop phase.
	openShare    = 0.75
	socketWarmup = time.Second
	// socketEpochs is how many freshly booted fleets one run measures. On
	// this kind of machine a booted fleet settles into a latency mode of
	// its own (where its goroutines and sockets landed) that holds for as
	// long as it lives and differs by a fifth between boots; the run
	// reports the median over epochs, and each boot is one set-up sample.
	socketEpochs  = 5
	lagLimitP90Us = 1000
)

var socketOrgs = []string{"alpha", "beta"}

// socketFleet is a booted set of redirectors of one kind.
type socketFleet struct {
	reds  []redirector
	l7s   []*l7.Redirector
	l4s   []*l4.Redirector
	users [2]agreement.Principal
	mc    [2]float64 // mandatory rate per user, req/s
}

// bootFleet starts socketFleetSize redirectors on a treenet tree, each with
// its own engine, exactly like separate processes loading one scenario.
func bootFleet(spec socketSpec, capacity float64, backends []string, trace bool) (*socketFleet, error) {
	f := &socketFleet{}
	ids := make([]combining.NodeID, socketFleetSize)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	topo := combining.BuildTree(ids, 2)
	var tcfg *obs.TraceConfig
	if trace {
		tcfg = &obs.TraceConfig{SampleEvery: 100, SlowestK: 8}
	}
	for i := 0; i < socketFleetSize; i++ {
		sys := agreement.New()
		sp := sys.MustAddPrincipal("S", capacity)
		a := sys.MustAddPrincipal("A", 0)
		b := sys.MustAddPrincipal("B", 0)
		sys.MustSetAgreement(sp, a, 0.5, 1)
		sys.MustSetAgreement(sp, b, 0.2, 1)
		eng, err := core.NewEngine(core.Config{
			Mode: core.Provider, System: sys, ProviderPrincipal: sp,
			NumRedirectors: socketFleetSize, Window: spec.window, Logger: quietLog,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.users = [2]agreement.Principal{a, b}
		f.mc = [2]float64{0.5 * capacity, 0.2 * capacity}
		id := combining.NodeID(i)
		tree := &treenet.Spec{
			NodeID: id, Parent: topo.Parent[id], Children: topo.Children[id],
			ListenAddr: "127.0.0.1:0", Fanout: 2,
		}
		var r redirector
		if spec.l4 {
			lr, err := l4.NewRedirector(l4.Config{
				Engine: eng, ID: i,
				Services: []l4.ServiceSpec{{Principal: a, Addr: "127.0.0.1:0"}, {Principal: b, Addr: "127.0.0.1:0"}},
				Backends: map[agreement.Principal][]string{sp: backends},
				// Parked connections that outlive this are closed and
				// counted as refused; the default 5 s would hold the end
				// of every run open that long.
				PendingTimeout: 500 * time.Millisecond,
				Tree:           tree, Trace: tcfg,
			})
			if err != nil {
				f.close()
				return nil, err
			}
			f.l4s = append(f.l4s, lr)
			r = lr
		} else {
			lr, err := l7.NewRedirector(l7.RedirectorConfig{
				Engine: eng, ID: i, Addr: "127.0.0.1:0", Proxy: true,
				Orgs:     map[string]agreement.Principal{socketOrgs[0]: a, socketOrgs[1]: b},
				Backends: map[agreement.Principal][]string{sp: backends},
				Tree:     tree, Trace: tcfg,
			})
			if err != nil {
				f.close()
				return nil, err
			}
			f.l7s = append(f.l7s, lr)
			r = lr
		}
		f.reds = append(f.reds, r)
	}
	for i, ri := range f.reds {
		for j, rj := range f.reds {
			if i != j {
				ri.SetTreePeer(combining.NodeID(j), rj.TreeAddr())
			}
		}
	}
	return f, nil
}

func (f *socketFleet) close() {
	for _, r := range f.reds {
		_ = r.Close()
	}
}

// doer builds the generator side: one connection per worker on Layer 7, one
// connection per request on Layer 4.
func (f *socketFleet) doer(workers int) doer {
	if f.l4s != nil {
		d := &l4Doer{}
		for _, r := range f.l4s {
			d.addrs = append(d.addrs, []string{r.Addr(f.users[0]), r.Addr(f.users[1])})
		}
		return d
	}
	var addrs []string
	for _, r := range f.l7s {
		addrs = append(addrs, strings.TrimPrefix(r.URL(), "http://"))
	}
	return newL7Doer(workers, addrs, socketOrgs)
}

// awaitFirstOK sends to every redirector until each has served one request:
// the fleet admits nothing before its first window boundary.
func (f *socketFleet) awaitFirstOK() error {
	d := f.doer(len(f.reds))
	defer d.close()
	deadline := time.Now().Add(5 * time.Second)
	for w := range f.reds {
		for d.do(w, 0).out != outOK {
			if time.Now().After(deadline) {
				return fmt.Errorf("redirector %d served nothing within 5s of boot", w)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// scrape reads one redirector's /v1/metrics through its handler, without a
// socket, and returns the plain (unlabelled) series.
func scrape(r redirector) map[string]float64 {
	rec := httptest.NewRecorder()
	r.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		if k, v, ok := strings.Cut(line, " "); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = x
			}
		}
	}
	return out
}

// auditTotals sums the auditor counters the correctness gates read.
type auditTotals struct {
	windows, conservative, mixed, under, over float64
}

func (a *auditTotals) add(aud *obs.Auditor) {
	a.windows += float64(aud.Windows())
	a.conservative += float64(aud.Conservative())
	a.mixed += float64(aud.MixedVersion())
	for i := range aud.Names() {
		a.under += float64(aud.UnderMC(i))
		a.over += float64(aud.OverUB(i))
	}
}

func (a auditTotals) plus(b auditTotals) auditTotals {
	return auditTotals{a.windows + b.windows, a.conservative + b.conservative,
		a.mixed + b.mixed, a.under + b.under, a.over + b.over}
}

func (a auditTotals) minus(b auditTotals) auditTotals {
	return auditTotals{a.windows - b.windows, a.conservative - b.conservative,
		a.mixed - b.mixed, a.under - b.under, a.over - b.over}
}

func (f *socketFleet) audit() auditTotals {
	var a auditTotals
	for _, r := range f.reds {
		a.add(r.Observer().Auditor())
	}
	return a
}

// schedule expands the two seeded Poisson streams over d and merges them.
func (s socketSpec) schedule(seed uint64, d time.Duration) []scheduled {
	var reqs []scheduled
	for p, rate := range s.rates {
		st := loadgen.Stream{Principal: p, Rate: rate, Process: loadgen.Poisson, Seed: seed*2 + uint64(p) + 1}
		for _, at := range st.Schedule(d) {
			reqs = append(reqs, scheduled{at: at, principal: p})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
	return reqs
}

// socketEnv is one booted environment: backends, the fleet under load and
// (for the steady workloads) the uncapped fleet the closed loop drives.
type socketEnv struct {
	httpBackends []*httpBackend
	lineBackends []*lineBackend
	fleet, sat   *socketFleet
}

func (e *socketEnv) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
	if e.sat != nil {
		e.sat.close()
	}
	for _, b := range e.httpBackends {
		_ = b.close()
	}
	for _, b := range e.lineBackends {
		_ = b.close()
	}
}

func (e *socketEnv) backendConns() (n int64) {
	for _, b := range e.httpBackends {
		n += b.conns.Load()
	}
	for _, b := range e.lineBackends {
		n += b.conns.Load()
	}
	return n
}

// bootSocketEnv boots everything and waits until every redirector serves.
func bootSocketEnv(spec socketSpec, trace bool) (*socketEnv, error) {
	e := &socketEnv{}
	var addrs []string
	for i := 0; i < 2; i++ {
		if spec.l4 {
			b, err := newLineBackend()
			if err != nil {
				e.close()
				return nil, err
			}
			e.lineBackends = append(e.lineBackends, b)
			addrs = append(addrs, b.addr())
		} else {
			b, err := newHTTPBackend()
			if err != nil {
				e.close()
				return nil, err
			}
			e.httpBackends = append(e.httpBackends, b)
			addrs = append(addrs, b.url())
		}
	}
	var err error
	if e.fleet, err = bootFleet(spec, spec.capacity, addrs, trace); err != nil {
		e.close()
		return nil, err
	}
	if spec.satCapacity > 0 {
		if e.sat, err = bootFleet(spec, spec.satCapacity, addrs, false); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, f := range []*socketFleet{e.fleet, e.sat} {
		if f != nil {
			if err := f.awaitFirstOK(); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	return e, nil
}

// socketPhase is what one epoch of a socket workload produced: one freshly
// booted fleet, warmed up, then driven open loop and closed loop.
type socketPhase struct {
	lat, lag             samples
	ok, refused, failed  [2]int64
	newConns             int64
	failures             []string
	openDur, closedDur   time.Duration
	satOK, satRefused    int64
	satFailed            int64
	mallocs              uint64  // over the open loop
	cpu                  float64 // seconds, over the closed loop
	backendConns         int64
	audit                auditTotals
	admits, rejects      float64
	steals               float64
	retryExhausted       float64
	l4Parked, l4DialFail float64
}

// add pools another epoch's counts and schedule lags into p. Latencies are
// pooled by the caller, over the untraced epochs only.
func (p *socketPhase) add(o *socketPhase) {
	p.lag.merge(&o.lag)
	for i := range p.ok {
		p.ok[i] += o.ok[i]
		p.refused[i] += o.refused[i]
		p.failed[i] += o.failed[i]
	}
	p.newConns += o.newConns
	p.failures = append(p.failures, o.failures...)
	p.openDur += o.openDur
	p.closedDur += o.closedDur
	p.satOK, p.satRefused, p.satFailed = p.satOK+o.satOK, p.satRefused+o.satRefused, p.satFailed+o.satFailed
	p.mallocs += o.mallocs
	p.cpu += o.cpu
	p.backendConns += o.backendConns
	p.audit = p.audit.plus(o.audit)
	p.admits, p.rejects, p.steals = p.admits+o.admits, p.rejects+o.rejects, p.steals+o.steals
	p.retryExhausted += o.retryExhausted
	p.l4Parked, p.l4DialFail = p.l4Parked+o.l4Parked, p.l4DialFail+o.l4DialFail
}

func (p *socketPhase) requests() int64 {
	n := p.satOK + p.satRefused + p.satFailed
	for i := range p.ok {
		n += p.ok[i] + p.refused[i] + p.failed[i]
	}
	return n
}

// costMeter brackets a measured stretch with allocation and CPU readings.
type costMeter struct {
	mallocs uint64
	cpu     float64
}

func startMeter() costMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costMeter{ms.Mallocs, cpuSeconds()}
}

func (m costMeter) stop() (mallocs uint64, cpu float64) {
	now := startMeter()
	return now.mallocs - m.mallocs, now.cpu - m.cpu
}

// measureSocket warms a booted environment up for warm (and the closed
// loop's fleet for a quarter of that), then drives it open loop for openFor
// and closed loop for closedFor. logs is nil when spans are off.
func measureSocket(spec socketSpec, env *socketEnv, seed uint64, warm, openFor, closedFor time.Duration, logs []*spanLog) socketPhase {
	workers := runtime.NumCPU()
	pfx := "l7."
	if spec.l4 {
		pfx = "l4."
	}
	d := env.fleet.doer(workers)
	defer d.close()

	// Warm-up: the fleet leaves its conservative no-global fallback and the
	// estimators settle. Nothing from it is kept.
	runOpenLoop(d, spec.schedule(seed^0xA5A5, warm), newTallies(workers, 2, nil, pfx), spec.l4)

	ph := socketPhase{openDur: openFor}
	auditBefore := env.fleet.audit()
	scrapeBefore := sumScrapes(env.fleet)
	connsBefore := env.backendConns()
	meter := startMeter()
	open := newTallies(workers, 2, logs, pfx)
	runOpenLoop(d, spec.schedule(seed, openFor), open, spec.l4)
	ph.mallocs, _ = meter.stop()
	for _, t := range open {
		ph.lat.merge(&t.lat)
		ph.lag.merge(&t.lag)
		ph.newConns += t.newConns
		ph.failures = append(ph.failures, t.failures...)
		for i := 0; i < 2; i++ {
			ph.ok[i] += t.ok[i]
			ph.refused[i] += t.refused[i]
			ph.failed[i] += t.failed[i]
		}
	}
	// Everything the correctness gates and the per-request ratios read is
	// taken over the open-loop phase, where the offered load is known.
	ph.audit = env.fleet.audit().minus(auditBefore)
	after := sumScrapes(env.fleet)
	delta := func(name string) float64 { return after[name] - scrapeBefore[name] }
	ph.admits, ph.rejects = delta("rsa_admission_admits_total"), delta("rsa_admission_rejects_total")
	ph.steals = delta("rsa_admission_steals_total")
	ph.retryExhausted = delta("rsa_l7_retry_budget_exhausted_total")
	ph.l4Parked, ph.l4DialFail = delta("rsa_l4_parked_total"), delta("rsa_l4_dial_failures_total")
	ph.backendConns = env.backendConns() - connsBefore

	satFleet := env.fleet
	if env.sat != nil {
		satFleet = env.sat
	}
	// One closed-loop client per core, as the open loop has one worker per
	// core: the generator never runs more goroutines than the machine has
	// cores to run them beside the system under test.
	satDoer := satFleet.doer(workers)
	defer satDoer.close()
	shareA := spec.rates[0] / (spec.rates[0] + spec.rates[1])
	// Credit follows the demand estimate, so a fleet that has seen no load
	// refuses most of a sudden flood; let the estimate catch up first.
	runClosedLoop(satDoer, warm/4, newTallies(workers, 2, nil, pfx), seed, shareA)
	meter = startMeter()
	sat := newTallies(workers, 2, nil, pfx)
	ph.closedDur = runClosedLoop(satDoer, closedFor, sat, seed+1, shareA)
	_, ph.cpu = meter.stop()
	for _, t := range sat {
		ph.failures = append(ph.failures, t.failures...)
		for i := 0; i < 2; i++ {
			ph.satOK += t.ok[i]
			ph.satRefused += t.refused[i]
			ph.satFailed += t.failed[i]
		}
	}
	return ph
}

func sumScrapes(f *socketFleet) map[string]float64 {
	sum := map[string]float64{}
	for _, r := range f.reds {
		for k, v := range scrape(r) {
			sum[k] += v
		}
	}
	return sum
}
