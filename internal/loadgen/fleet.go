package loadgen

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/l7"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/treenet"
)

// FleetConfig parameterizes an in-process benchmark fleet.
type FleetConfig struct {
	// Redirectors is the fleet size; each redirector runs its own engine
	// and joins the others over a real treenet combining tree on loopback
	// TCP (exactly the multi-process deployment topology, minus the
	// process boundaries).
	Redirectors int
	// Fanout is the combining-tree arity (default 2).
	Fanout int
	// Capacity is the provider's capacity in requests/second, split evenly
	// over Backends real HTTP backends (default 3200). Keep it high enough
	// that every redirector sees several requests per principal per window:
	// credits are fractional but admissions are whole requests, so a window
	// holding only one or two requests sits within the ≤1-request credit
	// carry of its floor and the under-floor audit becomes noise.
	Capacity float64
	// Backends is the backend server count (default 2).
	Backends int
	// Window is the scheduling window (default 50ms).
	Window time.Duration
	// Regions, when > 1, lays the fleet out hierarchically: the redirectors
	// split into Regions contiguous regional sub-trees under a global tier
	// (compiled by internal/topology) with delta-compressed queue vectors on
	// every tree edge, and peers are wired per tree edge instead of
	// all-pairs — at 256 nodes the O(n²) mesh would cost tens of thousands
	// of idle peer queues. When 0 or 1 the fleet keeps the flat BuildTree
	// layout and the full mesh.
	Regions int
	// Trace, when non-nil, arms request-span tracing on every redirector so
	// sweeps can report per-phase latency alongside end-to-end numbers.
	Trace *obs.TraceConfig
}

// Fleet is a self-contained Layer-7 enforcement plane for macro
// benchmarking: provider S selling capacity to principals A [0.1,1] and
// B [0.05,1], served by proxy-mode redirectors over real sockets so a load
// generator measures full client round trips. The floors sit well below the
// sweep's offered per-principal load on purpose — demand above the
// mandatory share is what arms the auditor's under-floor check, turning
// "zero settled under-floor windows" into a meaningful assertion rather
// than a vacuous one.
type Fleet struct {
	Redirectors []*l7.Redirector
	Backends    []*l7.Backend
	// Orgs holds the Layer-7 org segment for each user principal, index
	// aligned with Users.
	Orgs []string
	// Users holds the load-bearing principals (A, B).
	Users []agreement.Principal
	// Capacity echoes the configured provider capacity.
	Capacity float64
}

// StartFleet boots the fleet and wires the combining tree. Callers must
// Close it.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Redirectors <= 0 {
		return nil, fmt.Errorf("loadgen: fleet needs at least one redirector")
	}
	if cfg.Fanout < 2 {
		cfg.Fanout = 2
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 2
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 3200
	}
	if cfg.Window <= 0 {
		cfg.Window = 50 * time.Millisecond
	}

	f := &Fleet{Orgs: []string{"alpha", "beta"}, Capacity: cfg.Capacity}
	for i := 0; i < cfg.Backends; i++ {
		b, err := l7.NewBackend("127.0.0.1:0", cfg.Capacity/float64(cfg.Backends))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Backends = append(f.Backends, b)
	}

	ids := make([]combining.NodeID, cfg.Redirectors)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	var (
		topo combining.Topology
		spec *topology.Spec
	)
	if cfg.Regions > 1 {
		spec = fleetTopology(cfg.Redirectors, cfg.Regions, cfg.Fanout)
		plane, err := topology.Compile(*spec)
		if err != nil {
			f.Close()
			return nil, err
		}
		topo = plane.Topology()
	} else {
		topo = combining.BuildTree(ids, cfg.Fanout)
	}

	for i := 0; i < cfg.Redirectors; i++ {
		// One engine per redirector, exactly like separate processes
		// loading the same scenario file.
		sys := agreement.New()
		sp := sys.MustAddPrincipal("S", cfg.Capacity)
		a := sys.MustAddPrincipal("A", 0)
		b := sys.MustAddPrincipal("B", 0)
		sys.MustSetAgreement(sp, a, 0.1, 1)
		sys.MustSetAgreement(sp, b, 0.05, 1)
		eng, err := core.NewEngine(core.Config{
			Mode: core.Provider, System: sys, ProviderPrincipal: sp,
			NumRedirectors: cfg.Redirectors, Window: cfg.Window,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		if i == 0 {
			f.Users = []agreement.Principal{a, b}
		}
		backends := make([]string, len(f.Backends))
		for j, be := range f.Backends {
			backends[j] = be.URL()
		}
		rcfg := l7.RedirectorConfig{
			Engine: eng, ID: i, Addr: "127.0.0.1:0", Proxy: true,
			Orgs:     map[string]agreement.Principal{"alpha": a, "beta": b},
			Backends: map[agreement.Principal][]string{sp: backends},
			Trace:    cfg.Trace,
		}
		if cfg.Redirectors > 1 {
			rcfg.Tree = &treenet.Spec{
				NodeID:     combining.NodeID(i),
				Parent:     topo.Parent[combining.NodeID(i)],
				Children:   topo.Children[combining.NodeID(i)],
				ListenAddr: "127.0.0.1:0",
				// On the hierarchical grid the redirector takes placement
				// (and delta compression) from the plane spec instead.
				Topology: spec,
			}
		}
		r, err := l7.NewRedirector(rcfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Redirectors = append(f.Redirectors, r)
	}

	// Every tree port is ephemeral, so peers are wired after the fact. The
	// flat grid wires the full mesh (repairs can re-parent anywhere); the
	// hierarchical grid wires only the plane's edges, both directions.
	if cfg.Regions > 1 {
		for i, ri := range f.Redirectors {
			id := combining.NodeID(i)
			if p := topo.Parent[id]; p >= 0 {
				ri.SetTreePeer(p, f.Redirectors[p].TreeAddr())
			}
			for _, c := range topo.Children[id] {
				ri.SetTreePeer(c, f.Redirectors[c].TreeAddr())
			}
		}
	} else {
		for i, ri := range f.Redirectors {
			for j, rj := range f.Redirectors {
				if i != j {
					ri.SetTreePeer(combining.NodeID(j), rj.TreeAddr())
				}
			}
		}
	}
	return f, nil
}

// fleetTopology lays n redirectors out as `regions` contiguous equal blocks
// — region-00 {0..k-1}, region-01 {k..2k-1}, … — with delta compression
// tuned for the sweep's demand scale: per-redirector per-principal rates sit
// in the tens of req/s, so a 0.5 req/s threshold suppresses idle entries
// without hiding real movement, and a 16-frame resync bounds drift.
func fleetTopology(n, regions, fanout int) *topology.Spec {
	spec := &topology.Spec{
		Fanout: fanout,
		Delta:  topology.DeltaSpec{Threshold: 0.5, ResyncEvery: 16},
	}
	per := (n + regions - 1) / regions
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		members := make([]int, 0, hi-lo)
		for m := lo; m < hi; m++ {
			members = append(members, m)
		}
		spec.Regions = append(spec.Regions, topology.Region{
			Name:    fmt.Sprintf("region-%02d", len(spec.Regions)),
			Members: members,
		})
	}
	return spec
}

// Target returns a round-robin target over the fleet's redirectors, so
// every admission point carries load and coordination is actually
// exercised.
func (f *Fleet) Target() (Target, error) {
	targets := make([]Target, len(f.Redirectors))
	for i, r := range f.Redirectors {
		t, err := NewHTTPTarget(r.URL())
		if err != nil {
			return nil, err
		}
		targets[i] = t
	}
	if len(targets) == 1 {
		return targets[0], nil
	}
	return &MultiTarget{Targets: targets}, nil
}

// Conformance sums the fleet's live auditor counters (the in-process
// equivalent of scraping every /v1/metrics endpoint).
func (f *Fleet) Conformance() Conformance {
	var c Conformance
	for _, r := range f.Redirectors {
		aud := r.Observer().Auditor()
		c.Windows += float64(aud.Windows())
		c.Conservative += float64(aud.Conservative())
		c.MixedVersion += float64(aud.MixedVersion())
		for i := range aud.Names() {
			c.UnderFloor += float64(aud.UnderMC(i))
			c.OverCeiling += float64(aud.OverUB(i))
		}
	}
	return c
}

// TreeStats folds every redirector's tree-transport counters — including
// the delta-compression codec counters — into one fleet-wide snapshot.
// All zero on a single-redirector fleet (no tree) or when delta compression
// is off (flat layout).
func (f *Fleet) TreeStats() treenet.Stats {
	var sum treenet.Stats
	for _, r := range f.Redirectors {
		st := r.TreeStats()
		sum.SendErrors += st.SendErrors
		sum.QueueDrops += st.QueueDrops
		sum.Dials += st.Dials
		sum.Reconnects += st.Reconnects
		sum.PeersConnected += st.PeersConnected
		sum.BytesSent += st.BytesSent
		sum.BytesReceived += st.BytesReceived
		sum.Delta.Add(st.Delta)
	}
	return sum
}

// PhaseDurations aggregates the per-phase request latency distributions
// (admit, park, dial, proxy) across the fleet's redirectors. All histograms
// are zero-count when the fleet was started without Trace.
type PhaseDurations struct {
	Admit, Park, Dial, Proxy *obs.Histogram
}

// Phases merges every redirector's tracer phase histograms into one
// fleet-wide PhaseDurations snapshot. Call it after the load stops: Merge
// is not safe against concurrent Observe.
func (f *Fleet) Phases() PhaseDurations {
	pd := PhaseDurations{
		Admit: obs.NewHistogram(), Park: obs.NewHistogram(),
		Dial: obs.NewHistogram(), Proxy: obs.NewHistogram(),
	}
	for _, r := range f.Redirectors {
		admit, park, dial, proxy := r.Tracer().PhaseHistograms()
		pd.Admit.Merge(admit)
		pd.Park.Merge(park)
		pd.Dial.Merge(dial)
		pd.Proxy.Merge(proxy)
	}
	return pd
}

// Close shuts every redirector and backend down.
func (f *Fleet) Close() {
	for _, r := range f.Redirectors {
		_ = r.Close()
	}
	for _, b := range f.Backends {
		_ = b.Close()
	}
}

// MultiTarget round-robins requests over several targets (one per
// redirector of a fleet).
type MultiTarget struct {
	Targets []Target
	next    atomic.Uint64
}

// Do implements Target.
func (m *MultiTarget) Do(req Request) Outcome {
	i := m.next.Add(1) - 1
	return m.Targets[i%uint64(len(m.Targets))].Do(req)
}
