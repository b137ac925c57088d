// Package config loads JSON deployment descriptions for the command-line
// tools: the agreement system, the scheduling mode, and the Layer-7/Layer-4
// front-end wiring. It exists so a multi-process deployment (cmd/backend,
// cmd/redirector, cmd/webbench) can share one scenario file.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/topology"
)

// ErrConfig reports an invalid configuration file.
var ErrConfig = errors.New("config: invalid configuration")

// PrincipalSpec declares one principal and its physical capacity in
// requests/second.
type PrincipalSpec struct {
	Name     string  `json:"name"`
	Capacity float64 `json:"capacity"`
}

// AgreementSpec declares one direct agreement by principal names.
type AgreementSpec struct {
	Owner string  `json:"owner"`
	User  string  `json:"user"`
	LB    float64 `json:"lb"`
	UB    float64 `json:"ub"`
}

// TopologyRegion declares one named group of co-located redirectors in a
// hierarchical combining plane.
type TopologyRegion struct {
	Name    string `json:"name"`
	Members []int  `json:"members"`
}

// TopologySpec is the declarative combining-plane layout: named regions
// compile to regional sub-trees whose sub-roots join a global tier (see
// internal/topology); a flat tree is one region. When present it
// supersedes the parent/children wiring of the enclosing TreeSpec, and it
// is where failure detection is armed.
type TopologySpec struct {
	Regions []TopologyRegion `json:"regions"`
	// Fanout bounds children per interior node (default 2).
	Fanout int `json:"fanout"`
	// Sharding selects the principal-sharding policy: "none" (default,
	// one tree over all principals) or "component" (one tree with an
	// independent epoch per disjoint agreement component).
	Sharding string `json:"sharding"`
	// DeltaThreshold, when positive, enables delta compression of
	// upstream queue vectors: a principal's entry is suppressed when none
	// of its statistics moved by more than this since last sent.
	DeltaThreshold float64 `json:"delta_threshold"`
	// DeltaResyncEvery forces a full-state frame every N frames so
	// suppressed drift is bounded (default 16 when compression is on).
	DeltaResyncEvery int `json:"delta_resync_every"`
	// FailureTimeoutMS, when positive, arms hierarchy-aware failure
	// detection: a tree neighbor silent for this long is removed and the
	// plane repaired around it.
	FailureTimeoutMS int `json:"failure_timeout_ms"`
}

// Spec converts the config form into the topology package's spec (nil
// when the receiver is nil). Defaults are applied by topology.Compile.
func (t *TopologySpec) Spec() *topology.Spec {
	if t == nil {
		return nil
	}
	s := topology.Spec{
		Fanout:   t.Fanout,
		Sharding: t.Sharding,
		Delta: topology.DeltaSpec{
			Threshold:   t.DeltaThreshold,
			ResyncEvery: t.DeltaResyncEvery,
		},
	}
	for _, r := range t.Regions {
		s.Regions = append(s.Regions, topology.Region{
			Name:    r.Name,
			Members: append([]int(nil), r.Members...),
		})
	}
	return &s
}

// TreeSpec wires this process into the combining tree.
type TreeSpec struct {
	NodeID     int               `json:"node_id"`
	Parent     int               `json:"parent"` // -1 for root
	Children   []int             `json:"children"`
	Peers      map[string]string `json:"peers"` // node id (decimal) → addr
	ListenAddr string            `json:"listen_addr"`
	// Topology, when present, lays the plane out (one region for a flat
	// tree, several for a hierarchy) and supersedes the flat
	// Parent/Children wiring; the node's placement is computed from its
	// node_id and the spec. Failure detection is armed only here
	// (topology.failure_timeout_ms).
	Topology *TopologySpec `json:"topology"`
}

// HealthSpec configures active backend health checking. A zero/missing spec
// disables it; a present spec enables it with per-field defaults from
// internal/health.
type HealthSpec struct {
	IntervalMS       int     `json:"interval_ms"`
	TimeoutMS        int     `json:"timeout_ms"`
	FailThreshold    int     `json:"fail_threshold"`
	SuccessThreshold int     `json:"success_threshold"`
	BackoffMaxMS     int     `json:"backoff_max_ms"`
	Jitter           float64 `json:"jitter"`
	Seed             int64   `json:"seed"`
}

// Options converts the spec into health checker options (nil when the spec
// itself is nil).
func (h *HealthSpec) Options() *health.Options {
	if h == nil {
		return nil
	}
	return &health.Options{
		Interval:         time.Duration(h.IntervalMS) * time.Millisecond,
		Timeout:          time.Duration(h.TimeoutMS) * time.Millisecond,
		FailThreshold:    h.FailThreshold,
		SuccessThreshold: h.SuccessThreshold,
		BackoffMax:       time.Duration(h.BackoffMaxMS) * time.Millisecond,
		Jitter:           h.Jitter,
		Seed:             h.Seed,
	}
}

// TraceSpec enables request-span tracing on the front-end. A present spec
// arms the span ring and the /v1/debug/trace endpoint; the flight recorder
// (and /v1/debug/flight) additionally needs SLOMS or an under-floor trigger
// to ever fire, but is always mounted alongside tracing.
type TraceSpec struct {
	// SampleEvery head-samples one request in N (<=0 selects the obs
	// default; 1 traces everything).
	SampleEvery int `json:"sample_every"`
	// SlowestK tail-keeps the K slowest requests of every window regardless
	// of sampling (<=0 selects the obs default).
	SlowestK int `json:"slowest_k"`
	// Depth is the span ring capacity (<=0 selects the obs default).
	Depth int `json:"depth"`
	// SLOMS, when positive, arms the flight recorder's latency trigger: a
	// kept span slower than this freezes a forensic capture.
	SLOMS float64 `json:"slo_ms"`
	// FlightDir, when set, persists each flight capture as a JSON file
	// under this directory in addition to the in-memory ring.
	FlightDir string `json:"flight_dir"`
	// FlightMax bounds retained captures (<=0 selects the obs default).
	FlightMax int `json:"flight_max"`
}

// TraceConfig converts the spec into the obs tracer configuration (nil when
// the spec itself is nil).
func (t *TraceSpec) TraceConfig() *obs.TraceConfig {
	if t == nil {
		return nil
	}
	return &obs.TraceConfig{
		SampleEvery: t.SampleEvery,
		SlowestK:    t.SlowestK,
		Depth:       t.Depth,
	}
}

// FlightConfig converts the spec into the flight-recorder configuration
// (nil when the spec itself is nil).
func (t *TraceSpec) FlightConfig() *obs.FlightConfig {
	if t == nil {
		return nil
	}
	return &obs.FlightConfig{
		Max: t.FlightMax,
		SLO: time.Duration(t.SLOMS * float64(time.Millisecond)),
		Dir: t.FlightDir,
	}
}

// CtrlSpec enables the dynamic agreement control plane on the front-end:
// the /v1/agreements and /v1/principals admin endpoints accept runtime
// renegotiations, versioned and rolled out behind the combining tree's
// epoch gate. Enable it on the tree root only.
type CtrlSpec struct {
	Enabled bool `json:"enabled"`
	// RolloutLeadEpochs is how many tree epochs ahead of the current one a
	// rollout is gated (<=0 selects ctrlplane.DefaultLead).
	RolloutLeadEpochs int `json:"rollout_lead_epochs"`
}

// L7Spec configures a Layer-7 redirector front-end.
type L7Spec struct {
	Addr string `json:"addr"`
	// Orgs maps the URL org segment to a principal name.
	Orgs map[string]string `json:"orgs"`
	// Backends maps an owner principal name to backend base URLs.
	Backends map[string][]string `json:"backends"`
	// Proxy selects single-round-trip operation: the redirector forwards
	// admitted requests to the backend itself instead of answering 302.
	Proxy bool `json:"proxy"`
}

// L4Spec configures a Layer-4 redirector front-end.
type L4Spec struct {
	// Services maps a principal name to its listen address (VIP analogue).
	Services map[string]string `json:"services"`
	// Backends maps an owner principal name to backend TCP addresses.
	Backends map[string][]string `json:"backends"`
}

// File is the root of a scenario description.
type File struct {
	Mode           string          `json:"mode"` // "community" or "provider"
	WindowMS       int             `json:"window_ms"`
	NumRedirectors int             `json:"num_redirectors"`
	StalenessMS    int             `json:"staleness_ms"`
	Principals     []PrincipalSpec `json:"principals"`
	Agreements     []AgreementSpec `json:"agreements"`
	// Budget declares hierarchical principals as a forest of budget trees
	// (org → team → service; see internal/budget). Each tree compiles into
	// chained agreements on top of the flat Principals/Agreements lists, so
	// both forms mix freely in one deployment; node names share the flat
	// principals' namespace.
	Budget   []budget.Node      `json:"budget"`
	Provider string             `json:"provider"`
	Prices   map[string]float64 `json:"prices"`
	L7       *L7Spec            `json:"l7"`
	L4       *L4Spec            `json:"l4"`
	Tree     *TreeSpec          `json:"tree"`
	// Health, when present, enables active backend health checking and
	// capacity re-interpretation on the front-end.
	Health *HealthSpec `json:"health"`
	// Ctrl, when present and enabled, attaches the dynamic agreement
	// control plane to the front-end's admin surface.
	Ctrl *CtrlSpec `json:"ctrl"`
	// Trace, when present, enables request-span tracing, tail sampling, and
	// the SLO flight recorder on the front-end.
	Trace *TraceSpec `json:"trace"`
	// AdminAddr, when set, serves the versioned admin endpoints
	// (/v1/metrics, /v1/debug/windows, /v1/agreements, /debug/pprof) on a
	// dedicated listener. The Layer-7 redirector also mounts them on its
	// traffic listener; Layer-4 has no HTTP server, so this is its only
	// scrape point.
	AdminAddr string `json:"admin_addr"`
	// AdmissionShards sets the sharded admission plane's credit shard
	// count on both front-ends (0 selects GOMAXPROCS; see
	// internal/admission).
	AdmissionShards int `json:"admission_shards"`
	// StateDir, when set, arms the durable-state plane (internal/persist):
	// each redirector process keeps its agreement-set snapshots and
	// window-record log under <state_dir>/redirector-<id> and recovers
	// from them at the next boot. Empty disables persistence (a crash
	// rejoins blind, as a cold node).
	StateDir string `json:"state_dir"`
}

// Parse decodes and sanity-checks a scenario. Field names are snake_case
// only: an unknown key — a typo, or a camelCase spelling retired with the
// pre-/v1 aliases — is an error naming the key rather than a silent
// fall-back to the default, and so is anything after the document.
func Parse(data []byte) (*File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the scenario document", ErrConfig)
	}
	if f.Mode != "community" && f.Mode != "provider" {
		return nil, fmt.Errorf("%w: mode must be community or provider, got %q", ErrConfig, f.Mode)
	}
	if len(f.Principals) == 0 && len(f.Budget) == 0 {
		return nil, fmt.Errorf("%w: no principals", ErrConfig)
	}
	if len(f.Budget) > 0 {
		if err := (budget.Spec{Roots: f.Budget}).Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if f.Mode == "provider" && f.Provider == "" {
		return nil, fmt.Errorf("%w: provider mode needs a provider name", ErrConfig)
	}
	if f.Tree != nil && f.Tree.Topology != nil {
		if err := f.Tree.Topology.Spec().Normalize().Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	return &f, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// BuildSystem materializes the agreement system.
func (f *File) BuildSystem() (*agreement.System, error) {
	s := agreement.New()
	for _, p := range f.Principals {
		if _, err := s.AddPrincipal(p.Name, p.Capacity); err != nil {
			return nil, err
		}
	}
	for _, a := range f.Agreements {
		owner, ok := s.Lookup(a.Owner)
		if !ok {
			return nil, fmt.Errorf("%w: unknown owner %q", ErrConfig, a.Owner)
		}
		user, ok := s.Lookup(a.User)
		if !ok {
			return nil, fmt.Errorf("%w: unknown user %q", ErrConfig, a.User)
		}
		if err := s.SetAgreement(owner, user, a.LB, a.UB); err != nil {
			return nil, err
		}
	}
	if len(f.Budget) > 0 {
		if err := budget.CompileInto(s, budget.Spec{Roots: f.Budget}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// BuildEngine materializes the enforcement engine.
func (f *File) BuildEngine() (*core.Engine, error) {
	s, err := f.BuildSystem()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		System:         s,
		Window:         time.Duration(f.WindowMS) * time.Millisecond,
		NumRedirectors: f.NumRedirectors,
		Staleness:      time.Duration(f.StalenessMS) * time.Millisecond,
	}
	switch f.Mode {
	case "community":
		cfg.Mode = core.Community
	case "provider":
		cfg.Mode = core.Provider
		p, ok := s.Lookup(f.Provider)
		if !ok {
			return nil, fmt.Errorf("%w: unknown provider %q", ErrConfig, f.Provider)
		}
		cfg.ProviderPrincipal = p
		if len(f.Prices) > 0 {
			cfg.Prices = make(map[agreement.Principal]float64, len(f.Prices))
			for name, price := range f.Prices {
				cp, ok := s.Lookup(name)
				if !ok {
					return nil, fmt.Errorf("%w: price for unknown principal %q", ErrConfig, name)
				}
				cfg.Prices[cp] = price
			}
		}
	}
	return core.NewEngine(cfg)
}

// ResolvePrincipals maps a name-keyed map to principal-keyed, validating
// every name against the system.
func ResolvePrincipals(s *agreement.System, byName map[string][]string) (map[agreement.Principal][]string, error) {
	out := make(map[agreement.Principal][]string, len(byName))
	for name, v := range byName {
		p, ok := s.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown principal %q", ErrConfig, name)
		}
		out[p] = v
	}
	return out, nil
}
