// Command redirector runs one agreement-enforcing redirector node from a
// JSON scenario file (see internal/config), at Layer 7 or Layer 4,
// optionally joined to a combining tree of peer redirectors.
//
// Usage:
//
//	redirector -config scenario.json -layer l7 -id 0
//
// A minimal provider-mode scenario:
//
//	{
//	  "mode": "provider", "provider": "S",
//	  "window_ms": 100, "num_redirectors": 2,
//	  "principals": [{"name":"S","capacity":320},{"name":"A"},{"name":"B"}],
//	  "agreements": [
//	    {"owner":"S","user":"A","lb":0.2,"ub":1.0},
//	    {"owner":"S","user":"B","lb":0.8,"ub":1.0}],
//	  "l7": {"addr":"127.0.0.1:8080",
//	         "orgs": {"alpha":"A","beta":"B"},
//	         "backends": {"S": ["http://127.0.0.1:8081"]}}
//	}
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/combining"
	"repro/internal/config"
	"repro/internal/l4"
	"repro/internal/l7"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

func main() {
	path := flag.String("config", "", "scenario JSON file (required)")
	layer := flag.String("layer", "l7", "l7 (HTTP 302 switch) or l4 (TCP NAT-style switch)")
	id := flag.Int("id", 0, "this redirector's id")
	admin := flag.String("admin", "", "admin listener for /v1/metrics, /v1/debug/windows and pprof (overrides scenario admin_addr)")
	mutexProfile := flag.Int("mutex-profile-fraction", 0,
		"sample 1/n of contended mutex events on /debug/pprof/mutex (0 disables; requires -admin or admin_addr)")
	blockProfile := flag.Int("block-profile-rate", 0,
		"sample goroutine blocking events of >= n ns on /debug/pprof/block (0 disables; requires -admin or admin_addr)")
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := config.Load(*path)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := f.BuildEngine()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := f.BuildSystem()
	if err != nil {
		log.Fatal(err)
	}
	tree, err := treeSpec(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(eng.DescribeEntitlements())
	// Hierarchical scenarios: show how the budget tree folded into the flat
	// entitlements above, floors and ceilings per principal.
	if len(f.Budget) > 0 {
		fmt.Print(budget.Describe(budget.Spec{Roots: f.Budget}))
	}

	adminAddr := f.AdminAddr
	if *admin != "" {
		adminAddr = *admin
	}
	// Contention profiling is gated on the admin surface: without a
	// listener to scrape /debug/pprof/{mutex,block} the samples would only
	// slow the data path down.
	if *mutexProfile > 0 || *blockProfile > 0 {
		if adminAddr == "" {
			log.Print("ignoring -mutex-profile-fraction/-block-profile-rate: no admin listener (-admin or admin_addr)")
		} else {
			obs.EnableContentionProfiling(*mutexProfile, *blockProfile)
		}
	}

	// Durable state: each redirector process owns a node-scoped directory
	// under state_dir, so co-located nodes never share a window log.
	var st *persist.Store
	if f.StateDir != "" {
		dir := filepath.Join(f.StateDir, fmt.Sprintf("redirector-%d", *id))
		st, err = persist.Open(dir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("durable state in %s\n", dir)
	}

	// Shutdown hooks, installed per layer below: the flight recorder whose
	// armed captures a SIGTERM must flush, and the front-end to stop before
	// the store closes.
	var flight *obs.FlightRecorder
	var closeFront func() error

	switch *layer {
	case "l7":
		if f.L7 == nil {
			log.Fatal("scenario has no l7 section")
		}
		orgs := make(map[string]agreement.Principal, len(f.L7.Orgs))
		for org, name := range f.L7.Orgs {
			p, ok := sys.Lookup(name)
			if !ok {
				log.Fatalf("l7 org %q maps to unknown principal %q", org, name)
			}
			orgs[org] = p
		}
		backends, err := config.ResolvePrincipals(sys, f.L7.Backends)
		if err != nil {
			log.Fatal(err)
		}
		r, err := l7.NewRedirector(l7.RedirectorConfig{
			Engine: eng, ID: *id, Addr: f.L7.Addr,
			Orgs: orgs, Backends: backends, Tree: tree,
			Proxy:           f.L7.Proxy,
			Health:          f.Health.Options(),
			Ctrl:            f.Ctrl != nil && f.Ctrl.Enabled,
			CtrlLead:        ctrlLead(f),
			AdmissionShards: f.AdmissionShards,
			Trace:           f.Trace.TraceConfig(),
			Flight:          f.Trace.FlightConfig(),
			Persist:         st,
		})
		if err != nil {
			log.Fatal(err)
		}
		flight, closeFront = r.Flight(), r.Close
		fmt.Printf("l7 redirector %d at %s", *id, r.URL())
		if ta := r.TreeAddr(); ta != "" {
			fmt.Printf(" (tree %s)", ta)
		}
		if bound := serveAdmin(adminAddr, r.ObsHandler()); bound != "" {
			fmt.Printf(" (admin %s)", bound)
		}
		fmt.Println()
	case "l4":
		if f.L4 == nil {
			log.Fatal("scenario has no l4 section")
		}
		var services []l4.ServiceSpec
		for name, addr := range f.L4.Services {
			p, ok := sys.Lookup(name)
			if !ok {
				log.Fatalf("l4 service for unknown principal %q", name)
			}
			services = append(services, l4.ServiceSpec{Principal: p, Addr: addr})
		}
		backends, err := config.ResolvePrincipals(sys, f.L4.Backends)
		if err != nil {
			log.Fatal(err)
		}
		r, err := l4.NewRedirector(l4.Config{
			Engine: eng, ID: *id, Services: services, Backends: backends, Tree: tree,
			Health:          f.Health.Options(),
			Ctrl:            f.Ctrl != nil && f.Ctrl.Enabled,
			CtrlLead:        ctrlLead(f),
			AdmissionShards: f.AdmissionShards,
			Trace:           f.Trace.TraceConfig(),
			Flight:          f.Trace.FlightConfig(),
			Persist:         st,
		})
		if err != nil {
			log.Fatal(err)
		}
		flight, closeFront = r.Flight(), r.Close
		fmt.Printf("l4 redirector %d up:", *id)
		for name := range f.L4.Services {
			p, _ := sys.Lookup(name)
			fmt.Printf(" %s=%s", name, r.Addr(p))
		}
		if ta := r.TreeAddr(); ta != "" {
			fmt.Printf(" (tree %s)", ta)
		}
		if bound := serveAdmin(adminAddr, r.ObsHandler()); bound != "" {
			fmt.Printf(" (admin %s)", bound)
		}
		fmt.Println()
	default:
		log.Fatalf("unknown layer %q", *layer)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful shutdown: flush armed forensic captures first (they are the
	// evidence of whatever preceded the signal), then stop the front-end
	// (which checkpoints the durable log), then close the store.
	if n := flight.Flush(); n > 0 {
		log.Printf("flushed %d flight captures", n)
	}
	if closeFront != nil {
		if err := closeFront(); err != nil {
			log.Printf("front-end close: %v", err)
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("state store close: %v", err)
		}
	}
}

// serveAdmin starts the optional observability listener; returns the bound
// address ("" when disabled).
func serveAdmin(addr string, h *obs.Handler) string {
	if addr == "" {
		return ""
	}
	bound, err := obs.Serve(addr, h, nil)
	if err != nil {
		log.Fatalf("admin listener %s: %v", addr, err)
	}
	return bound
}

// ctrlLead extracts the rollout lead (0 lets the front-end pick the
// default) from the optional ctrl section.
func ctrlLead(f *config.File) int {
	if f.Ctrl == nil {
		return 0
	}
	return f.Ctrl.RolloutLeadEpochs
}

func treeSpec(f *config.File) (*treenet.Spec, error) {
	if f.Tree == nil {
		return nil, nil
	}
	spec := &treenet.Spec{
		NodeID:     combining.NodeID(f.Tree.NodeID),
		Parent:     combining.NodeID(f.Tree.Parent),
		ListenAddr: f.Tree.ListenAddr,
		Peers:      make(map[combining.NodeID]string, len(f.Tree.Peers)),
	}
	for _, c := range f.Tree.Children {
		spec.Children = append(spec.Children, combining.NodeID(c))
	}
	for idStr, addr := range f.Tree.Peers {
		n, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("tree peer id %q: %v", idStr, err)
		}
		spec.Peers[combining.NodeID(n)] = addr
	}
	if f.Tree.Topology != nil {
		spec.Topology = f.Tree.Topology.Spec()
		spec.FailureTimeout = time.Duration(f.Tree.Topology.FailureTimeoutMS) * time.Millisecond
	}
	return spec, nil
}
