// Command chaos is the CI chaos smoke. Phase 1 boots a single-process
// Layer-7 enforcement plane (proxy mode, two backends, active health
// checking), replays a deterministic fault schedule that kills and
// restarts one backend, and fails unless the /v1/metrics endpoint proves the
// plane went degraded and recovered — rsa_health_degraded_transitions_total
// and rsa_health_recovered_transitions_total both ≥ 1 — while requests
// kept flowing through the surviving backend. Phase 2 boots a two-region
// hierarchical combining plane over real TCP and kills a regional
// sub-root; the run fails unless the survivors re-parent through the
// promoted member into the global tier (never sideways to a sibling leaf)
// and fresh globals flow again.
//
// Faults address members by stable topology node id, never raw address:
// the victim backend is bound as a node in the health plane's registry
// (resolved at kill/restart time), and the sub-root kill names a tree
// node id directly.
//
// Usage: chaos [-down 2s] [-up 6s] [-run 10s]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/l7"
	"repro/internal/topology"
	"repro/internal/treenet"
)

func main() {
	down := flag.Duration("down", 2*time.Second, "when to kill the backend")
	up := flag.Duration("up", 6*time.Second, "when to restart it")
	runFor := flag.Duration("run", 10*time.Second, "total run time before verdict")
	flag.Parse()

	s := agreement.New()
	sp := s.MustAddPrincipal("S", 200)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.8, 1)
	s.MustSetAgreement(sp, b, 0.2, 1)
	eng, err := core.NewEngine(core.Config{
		Mode: core.Provider, System: s, ProviderPrincipal: sp,
		NumRedirectors: 1, Window: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	b0, err := l7.NewBackend("127.0.0.1:0", 500)
	if err != nil {
		log.Fatal(err)
	}
	defer b0.Close()
	b1, err := l7.NewBackend("127.0.0.1:0", 500)
	if err != nil {
		log.Fatal(err)
	}
	victimURL := b1.URL()
	const victimNode = 1 // topology node id the victim backend serves

	red, err := l7.NewRedirector(l7.RedirectorConfig{
		Engine: eng, Addr: "127.0.0.1:0", Proxy: true,
		Orgs:     map[string]agreement.Principal{"alpha": a, "beta": b},
		Backends: map[agreement.Principal][]string{sp: {b0.URL(), victimURL}},
		Health: &health.Options{
			Interval:         100 * time.Millisecond,
			Timeout:          500 * time.Millisecond,
			FailThreshold:    2,
			SuccessThreshold: 1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer red.Close()
	log.Printf("chaos: redirector %s, backends %s + %s (victim)", red.URL(), b0.URL(), victimURL)

	// Closed-loop load for the whole run.
	var served, failed atomic.Int64
	stop := make(chan struct{})
	go func() {
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(red.URL() + "/svc/alpha/x")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
					continue
				}
			}
			failed.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Faults address the victim by topology node id; the raw address is
	// resolved through the health plane's node registry at fire time, so
	// the plan survives restarts that change the address.
	if err := red.BindNode(victimNode, victimURL); err != nil {
		log.Fatalf("chaos: bind node %d: %v", victimNode, err)
	}
	plan := fault.NewSchedule(1).
		CrashBackend(*down, strconv.Itoa(victimNode)).
		RestartBackend(*up, strconv.Itoa(victimNode))
	log.Print(plan)
	resolve := func(target string) string {
		node, err := strconv.Atoi(target)
		if err != nil {
			log.Fatalf("chaos: fault target %q is not a node id", target)
		}
		addr, ok := red.NodeTarget(node)
		if !ok {
			log.Fatalf("chaos: node %d not bound", node)
		}
		return addr
	}
	cancel := plan.Play(fault.Hooks{
		BackendDown: func(target string) {
			log.Printf("chaos: killing backend node %s (%s)", target, resolve(target))
			b1.Close() //nolint:errcheck // fault injection
		},
		BackendUp: func(target string) {
			addr := strings.TrimPrefix(resolve(target), "http://")
			nb, err := l7.NewBackend(addr, 500)
			if err != nil {
				log.Fatalf("chaos: restart backend node %s: %v", target, err)
			}
			b1 = nb
			log.Printf("chaos: restarted backend node %s (%s)", target, nb.URL())
		},
	})
	defer cancel()

	time.Sleep(*runFor)
	close(stop)

	metrics := scrape(red.URL() + "/v1/metrics")
	deg := counter(metrics, "rsa_health_degraded_transitions_total")
	rec := counter(metrics, "rsa_health_recovered_transitions_total")
	log.Printf("chaos: served=%d failed=%d degraded=%g recovered=%g",
		served.Load(), failed.Load(), deg, rec)
	if deg < 1 || rec < 1 {
		log.Fatalf("chaos: metrics never showed degraded->recovered (degraded=%g recovered=%g)", deg, rec)
	}
	if served.Load() == 0 {
		log.Fatal("chaos: no request ever served")
	}
	log.Print("chaos: phase 1 OK — plane degraded and recovered under a backend kill/restart")

	subRootChaos()
	fmt.Println("chaos smoke OK: backend kill/restart recovered; sub-root kill re-parented into the global tier")
}

// subRootChaos boots a two-region hierarchical combining plane over real
// TCP, kills the west regional sub-root by its topology node id, and
// fails unless the region's survivors re-parent through the promoted
// member into the global tier and fresh globals reach a west leaf again.
func subRootChaos() {
	spec := topology.Spec{
		Regions: []topology.Region{
			{Name: "east", Members: []int{0, 1, 2}},
			{Name: "west", Members: []int{3, 4, 5}},
		},
		Fanout: 2,
	}
	plane, err := topology.Compile(spec)
	if err != nil {
		log.Fatalf("chaos: compile topology: %v", err)
	}
	ids := plane.Members()
	nodes := make(map[combining.NodeID]*combining.Node)
	trs := make(map[combining.NodeID]*treenet.Transport)
	reps := make(map[combining.NodeID]*treenet.PlaneReparenter)
	var mu sync.Mutex
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }

	for _, id := range ids {
		id := id
		tr, err := treenet.Listen(id, "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
			mu.Lock()
			defer mu.Unlock()
			if n, ok := nodes[id]; ok {
				n.OnMessage(from, msg)
			}
		})
		if err != nil {
			log.Fatalf("chaos: tree listen: %v", err)
		}
		trs[id] = tr
	}
	defer func() {
		for _, tr := range trs {
			tr.Close() //nolint:errcheck // teardown
		}
	}()
	for _, id := range ids {
		for _, other := range ids {
			if id != other {
				trs[id].SetPeer(other, trs[other].Addr())
			}
		}
		pl, _ := plane.Placement(id)
		nodes[id] = combining.NewBuilder(id).Parent(pl.Parent).Children(pl.Children...).
			Transport(trs[id].Send).Clock(now).Build()
		rep, err := treenet.NewPlaneReparenter(id, spec, 300*time.Millisecond)
		if err != nil {
			log.Fatalf("chaos: reparenter: %v", err)
		}
		reps[id] = rep
		nodes[id].SetLocal([]float64{float64(int(id) + 1)})
	}
	tick := func(live []combining.NodeID) {
		byDepth := append([]combining.NodeID(nil), live...)
		sort.Slice(byDepth, func(i, j int) bool {
			pi, _ := reps[byDepth[i]].Plane().Placement(byDepth[i])
			pj, _ := reps[byDepth[j]].Plane().Placement(byDepth[j])
			return pi.Level > pj.Level
		})
		mu.Lock()
		defer mu.Unlock()
		for _, id := range byDepth {
			nodes[id].Tick()
		}
		for _, id := range live {
			reps[id].Check(nodes[id], now())
		}
	}
	waitGlobal := func(at combining.NodeID, want float64, after time.Duration, live []combining.NodeID) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			tick(live)
			mu.Lock()
			g, ts, ok := nodes[at].Global()
			g = g.Clone() // Global aliases the node's buffer; the lock is about to go
			mu.Unlock()
			if ok && g.Sum[0] == want && ts > after {
				return
			}
			if time.Now().After(deadline) {
				log.Fatalf("chaos: node %d never saw global %v (got %v ok=%v)", at, want, g.Sum, ok)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitGlobal(5, 21, 0, ids) // 1+2+…+6 across both regions
	log.Print("chaos: hierarchical plane settled; killing west sub-root (node 3)")

	// The kill addresses a topology node id, not an address: the plan's
	// RedirectorDown event carries the id and the hook resolves it.
	var killedAt time.Duration
	survivors := []combining.NodeID{0, 1, 2, 4, 5}
	subPlan := fault.NewSchedule(2).CrashRedirector(0, 3)
	done := make(chan struct{})
	subPlan.Play(fault.Hooks{
		RedirectorDown: func(a int) {
			trs[combining.NodeID(a)].Close() //nolint:errcheck // fault injection
			mu.Lock()
			delete(nodes, combining.NodeID(a))
			mu.Unlock()
			killedAt = now()
			close(done)
		},
	})
	<-done

	// Post-repair sum drops node 3's contribution (21−4=17) and must reach
	// a west leaf again through the promoted sub-root.
	waitGlobal(5, 17, killedAt, survivors)
	if p := reps[4].Parent(); p != 0 {
		log.Fatalf("chaos: promoted sub-root parent = %d, want global root 0", p)
	}
	if p := reps[5].Parent(); p != 4 {
		log.Fatalf("chaos: west leaf parent = %d, want promoted sub-root 4 (re-parented sideways?)", p)
	}
	if got := reps[4].Removed(); len(got) != 1 || got[0] != 3 {
		log.Fatalf("chaos: removed = %v, want [3]", got)
	}
	log.Print("chaos: phase 2 OK — west survivors re-parented through node 4 into the global tier")
}

// scrape fetches a text exposition page.
func scrape(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("chaos: scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("chaos: scrape %s: %v", url, err)
	}
	return string(body)
}

// counter extracts the value of an unlabeled series (−1 when absent).
func counter(metrics, name string) float64 {
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err == nil {
			return v
		}
	}
	return -1
}
