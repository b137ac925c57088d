// Package repro implements distributed enforcement of resource sharing
// agreements among server clusters, reproducing Zhao & Karamcheti,
// "Enforcing Resource Sharing Agreements among Distributed Server
// Clusters" (IPDPS 2002).
//
// # Overview
//
// The library lets a set of redirector nodes — the admission points between
// distributed clients and a pool of servers owned by multiple principals —
// enforce service level agreements of the form [lb, ub]: principal j is
// guaranteed lb·100% of principal i's resources under overload and may use
// up to ub·100% when slack exists.
//
// The pieces, bottom to top:
//
//   - A System (internal/agreement) records principals, capacities and
//     direct agreements, and folds direct plus transitive agreement chains
//     into per-principal mandatory/optional access levels and per-pair
//     entitlement matrices via the ticket/currency flow computation of the
//     paper's §2–3.1.1.
//   - Window schedulers (internal/sched) solve, every 100 ms window, a
//     small linear program choosing how many queued requests of each
//     principal to forward where: either maximizing the minimum served
//     queue fraction (community, solved exactly as a parametric max-flow)
//     or the provider's income (provider, a fractional knapsack).
//   - An Engine (internal/core) stamps out one Redirector per admission
//     point; each converts the LP plan into per-window credits that admit
//     or turn away individual requests in O(1), scaled to the node's local
//     share of the global demand.
//   - A combining tree (internal/combining, internal/treenet) aggregates
//     per-principal queue estimates across redirectors in 2(n−1) messages
//     per epoch and broadcasts the global view back down.
//   - Two enforcement front-ends on real sockets: a Layer-7 HTTP
//     redirector (internal/l7) answering with 302 redirects, and a Layer-4
//     connection redirector (internal/l4) splicing TCP connections with
//     pending-queue reinjection.
//   - A deterministic virtual-time harness (internal/sim, internal/vclock)
//     and canned reproductions of every figure of the paper's evaluation
//     (internal/experiments).
//
// # Quick start
//
//	sys := repro.NewSystem()
//	a := sys.MustAddPrincipal("A", 320) // owns 320 req/s
//	b := sys.MustAddPrincipal("B", 320)
//	sys.MustSetAgreement(b, a, 0.5, 0.5) // B grants A half its server
//
//	eng, err := repro.NewEngine(repro.EngineConfig{
//		Mode:   repro.Community,
//		System: sys,
//	})
//	// err handling elided
//	red := eng.NewRedirector(0)
//	red.StartWindow(0)
//	decision := red.Admit(a) // admit or self-redirect one request
//	_ = decision
//	_ = err
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// paper-versus-measured record.
package repro
