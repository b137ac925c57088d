// Fault injection for the simulation: crash and restore backend servers,
// cut and heal tree links, spike link latency — all on the virtual clock, so
// a chaos run is exactly reproducible from its fault.Schedule seed.
package sim

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/simnet"
)

// EnableCapacityReinterpretation arms the paper's §2.2 dynamic capacity
// model for fault injection: when a server crashes (CrashServer), its
// owner's effective capacity shrinks proportionally and every live member's
// engine recomputes its entitlements against the new level at the same
// instant (UpdateCapacities); a restore reverses it. Every member's window
// trace flags the windows scheduled while a server is down
// (obs.Record.Degraded). Call before Run. The returned re-interpreter
// exposes degraded / recovered transition counters for assertions.
func (s *Sim) EnableCapacityReinterpretation() *health.Reinterpreter {
	if s.reint == nil {
		s.reint = health.NewReinterpreter(s, s.owners)
		for _, rn := range s.Redirectors {
			rn.Observer().SetHealthInfo(s.reint.Degraded)
		}
	}
	return s.reint
}

// CrashServer takes the named server (e.g. "S-srv1", see ServerSpec naming)
// out of service: it accepts no new requests, though already-queued work
// drains. With EnableCapacityReinterpretation armed, the owner's capacity is
// re-interpreted downward.
func (s *Sim) CrashServer(name string) error {
	if _, ok := s.byName[name]; !ok {
		return fmt.Errorf("%w: unknown server %q", ErrConfig, name)
	}
	if s.crashed[name] {
		return nil
	}
	s.crashed[name] = true
	if s.reint != nil {
		return s.reint.SetBackendDown(name, true)
	}
	return nil
}

// RestoreServer returns a crashed server to service at its original
// capacity (undoing any SlowServer scaling) and, with re-interpretation
// armed, restores the owner's capacity share.
func (s *Sim) RestoreServer(name string) error {
	srv, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: unknown server %q", ErrConfig, name)
	}
	if !s.crashed[name] {
		return nil
	}
	delete(s.crashed, name)
	srv.SetCapacity(s.baseCap[name])
	if s.reint != nil {
		return s.reint.SetBackendDown(name, false)
	}
	return nil
}

// SlowServer scales the named server's service rate to factor × its base
// capacity (0 < factor). The agreement layer keeps its static
// interpretation — requests simply take longer — matching a degraded but
// not dead machine.
func (s *Sim) SlowServer(name string, factor float64) error {
	srv, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: unknown server %q", ErrConfig, name)
	}
	if factor <= 0 {
		return fmt.Errorf("%w: slow factor %v for %q", ErrConfig, factor, name)
	}
	srv.SetCapacity(s.baseCap[name] * factor)
	return nil
}

// InjectFaults replays the plan on the simulation's virtual clock: backend
// events crash/restore named servers, partition/heal events cut simnet tree
// links both ways, latency events reset one-way link delay, slow events
// rescale server capacity, redirector events kill and restart enforcers.
// Unknown server names panic — a fault plan that misses its target is a
// test bug, not a tolerable fault.
func (s *Sim) InjectFaults(plan *fault.Schedule) {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("sim: fault injection: %v", err))
		}
	}
	h := fault.Hooks{
		BackendDown: func(target string) { must(s.CrashServer(target)) },
		BackendUp:   func(target string) { must(s.RestoreServer(target)) },
		Partition: func(a, b int) {
			s.Net.SetPartitioned(simnet.NodeID(a), simnet.NodeID(b), true)
		},
		Heal: func(a, b int) {
			s.Net.SetPartitioned(simnet.NodeID(a), simnet.NodeID(b), false)
		},
		Latency: func(a, b int, d time.Duration) {
			s.Net.SetDelay(simnet.NodeID(a), simnet.NodeID(b), d)
		},
		SlowBackend:    func(target string, factor float64) { must(s.SlowServer(target, factor)) },
		RedirectorDown: s.FailRedirector,
		RedirectorUp:   s.RestartRedirector,
	}
	plan.Apply(h, s.At)
}
