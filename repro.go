package repro

import (
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/experiments"
)

// Principal identifies a participant: an owner and/or user of resources.
type Principal = agreement.Principal

// System is the agreement graph: principals, capacities, and [lb, ub]
// contracts between them.
type System = agreement.System

// Agreement is one direct contract between two principals.
type Agreement = agreement.Agreement

// Access holds the folded entitlements: per-principal mandatory/optional
// rates (MC, OC) and per-pair matrices (MI, OI).
type Access = agreement.Access

// Flows holds the capacity-independent path sums; recompute Access cheaply
// when only capacities change.
type Flows = agreement.Flows

// Currency is the valuation view of one principal's currency, including the
// tickets it has issued (the paper's Figure 3 walkthrough).
type Currency = agreement.Currency

// Ticket is one transfer of rights between currencies.
type Ticket = agreement.Ticket

// NewSystem returns an empty agreement system.
func NewSystem() *System { return agreement.New() }

// Mode selects the scheduling objective.
type Mode = core.Mode

// Scheduling modes.
const (
	// Community maximizes the minimum served queue fraction across
	// principals.
	Community = core.Community
	// Provider maximizes the provider's income.
	Provider = core.Provider
)

// EngineConfig parameterizes an enforcement engine.
type EngineConfig = core.Config

// Engine holds the folded agreement state of one redirector: every
// admission point of a deployment runs its own.
type Engine = core.Engine

// Redirector is one admission point's enforcement state: window credits,
// demand estimation and global-view tracking.
type Redirector = core.Redirector

// Decision is the outcome of admitting one request.
type Decision = core.Decision

// NewEngine folds the agreement graph and builds the window scheduler.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// ExperimentResult is a paper-reproduction run: measured series, phase
// means and the paper's expected values.
type ExperimentResult = experiments.Result

// ExperimentIDs lists the available paper experiments (fig1, fig3, fig6–10
// and the two ablations).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment executes one paper experiment by id.
func RunExperiment(id string) (*ExperimentResult, error) { return experiments.Run(id) }
