// Package lp implements a small, dependency-free linear programming solver
// based on the two-phase primal simplex method over dense tableaus.
//
// It is the value oracle for internal/sched, not a per-window solver: the
// schedulers solve their programs combinatorially, and their tests state the
// same programs here (SolveLex for the lexicographic second pass) and require
// θ, throughput, income and every constraint to agree. No production package
// imports it. At the oracle's scale — a few hundred rows — an exact dense
// simplex with Bland's anti-cycling rule is both fast and numerically
// dependable.
//
// Problems are stated in the form
//
//	maximize  c·x
//	subject to a_i·x (≤|=|≥) b_i   for each constraint i
//	           x ≥ 0
//
// Variables are implicitly non-negative; use two variables (x = x⁺ − x⁻) for
// a free variable, or the Builder helpers which do such rewrites.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the comparison operator of a constraint row.
type Relation int

const (
	// LE constrains a·x ≤ b.
	LE Relation = iota
	// GE constrains a·x ≥ b.
	GE
	// EQ constrains a·x = b.
	EQ
)

// String returns the conventional symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Constraint is a single row a·x (≤|=|≥) b. Coeffs shorter than the number of
// problem variables are implicitly zero-padded.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program in maximization form.
type Problem struct {
	// Objective holds c in "maximize c·x". Its length fixes the number of
	// structural variables.
	Objective []float64
	// Constraints are the rows of the program.
	Constraints []Constraint
}

// Status reports the outcome of a Solve call.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no solution with x ≥ 0.
	Infeasible
	// Unbounded means the objective can be made arbitrarily large.
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X is the optimal assignment (length = len(Problem.Objective)).
	// Meaningful only when Status == Optimal.
	X []float64
	// Objective is c·X. Meaningful only when Status == Optimal.
	Objective float64
}

// ErrBadProblem reports a structurally invalid problem (for example a
// constraint row longer than the objective vector).
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// validate rejects structurally invalid or non-finite problems.
func validate(p *Problem) error {
	n := len(p.Objective)
	if n == 0 {
		return fmt.Errorf("%w: empty objective", ErrBadProblem)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > n {
			return fmt.Errorf("%w: constraint %d has %d coefficients for %d variables",
				ErrBadProblem, i, len(c.Coeffs), n)
		}
		for _, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: constraint %d has non-finite coefficient", ErrBadProblem, i)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("%w: constraint %d has non-finite RHS", ErrBadProblem, i)
		}
	}
	for _, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite objective coefficient", ErrBadProblem)
		}
	}
	return nil
}

// Solve runs the two-phase simplex method on p. The returned error is non-nil
// only for malformed input; infeasibility and unboundedness are reported via
// Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	t := newTableau(p, false)
	if !t.phase1() {
		return &Solution{Status: Infeasible}, nil
	}
	if !t.phase2(p.Objective) {
		return &Solution{Status: Unbounded}, nil
	}
	x := t.extract(len(p.Objective))
	return &Solution{Status: Optimal, X: x, Objective: dot(p.Objective, x)}, nil
}

// LexSolution is the result of a lexicographic SolveLex call.
type LexSolution struct {
	Status Status
	// X is the assignment after the secondary pass (length =
	// len(Problem.Objective)). Meaningful only when Status == Optimal.
	X []float64
	// Primary is the optimal value of the problem's own objective, attained
	// in the first pass and held (within the tolerance) by X.
	Primary float64
	// Secondary is obj2·X.
	Secondary float64
}

// SolveLex solves p lexicographically: first it maximizes p.Objective, then —
// holding that objective within tol of its optimum — it maximizes obj2
// (indexed by structural variable, zero-padded) starting from the first
// pass's optimal basis. Warm-starting skips the second phase 1 entirely: the
// floor row "p.Objective·x ≥ Primary − tol" is appended to the solved tableau
// with its own surplus column and the basis stays feasible by construction.
//
// If the secondary pass fails (unbounded secondary objective), the first
// pass's solution is returned unchanged, mirroring a from-scratch
// lexicographic re-solve that keeps the primary solution on failure.
func SolveLex(p *Problem, tol float64, obj2 []float64) (*LexSolution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if len(obj2) > len(p.Objective) {
		return nil, fmt.Errorf("%w: secondary objective has %d coefficients for %d variables",
			ErrBadProblem, len(obj2), len(p.Objective))
	}
	return newTableau(p, true).solveLex(p, tol, obj2), nil
}

// solveLex runs SolveLex's two passes on t, a tableau fresh from
// newTableau(p, true).
func (t *tableau) solveLex(p *Problem, tol float64, obj2 []float64) *LexSolution {
	if !t.phase1() {
		return &LexSolution{Status: Infeasible}
	}
	if !t.phase2(p.Objective) {
		return &LexSolution{Status: Unbounded}
	}
	n := len(p.Objective)
	x := t.extract(n)
	primary := dot(p.Objective, x)
	if t.lexReopt(p.Objective, primary-tol, obj2) {
		x = t.extract(n)
	}
	return &LexSolution{Status: Optimal, X: x, Primary: primary, Secondary: dot(obj2, x)}
}

func dot(a, b []float64) float64 {
	v := 0.0
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}
