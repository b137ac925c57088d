package lp

import "fmt"

// Var is a handle to a variable created through a Builder.
type Var int

// Term is one coefficient·variable product inside a constraint row.
type Term struct {
	Var   Var
	Coeff float64
}

// T is shorthand for constructing a Term.
func T(v Var, coeff float64) Term { return Term{Var: v, Coeff: coeff} }

// Builder assembles a Problem incrementally with named variables. It exists
// because the scheduling models in internal/sched are much easier to audit
// against the paper's formulation when rows are written as terms instead of
// positional coefficient slices.
type Builder struct {
	names []string
	obj   []float64
	cons  []Constraint
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Var adds a variable (implicitly ≥ 0) with the given objective coefficient
// and returns its handle. The name is used only in String/diagnostics; large
// generated programs may prefer NewVar, which skips name bookkeeping.
func (b *Builder) Var(name string, objCoeff float64) Var {
	if b.names == nil {
		b.names = make([]string, len(b.obj), len(b.obj)+1)
	}
	b.names = append(b.names, name)
	b.obj = append(b.obj, objCoeff)
	return Var(len(b.obj) - 1)
}

// NewVar adds an unnamed variable (implicitly ≥ 0) with the given objective
// coefficient. Diagnostics render such variables as x<index>; no per-variable
// string is ever built.
func (b *Builder) NewVar(objCoeff float64) Var {
	if b.names != nil {
		b.names = append(b.names, "")
	}
	b.obj = append(b.obj, objCoeff)
	return Var(len(b.obj) - 1)
}

// NumVars reports how many variables have been declared.
func (b *Builder) NumVars() int { return len(b.obj) }

// Constrain appends the row Σ terms (rel) rhs.
func (b *Builder) Constrain(rel Relation, rhs float64, terms ...Term) {
	coeffs := make([]float64, len(b.obj))
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(b.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		coeffs[t.Var] += t.Coeff
	}
	b.cons = append(b.cons, Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs})
}

// Bound constrains lo ≤ v ≤ hi using one or two rows. Infinite bounds may be
// expressed with math.Inf; lo ≤ 0 adds no lower-bound row (variables are
// non-negative already).
func (b *Builder) Bound(v Var, lo, hi float64) {
	if lo > 0 {
		b.Constrain(GE, lo, T(v, 1))
	}
	if !isPosInf(hi) {
		b.Constrain(LE, hi, T(v, 1))
	}
}

func isPosInf(v float64) bool { return v > 1e300 }

// Problem freezes the builder into a Problem. The builder remains usable;
// subsequent mutations do not affect the returned Problem.
func (b *Builder) Problem() *Problem {
	obj := make([]float64, len(b.obj))
	copy(obj, b.obj)
	cons := make([]Constraint, len(b.cons))
	for i, c := range b.cons {
		coeffs := make([]float64, len(c.Coeffs))
		copy(coeffs, c.Coeffs)
		cons[i] = Constraint{Coeffs: coeffs, Rel: c.Rel, RHS: c.RHS}
	}
	return &Problem{Objective: obj, Constraints: cons}
}

// Solve builds and solves the problem.
func (b *Builder) Solve() (*Solution, error) {
	return Solve(b.Problem())
}

// Value reads a variable out of a solution produced for this builder's
// problem. It returns 0 for non-optimal solutions.
func (b *Builder) Value(sol *Solution, v Var) float64 {
	if sol == nil || sol.Status != Optimal || int(v) >= len(sol.X) {
		return 0
	}
	return sol.X[v]
}

// name returns the display name of variable j, synthesizing x<j> for
// variables declared without one.
func (b *Builder) name(j int) string {
	if j < len(b.names) && b.names[j] != "" {
		return b.names[j]
	}
	return fmt.Sprintf("x%d", j)
}

// String renders the model in a human-readable form for debugging.
func (b *Builder) String() string {
	s := "maximize"
	for j, c := range b.obj {
		if c != 0 {
			s += fmt.Sprintf(" %+g·%s", c, b.name(j))
		}
	}
	s += "\nsubject to\n"
	for _, c := range b.cons {
		row := " "
		for j, v := range c.Coeffs {
			if v != 0 {
				row += fmt.Sprintf(" %+g·%s", v, b.name(j))
			}
		}
		s += fmt.Sprintf("%s %s %g\n", row, c.Rel, c.RHS)
	}
	return s
}
