package lp

import (
	"math"
	"testing"
)

// FuzzSolveTwoVar feeds arbitrary two-variable programs with up to three
// rows into the solver: it must never panic, optimal solutions must be
// feasible for the constraints it was given, and the non-zero-only pivot must
// end on the dense oracle's tableau.
func FuzzSolveTwoVar(f *testing.F) {
	f.Add(3.0, 2.0, 1.0, 1.0, 4.0, int8(0), 1.0, 3.0, 6.0, int8(0))
	f.Add(-1.0, -1.0, 1.0, 1.0, 4.0, int8(1), 0.0, 1.0, 2.0, int8(2))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, int8(0), 0.0, 0.0, -1.0, int8(1))
	f.Fuzz(func(t *testing.T, c1, c2, a1, a2, b1 float64, r1 int8,
		d1, d2, b2 float64, r2 int8) {
		for _, v := range []float64{c1, c2, a1, a2, b1, d1, d2, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return // malformed-input rejection is covered elsewhere
			}
		}
		rel := func(r int8) Relation { return Relation(((int(r) % 3) + 3) % 3) }
		p := &Problem{
			Objective: []float64{c1, c2},
			Constraints: []Constraint{
				{Coeffs: []float64{a1, a2}, Rel: rel(r1), RHS: b1},
				{Coeffs: []float64{d1, d2}, Rel: rel(r2), RHS: b2},
				// A box keeps most instances bounded; unbounded results
				// remain legal outcomes.
				{Coeffs: []float64{1, 1}, Rel: LE, RHS: 1e6},
			},
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve error on finite input: %v", err)
		}
		if sol.Status == Optimal && !feasible(p, sol.X, 1e-4*(1+math.Abs(b1)+math.Abs(b2))) {
			t.Fatalf("optimal point infeasible: %v for %+v", sol.X, p)
		}
		checkPivotDifferential(t, p, []float64{1, 1})
	})
}
