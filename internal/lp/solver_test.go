package lp

import (
	"math"
	"math/rand"
	"testing"
)

// lexCold is the from-scratch reference for SolveLex: solve the primary
// problem, then build a brand-new problem with the floor row appended and the
// secondary objective, and solve that cold. SolveLex's warm-started second
// pass must agree on both objective values (the optimal point need not be
// unique, the objectives are).
func lexCold(t *testing.T, p *Problem, tol float64, obj2 []float64) *LexSolution {
	t.Helper()
	sol1, err := Solve(p)
	if err != nil {
		t.Fatalf("cold primary solve: %v", err)
	}
	out := &LexSolution{Status: sol1.Status}
	if sol1.Status != Optimal {
		return out
	}
	out.Primary = sol1.Objective
	out.X = append([]float64(nil), sol1.X...)

	floor := &Problem{
		Objective:   obj2,
		Constraints: make([]Constraint, 0, len(p.Constraints)+1),
	}
	floor.Constraints = append(floor.Constraints, p.Constraints...)
	floor.Constraints = append(floor.Constraints, Constraint{
		Coeffs: append([]float64(nil), p.Objective...),
		Rel:    GE,
		RHS:    sol1.Objective - tol,
	})
	sol2, err := Solve(floor)
	if err != nil || sol2.Status != Optimal {
		out.Secondary = dot(obj2, out.X)
		return out
	}
	out.X = append(out.X[:0], sol2.X...)
	out.Secondary = sol2.Objective
	return out
}

// randomLexProblem builds a bounded feasible LP: random objective, a few
// random LE rows with non-negative coefficients and positive RHS (so x = 0 is
// feasible and the non-negative orthant slice is bounded).
func randomLexProblem(rng *rand.Rand) (*Problem, []float64) {
	nv := 2 + rng.Intn(5)
	nc := 1 + rng.Intn(5)
	p := &Problem{Objective: make([]float64, nv)}
	for j := range p.Objective {
		p.Objective[j] = math.Round(rng.Float64()*20-5) / 2
	}
	for c := 0; c < nc; c++ {
		coeffs := make([]float64, nv)
		for j := range coeffs {
			coeffs[j] = math.Round(rng.Float64()*10) / 2
		}
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: coeffs, Rel: LE, RHS: 1 + math.Round(rng.Float64()*50),
		})
	}
	// A box keeps every instance bounded even when a column has all-zero
	// constraint coefficients.
	box := make([]float64, nv)
	for j := range box {
		box[j] = 1
	}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: box, Rel: LE, RHS: 1e4})

	obj2 := make([]float64, nv)
	for j := range obj2 {
		obj2[j] = 1
	}
	return p, obj2
}

func TestSolveLexMatchesColdTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		p, obj2 := randomLexProblem(rng)
		warm, err := SolveLex(p, 1e-9, obj2)
		if err != nil {
			t.Fatalf("iter %d: SolveLex: %v", iter, err)
		}
		cold := lexCold(t, p, 1e-9, obj2)
		if warm.Status != cold.Status {
			t.Fatalf("iter %d: status %v vs cold %v", iter, warm.Status, cold.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		if math.Abs(warm.Primary-cold.Primary) > 1e-6 {
			t.Fatalf("iter %d: primary %g vs cold %g\n%+v", iter, warm.Primary, cold.Primary, p)
		}
		if math.Abs(warm.Secondary-cold.Secondary) > 1e-5 {
			t.Fatalf("iter %d: secondary %g vs cold %g\n%+v", iter, warm.Secondary, cold.Secondary, p)
		}
		if !feasible(p, warm.X, 1e-6) {
			t.Fatalf("iter %d: warm point infeasible: %v", iter, warm.X)
		}
	}
}

func TestSolveLexInfeasible(t *testing.T) {
	p := &Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, RHS: 2},
			{Coeffs: []float64{1}, Rel: LE, RHS: 1},
		},
	}
	sol, err := SolveLex(p, 1e-9, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveLexUnbounded(t *testing.T) {
	p := &Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1},
		},
	}
	sol, err := SolveLex(p, 1e-9, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveLexImprovesSecondary(t *testing.T) {
	// max x1 s.t. x1 ≤ 1, x1+x2 ≤ 3: primary optimum x1=1 leaves x2 free in
	// [0,2]; the throughput pass must push x1+x2 to 3.
	p := &Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 1},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 3},
		},
	}
	sol, err := SolveLex(p, 1e-9, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Primary-1) > 1e-9 || math.Abs(sol.Secondary-3) > 1e-9 {
		t.Fatalf("primary %g secondary %g, want 1 and 3", sol.Primary, sol.Secondary)
	}
	if math.Abs(sol.X[0]-1) > 1e-9 || math.Abs(sol.X[1]-2) > 1e-9 {
		t.Fatalf("x = %v, want [1 2]", sol.X)
	}
}

func TestSolverValidatesInput(t *testing.T) {
	if _, err := Solve(&Problem{Objective: []float64{math.NaN()}}); err == nil {
		t.Fatal("NaN objective accepted")
	}
	if _, err := SolveLex(&Problem{Objective: []float64{1}}, 1e-9, []float64{1, 2}); err == nil {
		t.Fatal("mismatched obj2 length accepted")
	}
}
