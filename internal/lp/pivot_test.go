package lp

import (
	"math"
	"math/rand"
	"testing"
)

// pivotDense is the reference elimination pivot replaced: every column of
// every row with a non-zero entry in the pivot column is updated, whether or
// not the pivot row has anything there. It is kept as the oracle for the
// non-zero-only loop and must never be called outside tests.
func (t *tableau) pivotDense(r, c int) {
	prow := t.a[r]
	inv := 1 / prow[c]
	for j := 0; j < t.cols; j++ {
		prow[j] *= inv
	}
	t.b[r] *= inv
	prow[c] = 1

	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.cols; j++ {
			row[j] -= f * prow[j]
		}
		row[c] = 0
		t.b[i] -= f * t.b[r]
		if t.b[i] < 0 && t.b[i] > -eps {
			t.b[i] = 0
		}
	}
	if f := t.z[c]; f != 0 {
		for j := 0; j < t.cols; j++ {
			t.z[j] -= f * prow[j]
		}
		t.z[c] = 0
		t.zrhs -= f * t.b[r]
	}
	t.basis[r] = c
}

func (t *tableau) runDense(maxCols int) bool {
	for {
		leave, enter := t.choose(maxCols)
		if enter < 0 {
			return true
		}
		if leave < 0 {
			return false
		}
		t.pivotDense(leave, enter)
	}
}

// denseSolveLex is SolveLex with every pivot taken by pivotDense: the same
// phases in the same order on the same fresh tableau, so a difference in the
// final tableau can only come from the elimination loops.
func denseSolveLex(t *tableau, p *Problem, tol float64, obj2 []float64) Status {
	if t.artStart != t.cols {
		obj := make([]float64, t.cols)
		for j := t.artStart; j < t.cols; j++ {
			obj[j] = -1
		}
		t.setObjective(obj)
		t.runDense(t.cols)
		if t.zrhs < -1e-7 {
			return Infeasible
		}
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.artStart {
				continue
			}
			pivoted := false
			for j := 0; j < t.artStart; j++ {
				if t.a[i][j] > eps || t.a[i][j] < -eps {
					t.pivotDense(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				last := t.m - 1
				t.a[i], t.a[last] = t.a[last], t.a[i]
				t.b[i], t.b[last] = t.b[last], t.b[i]
				t.basis[i], t.basis[last] = t.basis[last], t.basis[i]
				t.m--
				t.a, t.b, t.basis = t.a[:t.m], t.b[:t.m], t.basis[:t.m]
				i--
			}
		}
	}
	t.setObjective(p.Objective)
	if !t.runDense(t.artStart) {
		return Unbounded
	}
	x := t.extract(len(p.Objective))
	t.appendFloor(p.Objective, dot(p.Objective, x)-tol)
	t.setObjective(obj2)
	t.runDense(t.cols)
	return Optimal
}

// sameFloat is bit equality up to the sign of a zero: skipping x − f·0 keeps
// −0 where the dense loop would have produced +0, and nothing else.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkPivotDifferential solves p with SolveLex's passes and with the dense
// oracle and requires the two final tableaus to agree: status, row count,
// basis, right-hand sides and reduced costs.
func checkPivotDifferential(t *testing.T, p *Problem, obj2 []float64) {
	t.Helper()
	if err := validate(p); err != nil {
		t.Fatalf("SolveLex: %v", err)
	}
	got, dense := newTableau(p, true), newTableau(p, true)
	sol := got.solveLex(p, 1e-9, obj2)
	if st := denseSolveLex(dense, p, 1e-9, obj2); st != sol.Status {
		t.Fatalf("status %v, dense oracle %v", sol.Status, st)
	}
	if sol.Status != Optimal {
		return
	}
	if got.m != dense.m || got.cols != dense.cols {
		t.Fatalf("shape %d×%d, dense oracle %d×%d", got.m, got.cols, dense.m, dense.cols)
	}
	for i := 0; i < got.m; i++ {
		if got.basis[i] != dense.basis[i] {
			t.Fatalf("basis[%d] = %d, dense oracle %d", i, got.basis[i], dense.basis[i])
		}
		if !sameFloat(got.b[i], dense.b[i]) {
			t.Fatalf("b[%d] = %x, dense oracle %x", i, math.Float64bits(got.b[i]), math.Float64bits(dense.b[i]))
		}
	}
	for j := 0; j < got.cols; j++ {
		if !sameFloat(got.z[j], dense.z[j]) {
			t.Fatalf("z[%d] = %x, dense oracle %x", j, math.Float64bits(got.z[j]), math.Float64bits(dense.z[j]))
		}
	}
	if !sameFloat(got.zrhs, dense.zrhs) {
		t.Fatalf("objective %v, dense oracle %v", got.zrhs, dense.zrhs)
	}
}

// communityShaped builds a program with the community scheduler's structure
// for n principals, every pair entitled: θ and n² flows with a bound row
// each, a served/demand/floor row per principal and a capacity row per
// owner — 193 rows by 362 columns at n = 12.
func communityShaped(rng *rand.Rand, n int) (*Problem, []float64) {
	b := NewBuilder()
	theta := b.NewVar(1)
	b.Bound(theta, 0, 1)
	x := make([][]Var, n)
	mc := make([]float64, n)
	for i := range x {
		x[i] = make([]Var, n)
		for k := range x[i] {
			mi := 100 / float64(n) * rng.Float64()
			mc[i] += mi
			x[i][k] = b.NewVar(0)
			b.Bound(x[i][k], 0, mi*(1+rng.Float64()))
		}
	}
	for i := 0; i < n; i++ {
		q := 150 * rng.Float64()
		served := []Term{T(theta, -q)}
		var sum []Term
		for k := 0; k < n; k++ {
			served = append(served, T(x[i][k], 1))
			sum = append(sum, T(x[i][k], 1))
		}
		b.Constrain(GE, 0, served...)
		b.Constrain(LE, q, sum...)
		b.Constrain(GE, math.Min(q, mc[i]), sum...)
	}
	for k := 0; k < n; k++ {
		var load []Term
		for i := 0; i < n; i++ {
			load = append(load, T(x[i][k], 1))
		}
		b.Constrain(LE, 100, load...)
	}
	obj2 := make([]float64, b.NumVars())
	for j := 1; j < len(obj2); j++ {
		obj2[j] = 1
	}
	return b.Problem(), obj2
}

// providerShaped builds a program with the provider scheduler's structure: a
// priced flow per customer between its clipped floor and ceiling, and one
// aggregate capacity row.
func providerShaped(rng *rand.Rand, n int) (*Problem, []float64) {
	b := NewBuilder()
	var all []Term
	for i := 0; i < n; i++ {
		v := b.NewVar(1 + math.Round(4*rng.Float64()))
		mc, q := 30*rng.Float64(), 60*rng.Float64()
		lo := math.Min(mc, q)
		b.Bound(v, lo, math.Max(lo, math.Min(mc*(1+rng.Float64()), q)))
		all = append(all, T(v, 1))
	}
	b.Constrain(LE, 20*float64(n), all...)
	obj2 := make([]float64, n)
	for j := range obj2 {
		obj2[j] = 1
	}
	return b.Problem(), obj2
}

func TestDifferentialSparseDensePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shaped := 1000
	if testing.Short() {
		shaped = 100
	}
	for iter := 0; iter < shaped; iter++ {
		var p *Problem
		var obj2 []float64
		if iter%2 == 0 {
			p, obj2 = communityShaped(rng, 2+rng.Intn(11))
		} else {
			p, obj2 = providerShaped(rng, 1+rng.Intn(47))
		}
		checkPivotDifferential(t, p, obj2)
	}
	for iter := 0; iter < 500; iter++ {
		p, obj2 := randomLexProblem(rng)
		checkPivotDifferential(t, p, obj2)
	}
}

func BenchmarkSolveLex(b *testing.B) {
	b.Run("community-n=12", func(b *testing.B) {
		p, obj2 := communityShaped(rand.New(rand.NewSource(1)), 12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sol, err := SolveLex(p, 1e-9, obj2); err != nil || sol.Status != Optimal {
				b.Fatalf("status=%v err=%v", sol.Status, err)
			}
		}
	})
}
