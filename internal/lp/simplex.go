package lp

import "fmt"

// tableau is a dense simplex tableau kept in canonical form: the columns of
// the current basis always form an identity submatrix, and the objective row
// z holds reduced costs (z[j] = c_B·B⁻¹A_j − c_j) so that optimality is
// "all z[j] ≥ 0" and the entering rule is "most negative / Bland".
type tableau struct {
	m    int // constraint rows (may shrink if redundant rows are dropped)
	n    int // structural variables
	cols int // structural + slack/surplus + artificial columns

	a     [][]float64 // m × cols constraint matrix
	b     []float64   // RHS, kept ≥ 0
	basis []int       // basis[i] = column basic in row i

	artStart int // first artificial column; artificials occupy [artStart, cols)

	z    []float64 // reduced-cost row for the active objective
	zrhs float64   // current objective value c_B·B⁻¹b

	nz []int // columns where the current pivot row is non-zero (pivot scratch)
}

// newTableau builds the initial canonical form of p. With reserveLex set,
// one extra row and one extra column are reserved so that lexReopt can later
// append a floor constraint without reallocating.
func newTableau(p *Problem, reserveLex bool) *tableau {
	m := len(p.Constraints)
	n := len(p.Objective)

	slacks := 0
	arts := 0
	for _, c := range p.Constraints {
		rel, rhs := c.Rel, c.RHS
		if rhs < 0 { // row will be negated; relation flips
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}

	cols := n + slacks + arts
	stride, rows := cols, m
	if reserveLex {
		stride, rows = cols+1, m+1
	}
	t := &tableau{
		m: m, n: n, cols: cols,
		artStart: n + slacks,
		a:        make([][]float64, rows),
		b:        make([]float64, m, rows),
		basis:    make([]int, m, rows),
		z:        make([]float64, stride),
		nz:       make([]int, stride),
	}
	flat := make([]float64, rows*stride)
	for i := 0; i < rows; i++ {
		// Three-index slices: a row may grow only into its reserved column.
		t.a[i] = flat[i*stride : i*stride+cols : (i+1)*stride]
	}
	t.a = t.a[:m]

	slackCol := n
	artCol := t.artStart
	for i, c := range p.Constraints {
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1.0
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for j, v := range c.Coeffs {
			t.a[i][j] = sign * v
		}
		t.b[i] = sign * c.RHS
		switch rel {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	return t
}

// setObjective installs the reduced-cost row for "maximize obj·x" (obj indexed
// by column, zero-padded) under the current basis.
func (t *tableau) setObjective(obj []float64) {
	t.z = t.z[:t.cols]
	for j := range t.z {
		t.z[j] = 0
	}
	for j := 0; j < t.cols && j < len(obj); j++ {
		t.z[j] = -obj[j]
	}
	t.zrhs = 0
	for i := 0; i < t.m; i++ {
		cb := 0.0
		if t.basis[i] < len(obj) {
			cb = obj[t.basis[i]]
		}
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.cols; j++ {
			t.z[j] += cb * row[j]
		}
		t.zrhs += cb * t.b[i]
	}
}

// pivot makes column c basic in row r via Gauss–Jordan elimination, updating
// the objective row alongside. The scheduling programs are sparse — a bound
// row touches one structural column — so the scaling pass records where the
// pivot row is non-zero and the eliminations visit only those columns: every
// skipped term is x − f·0, which leaves x as it was (up to the sign of a
// zero, which nothing downstream can observe), so bases, pivot order and
// solutions are those of the dense loop.
func (t *tableau) pivot(r, c int) {
	prow := t.a[r]
	inv := 1 / prow[c]
	nz := t.nz[:0]
	for j, v := range prow {
		v *= inv
		prow[j] = v
		if v != 0 {
			nz = append(nz, j)
		}
	}
	t.b[r] *= inv
	prow[c] = 1 // remove roundoff on the pivot itself

	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		row := t.a[i]
		f := row[c]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[c] = 0
		t.b[i] -= f * t.b[r]
		if t.b[i] < 0 && t.b[i] > -eps {
			t.b[i] = 0
		}
	}
	if f := t.z[c]; f != 0 {
		for _, j := range nz {
			t.z[j] -= f * prow[j]
		}
		t.z[c] = 0
		t.zrhs -= f * t.b[r]
	}
	t.basis[r] = c
}

// run iterates simplex pivots until optimality, using Bland's rule for both
// the entering and leaving variable so that cycling is impossible.
// maxCols limits which columns may enter (used to exclude artificials in
// phase 2). It reports false if the objective is unbounded above.
func (t *tableau) run(maxCols int) bool {
	// Bland's rule terminates after finitely many pivots; the guard below
	// only trips on an internal invariant violation.
	limit := 200 * (t.m + t.cols + 16)
	for iter := 0; ; iter++ {
		if iter > limit {
			panic(fmt.Sprintf("lp: simplex did not terminate in %d pivots (m=%d cols=%d)", limit, t.m, t.cols))
		}
		leave, enter := t.choose(maxCols)
		if enter < 0 {
			return true // optimal
		}
		if leave < 0 {
			return false // unbounded
		}
		t.pivot(leave, enter)
	}
}

// choose picks the next pivot by Bland's rule: the lowest-index column with a
// negative reduced cost enters (−1: the basis is optimal), and the row with
// the smallest ratio leaves, ties going to the lowest basic index (−1: no row
// bounds the entering column).
func (t *tableau) choose(maxCols int) (leave, enter int) {
	enter = -1
	for j := 0; j < maxCols; j++ {
		if t.z[j] < -eps {
			enter = j
			break
		}
	}
	if enter < 0 {
		return -1, -1
	}
	leave = -1
	best := 0.0
	for i := 0; i < t.m; i++ {
		aic := t.a[i][enter]
		if aic <= eps {
			continue
		}
		ratio := t.b[i] / aic
		if leave < 0 || ratio < best-eps ||
			(ratio < best+eps && t.basis[i] < t.basis[leave]) {
			leave = i
			best = ratio
		}
	}
	return leave, enter
}

// phase1 finds an initial basic feasible solution. It reports false when the
// problem is infeasible.
func (t *tableau) phase1() bool {
	if t.artStart == t.cols {
		return true // pure-slack basis is already feasible
	}
	obj := make([]float64, t.cols)
	for j := t.artStart; j < t.cols; j++ {
		obj[j] = -1 // maximize −Σ artificials
	}
	t.setObjective(obj)
	if !t.run(t.cols) {
		// −Σ artificials is bounded above by 0; unbounded cannot happen.
		panic("lp: phase 1 reported unbounded")
	}
	if t.zrhs < -1e-7 {
		return false // artificials cannot all reach zero
	}
	t.evictArtificials()
	return true
}

// evictArtificials pivots any artificial variable still basic (at value zero)
// out of the basis, dropping rows that turn out to be redundant.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if t.a[i][j] > eps || t.a[i][j] < -eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// The row is 0=0 after reduction: redundant. Remove it.
			last := t.m - 1
			t.a[i], t.a[last] = t.a[last], t.a[i]
			t.b[i], t.b[last] = t.b[last], t.b[i]
			t.basis[i], t.basis[last] = t.basis[last], t.basis[i]
			t.m--
			t.a = t.a[:t.m]
			t.b = t.b[:t.m]
			t.basis = t.basis[:t.m]
			i--
		}
	}
}

// phase2 optimizes the structural objective obj from the feasible basis
// produced by phase1. It reports false when the program is unbounded. Artificial
// columns are excluded from entering; after evictArtificials none is basic,
// so they stay at zero.
func (t *tableau) phase2(obj []float64) bool {
	t.setObjective(obj)
	return t.run(t.artStart)
}

// lexReopt warm-starts the lexicographic second pass from the current
// optimal basis: it appends the floor row primObj·x ≥ floor — satisfied by
// the pass-1 optimum, so no new phase 1 is needed — gives it a fresh surplus
// column, and re-optimizes obj2 (indexed by structural variable). Requires a
// tableau built with init(p, true). It reports false when the secondary
// objective is unbounded; the caller then keeps the pass-1 solution.
func (t *tableau) lexReopt(primObj []float64, floor float64, obj2 []float64) bool {
	t.appendFloor(primObj, floor)
	t.setObjective(obj2)
	return t.run(t.cols)
}

// appendFloor is lexReopt's row surgery: the floor row and its surplus column
// join the tableau, which stays in canonical form.
func (t *tableau) appendFloor(primObj []float64, floor float64) {
	// Artificial columns are dead after phase 1 (all nonbasic at zero); zero
	// them out so the unrestricted run below can never pivot one back in.
	for i := 0; i < t.m; i++ {
		row := t.a[i]
		for j := t.artStart; j < t.cols; j++ {
			row[j] = 0
		}
	}

	surplus := t.cols
	t.cols++
	for i := 0; i < t.m; i++ {
		t.a[i] = t.a[i][:t.cols]
	}

	// Build the floor row in the reserved slot and reduce it against the
	// basis so the basic columns stay an identity submatrix. Every active
	// row has zeros in all basic columns except its own, so a single sweep
	// suffices regardless of order.
	t.a = t.a[:t.m+1]
	row := t.a[t.m][:t.cols]
	t.a[t.m] = row
	for j := range row {
		row[j] = 0
	}
	for j := 0; j < t.n && j < len(primObj); j++ {
		row[j] = primObj[j]
	}
	rhs := floor
	for i := 0; i < t.m; i++ {
		f := row[t.basis[i]]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j < t.cols; j++ {
			row[j] -= f * ri[j]
		}
		row[t.basis[i]] = 0
		rhs -= f * t.b[i]
	}
	row[surplus] = -1
	// Negate so the surplus enters the basis with coefficient +1. The
	// current point satisfies the floor (it attains the pass-1 optimum), so
	// the negated RHS is ≥ 0 up to roundoff; clamp the roundoff.
	for j := 0; j < t.cols; j++ {
		row[j] = -row[j]
	}
	rhs = -rhs
	if rhs < 0 {
		rhs = 0
	}
	t.b = t.b[:t.m+1]
	t.basis = t.basis[:t.m+1]
	t.b[t.m] = rhs
	t.basis[t.m] = surplus
	t.m++
}

// extract reads the n structural variable values out of the basis.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i := 0; i < t.m; i++ {
		if t.basis[i] < len(x) {
			v := t.b[i]
			if v < 0 && v > -eps {
				v = 0
			}
			x[t.basis[i]] = v
		}
	}
	return x
}
