package agreement

import "fmt"

// Flows holds the capacity-independent path sums of Figure 5, precomputed so
// that entitlements under any capacity vector are a cheap scaling (the paper:
// "MI and OI can be rewritten as V_j × MT_ji and V_j × OT_ji where MT and OT
// can be pre-computed").
//
// MT[k][i] is the unit-capacity gross mandatory flow from owner k into
// principal i's currency: the sum over simple paths k⇝i of the product of
// lower bounds along the path (MT[k][k] = 1 for the empty path).
//
// OT[k][i] is the unit-capacity optional inflow from k into i: the sum over
// simple paths of products with exactly one (ub−lb) optional hop followed by
// upper bounds (formula 2).
type Flows struct {
	n     int
	MT    [][]float64
	OT    [][]float64
	sumLB []float64 // Σ_j lb_ij per principal i
}

// maxPathExpansions bounds the simple-path enumeration. The paper argues the
// principal count "is expected to be small"; this guard turns a pathological
// dense graph into an error instead of an exponential hang.
const maxPathExpansions = 4_000_000

// Flows enumerates simple paths in the agreement graph and returns the
// precomputed MT/OT matrices. The result snapshots the agreement structure:
// later SetAgreement calls require recomputation (see RefoldFrom for the
// incremental form), while capacity changes do not (use Access with a fresh
// capacity vector).
func (s *System) Flows() (*Flows, error) {
	n := len(s.names)
	f := s.emptyFlows()
	w := &folder{f: f, adj: s.out, visited: make([]bool, n)}
	for k := 0; k < n; k++ {
		if err := w.foldRow(k); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// RefoldFrom recomputes the path sums after a structural change confined to
// the given dirty owners — principals whose *outgoing* agreement edges were
// added, removed, or rebounded — reusing prev's rows for every unaffected
// source. Row k of MT/OT changes only if some simple path from k crosses a
// changed edge, and every changed edge originates at a dirty owner, so the
// affected sources are exactly those that can reach a dirty owner in the
// post-change graph (a removed edge leaves its owner dirty, so no source
// that used it is missed). Refold cost is proportional to the dirty paths,
// not the whole graph; the re-run rows accumulate in the same deterministic
// order as Flows, so refolded and from-scratch results are bit-identical.
//
// A nil prev (or a principal-count mismatch) degrades to a full Flows; an
// empty dirty set returns prev unchanged, since capacity changes never touch
// the path sums (§2.2).
func (s *System) RefoldFrom(prev *Flows, dirty []Principal) (*Flows, error) {
	n := len(s.names)
	if prev == nil || prev.n != n {
		return s.Flows()
	}
	if len(dirty) == 0 {
		return prev, nil
	}
	// The owners with an edge into u are from[at[u]:at[u+1]]: the reverse
	// graph in two arrays, filled by counting.
	at := make([]int, n+1)
	for _, es := range s.out {
		for _, e := range es {
			at[e.to+1]++
		}
	}
	for u := 1; u <= n; u++ {
		at[u] += at[u-1]
	}
	from := make([]int, at[n])
	for o, es := range s.out {
		for _, e := range es {
			from[at[e.to]] = o
			at[e.to]++
		}
	}
	copy(at[1:], at[:n]) // each at[u] now holds u+1's start: shift them back
	at[0] = 0
	affected := make([]bool, n)
	queue := make([]int, 0, n)
	for _, d := range dirty {
		if !s.valid(d) {
			return nil, fmt.Errorf("%w: %d", ErrUnknown, int(d))
		}
		if !affected[d] {
			affected[d] = true
			queue = append(queue, int(d))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, src := range from[at[u]:at[u+1]] {
			if !affected[src] {
				affected[src] = true
				queue = append(queue, src)
			}
		}
	}

	f := s.emptyFlows()
	w := &folder{f: f, adj: s.out, visited: make([]bool, n)}
	for k := 0; k < n; k++ {
		if !affected[k] {
			copy(f.MT[k], prev.MT[k])
			copy(f.OT[k], prev.OT[k])
			continue
		}
		if err := w.foldRow(k); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// emptyFlows allocates a Flows shell with the system's current sumLB vector
// (cheap; recomputed wholesale on every fold and refold).
func (s *System) emptyFlows() *Flows {
	n := len(s.names)
	f := &Flows{
		n:     n,
		MT:    newMatrix(n),
		OT:    newMatrix(n),
		sumLB: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.sumLB[i] = s.mandatoryOut(Principal(i))
	}
	return f
}

// folder runs the Figure-5 simple-path enumeration for one fold (or refold),
// carrying the expansion budget across rows.
type folder struct {
	f          *Flows
	adj        [][]flowEdge
	visited    []bool
	expansions int
}

// foldRow computes MT[k]/OT[k] from scratch.
func (w *folder) foldRow(k int) error {
	w.f.MT[k][k] = 1 // a currency always includes its own physical backing
	w.visited[k] = true
	err := w.dfs(k, Principal(k), 1, 0)
	w.visited[k] = false
	return err
}

// dfs walks simple paths from source k carrying two running products:
// mand = Π lb over the path so far, and opt = Σ over choices of the
// optional hop r of (Π_{<r} lb)·(ub_r−lb_r)·(Π_{>r} ub).
func (w *folder) dfs(k int, at Principal, mand, opt float64) error {
	for _, e := range w.adj[at] {
		if w.visited[e.to] {
			continue
		}
		w.expansions++
		if w.expansions > maxPathExpansions {
			return fmt.Errorf("%w: more than %d path expansions", ErrTooManyPaths, maxPathExpansions)
		}
		nm := mand * e.lb
		no := opt*e.ub + mand*(e.ub-e.lb)
		w.f.MT[k][e.to] += nm
		w.f.OT[k][e.to] += no
		if nm == 0 && no == 0 {
			continue // nothing further can flow down this path
		}
		w.visited[e.to] = true
		if err := w.dfs(k, e.to, nm, no); err != nil {
			return err
		}
		w.visited[e.to] = false
	}
	return nil
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range m {
		m[i], flat = flat[:n], flat[n:]
	}
	return m
}

// NumPrincipals reports the number of principals the flows were computed for.
func (f *Flows) NumPrincipals() int { return f.n }

// Access is the per-window entitlement structure consumed by the schedulers:
// who may place how much load on whose servers.
type Access struct {
	// MI[k][i] is i's mandatory entitlement on owner k's servers
	// (guaranteed even under overload). Σ_k MI[k][i] = MC[i].
	MI [][]float64
	// OI[k][i] is i's additional best-effort entitlement on owner k's
	// servers. Σ_k OI[k][i] = OC[i].
	OI [][]float64
	// MC[i] and OC[i] are the aggregate mandatory and optional request
	// processing rates of principal i (formulae 3 and 4).
	MC, OC []float64
	// Gross[i] is the gross mandatory value of i's currency (V_i plus all
	// mandatory inflow, before subtracting outflow) — the "1900" for B in
	// the paper's Figure 3 walkthrough.
	Gross []float64
}

// Access scales the precomputed path sums by the capacity vector V (indexed
// by Principal) into concrete entitlements.
//
// Derivation against Figure 5:
//
//	Gross_i = Σ_k V_k·MT[k][i]
//	MI_ki   = V_k·MT[k][i]·(1 − Σ_j lb_ij)        (leak factor, formula 3)
//	OI_ki   = V_k·(OT[k][i] + Σ_j lb_ij·MT[k][i]) (formula 4: optional inflow
//	          plus the mandatory value i granted away but may reclaim while
//	          its grantees leave it unused)
func (f *Flows) Access(v []float64) (*Access, error) { return f.ScaledAccess(v, 1) }

// ScaledAccess is Access with every entitlement multiplied by scale once it
// is computed (and each aggregate once it is summed) — the per-window form a
// scheduler wants (scale = window length in seconds), built in one pass.
// Every value is exactly Access's value times scale, so scale 1 is Access.
func (f *Flows) ScaledAccess(v []float64, scale float64) (*Access, error) {
	n := f.n
	if len(v) != n {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionLength, len(v), n)
	}
	sums := make([]float64, 3*n)
	a := &Access{
		MI:    newMatrix(n),
		OI:    newMatrix(n),
		MC:    sums[:n:n],
		OC:    sums[n : 2*n : 2*n],
		Gross: sums[2*n:],
	}
	for i := 0; i < n; i++ {
		leak := 1 - f.sumLB[i]
		if leak < 0 {
			leak = 0
		}
		var gross, mc, oc float64
		for k := 0; k < n; k++ {
			g := v[k] * f.MT[k][i]
			gross += g
			mi := g * leak
			oi := v[k]*f.OT[k][i] + f.sumLB[i]*g
			a.MI[k][i] = mi * scale
			a.OI[k][i] = oi * scale
			mc += mi
			oc += oi
		}
		a.Gross[i], a.MC[i], a.OC[i] = gross*scale, mc*scale, oc*scale
	}
	return a, nil
}

// SystemAccess recomputes flows and entitlements in one step using the
// system's current capacities. Prefer caching Flows when only capacities
// change between windows.
func (s *System) SystemAccess() (*Access, error) {
	f, err := s.Flows()
	if err != nil {
		return nil, err
	}
	return f.Access(s.capacities)
}
