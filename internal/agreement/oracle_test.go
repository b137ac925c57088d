package agreement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapSystem is the edge store System kept before its edges became sorted
// lists: one map per owner, sorted again on every read whose order matters.
// It survives here only as the oracle the list store is held to — the same
// agreements and folds equal to the last bit.
type mapSystem struct {
	names      []string
	capacities []float64
	edges      []map[Principal][2]float64
}

func (m *mapSystem) valid(p Principal) bool { return p >= 0 && int(p) < len(m.names) }

func (m *mapSystem) addPrincipal(name string, capacity float64) {
	m.names = append(m.names, name)
	m.capacities = append(m.capacities, capacity)
	m.edges = append(m.edges, nil)
}

func (m *mapSystem) setAgreement(owner, user Principal, lb, ub float64) error {
	if !m.valid(owner) || !m.valid(user) {
		return fmt.Errorf("%w: %d→%d", ErrUnknown, int(owner), int(user))
	}
	if owner == user {
		return fmt.Errorf("%w: %s", ErrSelfAgreement, m.names[owner])
	}
	if math.IsNaN(lb) || math.IsNaN(ub) || lb < 0 || ub < lb || ub > 1 {
		return fmt.Errorf("%w: [%v, %v]", ErrBadBounds, lb, ub)
	}
	if lb == 0 && ub == 0 {
		delete(m.edges[owner], user)
		return nil
	}
	total := lb
	for u, b := range m.edges[owner] {
		if u != user {
			total += b[0]
		}
	}
	if total > 1+1e-12 {
		return fmt.Errorf("%w: %s would grant %.3f mandatorily", ErrOverCommitted, m.names[owner], total)
	}
	if m.edges[owner] == nil {
		m.edges[owner] = make(map[Principal][2]float64)
	}
	m.edges[owner][user] = [2]float64{lb, ub}
	return nil
}

func (m *mapSystem) applySet(set *Set) ([]Principal, error) {
	n := len(m.names)
	if set == nil || len(set.Principals) != n {
		got := 0
		if set != nil {
			got = len(set.Principals)
		}
		return nil, fmt.Errorf("%w: set has %d principals, system has %d", ErrDimensionLength, got, n)
	}
	for i, p := range set.Principals {
		if p.Name != m.names[i] {
			return nil, fmt.Errorf("%w: set principal %d is %q, system has %q", ErrUnknown, i, p.Name, m.names[i])
		}
		if math.IsNaN(p.Capacity) || math.IsInf(p.Capacity, 0) || p.Capacity < 0 {
			return nil, fmt.Errorf("%w: %q has capacity %v", ErrBadCapacity, p.Name, p.Capacity)
		}
	}
	desired := make([]map[Principal][2]float64, n)
	for _, a := range set.Agreements {
		if !m.valid(a.Owner) || !m.valid(a.User) {
			return nil, fmt.Errorf("%w: %d→%d", ErrUnknown, int(a.Owner), int(a.User))
		}
		if a.Owner == a.User {
			return nil, fmt.Errorf("%w: %s", ErrSelfAgreement, m.names[a.Owner])
		}
		if math.IsNaN(a.LB) || math.IsNaN(a.UB) || a.LB < 0 || a.UB < a.LB || a.UB > 1 {
			return nil, fmt.Errorf("%w: [%v, %v]", ErrBadBounds, a.LB, a.UB)
		}
		if a.LB == 0 && a.UB == 0 {
			continue
		}
		if desired[a.Owner] == nil {
			desired[a.Owner] = make(map[Principal][2]float64)
		}
		desired[a.Owner][a.User] = [2]float64{a.LB, a.UB}
	}
	for o := 0; o < n; o++ {
		total := 0.0
		for _, b := range desired[o] {
			total += b[0]
		}
		if total > 1+1e-12 {
			return nil, fmt.Errorf("%w: %s would grant %.3f mandatorily", ErrOverCommitted, m.names[o], total)
		}
	}
	for i, p := range set.Principals {
		m.capacities[i] = p.Capacity
	}
	var dirty []Principal
	for o := 0; o < n; o++ {
		if !mapsEqual(m.edges[o], desired[o]) {
			m.edges[o] = desired[o]
			dirty = append(dirty, Principal(o))
		}
	}
	return dirty, nil
}

func mapsEqual(a, b map[Principal][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for u, ba := range a {
		if bb, ok := b[u]; !ok || bb != ba {
			return false
		}
	}
	return true
}

func (m *mapSystem) clone() *mapSystem {
	c := &mapSystem{
		names:      append([]string(nil), m.names...),
		capacities: append([]float64(nil), m.capacities...),
		edges:      make([]map[Principal][2]float64, len(m.edges)),
	}
	for o, e := range m.edges {
		if e == nil {
			continue
		}
		c.edges[o] = make(map[Principal][2]float64, len(e))
		for u, b := range e {
			c.edges[o][u] = b
		}
	}
	return c
}

func (m *mapSystem) sortedUsers(o int) []Principal {
	users := make([]Principal, 0, len(m.edges[o]))
	for u := range m.edges[o] {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return users
}

func (m *mapSystem) agreements() []Agreement {
	var out []Agreement
	for o := range m.edges {
		for _, u := range m.sortedUsers(o) {
			b := m.edges[o][u]
			out = append(out, Agreement{Owner: Principal(o), User: u, LB: b[0], UB: b[1]})
		}
	}
	return out
}

func (m *mapSystem) agreementBetween(owner, user Principal) (lb, ub float64, ok bool) {
	if !m.valid(owner) {
		return 0, 0, false
	}
	b, ok := m.edges[owner][user]
	return b[0], b[1], ok
}

// adjacency is the parent's flowAdjacency: fresh lists sorted by user.
func (m *mapSystem) adjacency() [][]flowEdge {
	adj := make([][]flowEdge, len(m.names))
	for o := range adj {
		for _, u := range m.sortedUsers(o) {
			b := m.edges[o][u]
			adj[o] = append(adj[o], flowEdge{to: u, lb: b[0], ub: b[1]})
		}
	}
	return adj
}

func (m *mapSystem) emptyFlows() *Flows {
	n := len(m.names)
	f := &Flows{n: n, MT: newMatrix(n), OT: newMatrix(n), sumLB: make([]float64, n)}
	for i := 0; i < n; i++ {
		for _, u := range m.sortedUsers(i) {
			f.sumLB[i] += m.edges[i][u][0]
		}
	}
	return f
}

func (m *mapSystem) flows() (*Flows, error) {
	f := m.emptyFlows()
	w := &folder{f: f, adj: m.adjacency(), visited: make([]bool, f.n)}
	for k := 0; k < f.n; k++ {
		if err := w.foldRow(k); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (m *mapSystem) refoldFrom(prev *Flows, dirty []Principal) (*Flows, error) {
	n := len(m.names)
	if prev == nil || prev.n != n {
		return m.flows()
	}
	if len(dirty) == 0 {
		return prev, nil
	}
	adj := m.adjacency()
	rev := make([][]int, n)
	for o := range adj {
		for _, e := range adj[o] {
			rev[e.to] = append(rev[e.to], o)
		}
	}
	affected := make([]bool, n)
	var queue []int
	for _, d := range dirty {
		if !affected[d] {
			affected[d] = true
			queue = append(queue, int(d))
		}
	}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, src := range rev[at] {
			if !affected[src] {
				affected[src] = true
				queue = append(queue, src)
			}
		}
	}
	f := m.emptyFlows()
	w := &folder{f: f, adj: adj, visited: make([]bool, n)}
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

// oracleAccess is Flows.Access as it was before ScaledAccess: entitlements
// accumulated in place, one row allocation per owner.
func oracleAccess(f *Flows, v []float64) *Access {
	a := &Access{MI: newMatrix(f.n), OI: newMatrix(f.n), MC: make([]float64, f.n), OC: make([]float64, f.n), Gross: make([]float64, f.n)}
	for i := 0; i < f.n; i++ {
		leak := 1 - f.sumLB[i]
		if leak < 0 {
			leak = 0
		}
		for k := 0; k < f.n; k++ {
			gross := v[k] * f.MT[k][i]
			a.Gross[i] += gross
			mi := gross * leak
			oi := v[k]*f.OT[k][i] + f.sumLB[i]*gross
			a.MI[k][i] = mi
			a.OI[k][i] = oi
			a.MC[i] += mi
			a.OC[i] += oi
		}
	}
	return a
}

// scaleAccess is the per-window rescale the engine ran over a finished
// Access before ScaledAccess folded the scale into the one pass.
func scaleAccess(a *Access, f float64) *Access {
	n := len(a.MC)
	out := &Access{MI: make([][]float64, n), OI: make([][]float64, n), MC: make([]float64, n), OC: make([]float64, n), Gross: make([]float64, n)}
	for i := 0; i < n; i++ {
		out.MI[i] = make([]float64, n)
		out.OI[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out.MI[i][j] = a.MI[i][j] * f
			out.OI[i][j] = a.OI[i][j] * f
		}
		out.MC[i] = a.MC[i] * f
		out.OC[i] = a.OC[i] * f
		out.Gross[i] = a.Gross[i] * f
	}
	return out
}

// bitsEqual compares float64 slices to the last bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func matrixBitsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func flowBitsEqual(a, b *Flows) bool {
	return a.n == b.n && matrixBitsEqual(a.MT, b.MT) && matrixBitsEqual(a.OT, b.OT) && bitsEqual(a.sumLB, b.sumLB)
}

func accessBitsEqual(a, b *Access) bool {
	return matrixBitsEqual(a.MI, b.MI) && matrixBitsEqual(a.OI, b.OI) &&
		bitsEqual(a.MC, b.MC) && bitsEqual(a.OC, b.OC) && bitsEqual(a.Gross, b.Gross)
}

// oraclePair is a System and its oracle, mutated in lockstep, with the
// flows each last folded (the base of the next incremental refold).
type oraclePair struct {
	sys      *System
	ora      *mapSystem
	sysFlows *Flows
	oraFlows *Flows
}

// randomBounds draws an agreement's bounds on a coarse grid, so that sums of
// lower bounds land clearly under or over 1 whatever order they are added
// in; about one draw in six is a [0, 0] removal and a few are invalid.
func randomBounds(rng *rand.Rand) (lb, ub float64) {
	switch rng.Intn(12) {
	case 0, 1:
		return 0, 0
	case 2:
		return 0.5, 0.25 // ub < lb
	}
	lb = float64(rng.Intn(8)) * 0.0625
	ub = lb + float64(rng.Intn(9))*0.0625
	if ub > 1 {
		ub = 1
	}
	return lb, ub
}

// randomSet draws a set over m's universe: unsorted, with repeated pairs,
// [0, 0] entries, and now and then an invalid entry.
func randomSet(rng *rand.Rand, m *mapSystem) *Set {
	n := len(m.names)
	set := &Set{Principals: make([]SetPrincipal, n)}
	for i := range set.Principals {
		set.Principals[i] = SetPrincipal{Name: m.names[i], Capacity: float64(rng.Intn(5)) * 100}
	}
	for k := rng.Intn(3 * n); k > 0; k-- {
		o := Principal(rng.Intn(n))
		u := Principal(rng.Intn(n))
		if o == u && rng.Intn(10) != 0 {
			continue // keep self edges rare: they reject the whole set
		}
		lb, ub := randomBounds(rng)
		set.Agreements = append(set.Agreements, Agreement{Owner: o, User: u, LB: lb, UB: ub})
		if rng.Intn(4) == 0 { // repeat the pair later in the set
			lb, ub = randomBounds(rng)
			set.Agreements = append(set.Agreements, Agreement{Owner: o, User: u, LB: lb, UB: ub})
		}
	}
	rng.Shuffle(len(set.Agreements), func(i, j int) {
		set.Agreements[i], set.Agreements[j] = set.Agreements[j], set.Agreements[i]
	})
	return set
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// check holds p.sys to p.ora on every read, and refolds both from their
// previous flows over dirty.
func (p *oraclePair) check(t *testing.T, step string, dirty []Principal, rng *rand.Rand) {
	t.Helper()
	if got, want := p.sys.Agreements(), p.ora.agreements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Agreements\n got  %v\n want %v", step, got, want)
	}
	n := len(p.ora.names)
	for o := -1; o <= n; o++ {
		for u := -1; u <= n; u++ {
			glb, gub, gok := p.sys.AgreementBetween(Principal(o), Principal(u))
			wlb, wub, wok := p.ora.agreementBetween(Principal(o), Principal(u))
			if glb != wlb || gub != wub || gok != wok {
				t.Fatalf("%s: AgreementBetween(%d, %d) = (%v, %v, %v), want (%v, %v, %v)", step, o, u, glb, gub, gok, wlb, wub, wok)
			}
		}
	}
	full, err := p.sys.Flows()
	if err != nil {
		t.Fatalf("%s: Flows: %v", step, err)
	}
	oraFull, err := p.ora.flows()
	if err != nil {
		t.Fatalf("%s: oracle flows: %v", step, err)
	}
	if !flowBitsEqual(full, oraFull) {
		t.Fatalf("%s: Flows differs from the oracle's fold", step)
	}
	inc, err := p.sys.RefoldFrom(p.sysFlows, dirty)
	if err != nil {
		t.Fatalf("%s: RefoldFrom: %v", step, err)
	}
	oraInc, err := p.ora.refoldFrom(p.oraFlows, dirty)
	if err != nil {
		t.Fatalf("%s: oracle refold: %v", step, err)
	}
	if !flowBitsEqual(inc, oraInc) || !flowBitsEqual(inc, full) {
		t.Fatalf("%s: RefoldFrom(%v) differs from the oracle's refold or the full fold", step, dirty)
	}
	p.sysFlows, p.oraFlows = inc, oraInc
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(2000)) + rng.Float64()
	}
	want := oracleAccess(oraFull, v)
	got, err := full.Access(v)
	if err != nil || !accessBitsEqual(got, want) {
		t.Fatalf("%s: Access differs from the oracle (err %v)", step, err)
	}
	for _, scale := range []float64{1, 0.05, 0.1, rng.Float64()} {
		got, err := full.ScaledAccess(v, scale)
		if err != nil || !accessBitsEqual(got, scaleAccess(want, scale)) {
			t.Fatalf("%s: ScaledAccess(v, %v) differs from scaleAccess(Access(v)) (err %v)", step, scale, err)
		}
	}
}

// TestEdgeListsMatchMapOracle is the differential behind the edge-list
// store: generated systems go through random SetAgreement, ApplySet and
// Clone sequences — repeated pairs, [0, 0] entries, unsorted sets, invalid
// input, mutations of clones and of the systems they were cloned from — in
// lockstep with mapSystem. Errors, dirty sets, Agreements and
// AgreementBetween must be equal, and Flows, RefoldFrom, Access and
// ScaledAccess equal to the last bit.
func TestEdgeListsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var setsAccepted, repeatsAccepted, sets, clones int
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(6)
		sys, ora := New(), &mapSystem{}
		for i := 0; i < n; i++ {
			c := float64(rng.Intn(4)) * 500
			sys.MustAddPrincipal(fmt.Sprintf("P%d", i), c)
			ora.addPrincipal(fmt.Sprintf("P%d", i), c)
		}
		first := &oraclePair{sys: sys, ora: ora}
		pairs := []*oraclePair{first}
		first.check(t, fmt.Sprintf("trial %d start", trial), nil, rng)
		for step := 0; step < 25; step++ {
			p := pairs[rng.Intn(len(pairs))]
			name := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(10); {
			case op < 5:
				o, u := Principal(rng.Intn(n+1)), Principal(rng.Intn(n))
				lb, ub := randomBounds(rng)
				gerr := p.sys.SetAgreement(o, u, lb, ub)
				werr := p.ora.setAgreement(o, u, lb, ub)
				if !sameErr(gerr, werr) {
					t.Fatalf("%s: SetAgreement(%d, %d, %v, %v) = %v, oracle %v", name, o, u, lb, ub, gerr, werr)
				}
				var dirty []Principal
				if gerr == nil {
					dirty = []Principal{o}
				}
				p.check(t, name+" SetAgreement", dirty, rng)
			case op < 8:
				set := randomSet(rng, p.ora)
				gd, gerr := p.sys.ApplySet(set)
				wd, werr := p.ora.applySet(set)
				if !sameErr(gerr, werr) || !reflect.DeepEqual(gd, wd) {
					t.Fatalf("%s: ApplySet = (%v, %v), oracle (%v, %v)\nset %+v", name, gd, gerr, wd, werr, set.Agreements)
				}
				if sets++; gerr == nil {
					setsAccepted++
					if hasRepeatedPair(set) {
						repeatsAccepted++
					}
				}
				p.check(t, name+" ApplySet", gd, rng)
			default:
				c := &oraclePair{sys: p.sys.Clone(), ora: p.ora.clone(), sysFlows: p.sysFlows, oraFlows: p.oraFlows}
				pairs = append(pairs, c)
				clones++
				c.check(t, name+" Clone", nil, rng)
			}
		}
		for i, p := range pairs {
			p.check(t, fmt.Sprintf("trial %d pair %d at end", trial, i), nil, rng)
		}
	}
	// The generator must reach the cases the differential exists for.
	t.Logf("%d of %d sets accepted, %d with repeated pairs; %d clones", setsAccepted, sets, repeatsAccepted, clones)
	if setsAccepted < sets/4 || repeatsAccepted < 50 || clones < 200 {
		t.Fatalf("weak generator: %d of %d sets accepted, %d with repeated pairs; %d clones", setsAccepted, sets, repeatsAccepted, clones)
	}
}

func hasRepeatedPair(set *Set) bool {
	seen := map[[2]Principal]bool{}
	for _, a := range set.Agreements {
		k := [2]Principal{a.Owner, a.User}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// TestApplySetRepeatedPairs pins how a set that names a pair more than once
// reads: the last entry with a non-zero bound wins, and a [0, 0] entry only
// means "absent" — it does not cancel an earlier entry for the same pair.
func TestApplySetRepeatedPairs(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)
	c := s.MustAddPrincipal("C", 100)
	set := &Set{
		Principals: []SetPrincipal{{Name: "A", Capacity: 100}, {Name: "B", Capacity: 100}, {Name: "C", Capacity: 100}},
		Agreements: []Agreement{
			{Owner: a, User: c, LB: 0.1, UB: 0.2},
			{Owner: a, User: b, LB: 0.3, UB: 0.4},
			{Owner: a, User: c, LB: 0, UB: 0},
			{Owner: a, User: b, LB: 0.5, UB: 0.6},
			{Owner: b, User: a, LB: 0, UB: 0},
		},
	}
	dirty, err := s.ApplySet(set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirty, []Principal{a}) {
		t.Fatalf("dirty %v, want [A]", dirty)
	}
	want := []Agreement{{Owner: a, User: b, LB: 0.5, UB: 0.6}, {Owner: a, User: c, LB: 0.1, UB: 0.2}}
	if got := s.Agreements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Agreements %v, want %v", got, want)
	}
}
