package agreement

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// figure3System builds the worked example of the paper's Figure 3:
// A (V=1000) grants B [0.4, 0.6]; B (V=1500) grants C [0.6, 1.0].
func figure3System(t testing.TB) (*System, Principal, Principal, Principal) {
	t.Helper()
	s := New()
	a := s.MustAddPrincipal("A", 1000)
	b := s.MustAddPrincipal("B", 1500)
	c := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(a, b, 0.4, 0.6)
	s.MustSetAgreement(b, c, 0.6, 1.0)
	return s, a, b, c
}

// TestFigure3GoldValues checks the exact currency values the paper derives:
// final (mandatory, optional) = A (600,400), B (760,1340), C (1140,960),
// with B's gross mandatory value 1900.
func TestFigure3GoldValues(t *testing.T) {
	s, a, b, c := figure3System(t)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatalf("SystemAccess: %v", err)
	}
	want := []struct {
		p      Principal
		mc, oc float64
	}{{a, 600, 400}, {b, 760, 1340}, {c, 1140, 960}}
	for _, w := range want {
		if math.Abs(acc.MC[w.p]-w.mc) > tol || math.Abs(acc.OC[w.p]-w.oc) > tol {
			t.Errorf("%s: (MC,OC) = (%g,%g), want (%g,%g)",
				s.Name(w.p), acc.MC[w.p], acc.OC[w.p], w.mc, w.oc)
		}
	}
	if math.Abs(acc.Gross[b]-1900) > tol {
		t.Errorf("Gross(B) = %g, want 1900", acc.Gross[b])
	}
}

// TestFigure3TicketValues checks the per-ticket real values from the paper:
// M-Ticket1=400, O-Ticket2=200, M-Ticket3=1140, O-Ticket4=960.
func TestFigure3TicketValues(t *testing.T) {
	s, a, b, _ := figure3System(t)
	curr, err := s.Currencies(100)
	if err != nil {
		t.Fatalf("Currencies: %v", err)
	}
	ca, cb := curr[a], curr[b]
	if len(ca.Issued) != 2 || len(cb.Issued) != 2 {
		t.Fatalf("ticket counts: A=%d B=%d, want 2 and 2", len(ca.Issued), len(cb.Issued))
	}
	checks := []struct {
		tk         Ticket
		face, real float64
		kind       TicketKind
	}{
		{ca.Issued[0], 40, 400, Mandatory},
		{ca.Issued[1], 20, 200, Optional},
		{cb.Issued[0], 60, 1140, Mandatory},
		{cb.Issued[1], 40, 960, Optional},
	}
	for i, c := range checks {
		if c.tk.Kind != c.kind || math.Abs(c.tk.Face-c.face) > tol || math.Abs(c.tk.Real-c.real) > tol {
			t.Errorf("ticket %d = %+v, want kind=%v face=%g real=%g", i, c.tk, c.kind, c.face, c.real)
		}
	}
	if !strings.Contains(ca.String(), "Currency A") {
		t.Errorf("String() = %q", ca.String())
	}
}

// TestFigure3PerPairEntitlements checks the per-owner decomposition:
// entitlements must sum to MC/OC and be located on the right owners.
func TestFigure3PerPairEntitlements(t *testing.T) {
	s, a, b, c := figure3System(t)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatalf("SystemAccess: %v", err)
	}
	// B's mandatory 760: 0.4·1000·(1−0.6)=160 on A, 1500·0.4=600 on B.
	if math.Abs(acc.MI[a][b]-160) > tol || math.Abs(acc.MI[b][b]-600) > tol {
		t.Errorf("MI[.][B] = A:%g B:%g, want 160, 600", acc.MI[a][b], acc.MI[b][b])
	}
	// B's optional 1340: from A 200 + reclaim 0.6·400 = 440; from B 0.6·1500 = 900.
	if math.Abs(acc.OI[a][b]-440) > tol || math.Abs(acc.OI[b][b]-900) > tol {
		t.Errorf("OI[.][B] = A:%g B:%g, want 440, 900", acc.OI[a][b], acc.OI[b][b])
	}
	// C's mandatory 1140: 240 backed by A, 900 backed by B.
	if math.Abs(acc.MI[a][c]-240) > tol || math.Abs(acc.MI[b][c]-900) > tol {
		t.Errorf("MI[.][C] = A:%g B:%g, want 240, 900", acc.MI[a][c], acc.MI[b][c])
	}
	for i := 0; i < s.NumPrincipals(); i++ {
		sumM, sumO := 0.0, 0.0
		for k := 0; k < s.NumPrincipals(); k++ {
			sumM += acc.MI[k][i]
			sumO += acc.OI[k][i]
		}
		if math.Abs(sumM-acc.MC[i]) > tol || math.Abs(sumO-acc.OC[i]) > tol {
			t.Errorf("principal %d: Σ MI=%g (MC=%g), Σ OI=%g (OC=%g)",
				i, sumM, acc.MC[i], sumO, acc.OC[i])
		}
	}
}

// TestCurrencyFaceInvariance verifies §2.3's inflation flexibility: ticket
// faces scale with their currency's face value while real values — and
// thus enforcement — stay identical.
func TestCurrencyFaceInvariance(t *testing.T) {
	s, a, b, _ := figure3System(t)
	base, err := s.Currencies(100)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := s.CurrenciesWithFaces([]float64{1000, 7, 100})
	if err != nil {
		t.Fatal(err)
	}
	// A's currency inflated 10×: faces scale, reals identical.
	if math.Abs(inflated[a].Issued[0].Face-10*base[a].Issued[0].Face) > tol {
		t.Fatalf("face did not scale: %v vs %v", inflated[a].Issued[0], base[a].Issued[0])
	}
	for i := range base {
		if math.Abs(inflated[i].MandatoryValue-base[i].MandatoryValue) > tol ||
			math.Abs(inflated[i].OptionalValue-base[i].OptionalValue) > tol {
			t.Fatalf("real currency values changed with face: %v vs %v", inflated[i], base[i])
		}
		for j := range base[i].Issued {
			if math.Abs(inflated[i].Issued[j].Real-base[i].Issued[j].Real) > tol {
				t.Fatalf("ticket real value changed with face")
			}
		}
	}
	// B deflated to face 7: its M-Ticket3 face is 60% of 7.
	if math.Abs(inflated[b].Issued[0].Face-4.2) > tol {
		t.Fatalf("B ticket face = %v, want 4.2", inflated[b].Issued[0].Face)
	}
	if _, err := s.CurrenciesWithFaces([]float64{1}); err == nil {
		t.Fatal("short face vector accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)

	if _, err := s.AddPrincipal("A", 5); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.AddPrincipal("neg", -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := s.AddPrincipal("nan", math.NaN()); err == nil {
		t.Error("NaN capacity accepted")
	}
	if err := s.SetAgreement(a, a, 0.1, 0.2); err == nil {
		t.Error("self agreement accepted")
	}
	if err := s.SetAgreement(a, b, 0.5, 0.4); err == nil {
		t.Error("lb > ub accepted")
	}
	if err := s.SetAgreement(a, b, -0.1, 0.4); err == nil {
		t.Error("negative lb accepted")
	}
	if err := s.SetAgreement(a, b, 0.5, 1.5); err == nil {
		t.Error("ub > 1 accepted")
	}
	if err := s.SetAgreement(a, Principal(99), 0.1, 0.2); err == nil {
		t.Error("unknown principal accepted")
	}
	if err := s.SetCapacity(Principal(99), 5); err == nil {
		t.Error("SetCapacity on unknown principal accepted")
	}
	if err := s.SetCapacity(a, math.Inf(1)); err == nil {
		t.Error("infinite capacity accepted")
	}
}

func TestMandatoryOverCommitRejected(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)
	c := s.MustAddPrincipal("C", 100)
	s.MustSetAgreement(a, b, 0.7, 0.9)
	if err := s.SetAgreement(a, c, 0.4, 0.5); err == nil {
		t.Fatal("granting 110% mandatorily should fail")
	}
	// Replacing the same user's agreement must not double count.
	if err := s.SetAgreement(a, b, 0.9, 1.0); err != nil {
		t.Fatalf("replacing an agreement counted against itself: %v", err)
	}
}

func TestAgreementRemoval(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)
	s.MustSetAgreement(a, b, 0.3, 0.5)
	if _, _, ok := s.AgreementBetween(a, b); !ok {
		t.Fatal("agreement not recorded")
	}
	s.MustSetAgreement(a, b, 0, 0)
	if _, _, ok := s.AgreementBetween(a, b); ok {
		t.Fatal("agreement not removed")
	}
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	if acc.MC[a] != 100 || acc.MC[b] != 100 || acc.OC[a] != 0 {
		t.Fatalf("after removal MC=%v OC=%v, want isolated principals", acc.MC, acc.OC)
	}
}

func TestLookupAndNames(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("alpha", 10)
	if p, ok := s.Lookup("alpha"); !ok || p != a {
		t.Fatalf("Lookup = %v,%v", p, ok)
	}
	if _, ok := s.Lookup("beta"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if s.Name(a) != "alpha" || !strings.Contains(s.Name(Principal(9)), "principal") {
		t.Fatalf("Name rendering wrong: %q %q", s.Name(a), s.Name(Principal(9)))
	}
	if s.Capacity(Principal(9)) != 0 {
		t.Fatal("Capacity of unknown principal should be 0")
	}
	if !strings.Contains(s.String(), "alpha") {
		t.Fatalf("String() = %q", s.String())
	}
}

// TestCapacityRescalingWithoutReflow verifies the dynamic-interpretation
// property: flows are capacity independent, so doubling V doubles every
// entitlement without re-enumerating paths.
func TestCapacityRescalingWithoutReflow(t *testing.T) {
	s, _, _, _ := figure3System(t)
	f, err := s.Flows()
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.Access(s.Capacities())
	if err != nil {
		t.Fatal(err)
	}
	doubled := s.Capacities()
	for i := range doubled {
		doubled[i] *= 2
	}
	twice, err := f.Access(doubled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.MC {
		if math.Abs(twice.MC[i]-2*base.MC[i]) > tol || math.Abs(twice.OC[i]-2*base.OC[i]) > tol {
			t.Fatalf("entitlements not linear in capacity: %v vs %v", base.MC, twice.MC)
		}
	}
	if _, err := f.Access([]float64{1}); err == nil {
		t.Fatal("wrong-length capacity vector accepted")
	}
}

// TestCycleSafety checks that cyclic agreement graphs terminate and never
// allocate more mandatory entitlement than physical capacity.
func TestCycleSafety(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 100)
	b := s.MustAddPrincipal("B", 100)
	s.MustSetAgreement(a, b, 0.5, 0.5)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	// Simple-path semantics: G_A = 100 + 50 = 150, MC_A = 75; symmetric.
	if math.Abs(acc.MC[a]-75) > tol || math.Abs(acc.MC[b]-75) > tol {
		t.Fatalf("MC = %v, want [75 75]", acc.MC)
	}
	total := acc.MC[a] + acc.MC[b]
	if total > 200+tol {
		t.Fatalf("cycle over-allocates: ΣMC = %g > ΣV = 200", total)
	}
}

// TestThreeCycle exercises a longer cycle with asymmetric bounds.
func TestThreeCycle(t *testing.T) {
	s := New()
	a := s.MustAddPrincipal("A", 300)
	b := s.MustAddPrincipal("B", 0)
	c := s.MustAddPrincipal("C", 0)
	s.MustSetAgreement(a, b, 0.5, 1.0)
	s.MustSetAgreement(b, c, 0.5, 1.0)
	s.MustSetAgreement(c, a, 0.5, 1.0)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	// G_A=300 (path c→a carries 0 capacity), G_B=150, G_C=75.
	// MC = G·(1−0.5).
	want := []float64{150, 75, 37.5}
	for i, w := range want {
		if math.Abs(acc.MC[i]-w) > tol {
			t.Fatalf("MC = %v, want %v", acc.MC, want)
		}
	}
	if sum := acc.MC[a] + acc.MC[b] + acc.MC[c]; sum > 300+tol {
		t.Fatalf("ΣMC = %g exceeds ΣV = 300", sum)
	}
}

// randomDAG builds a random acyclic agreement system (edges only from lower
// to higher principal index), returning it for property tests.
func randomDAG(rng *rand.Rand) *System {
	s := New()
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		s.MustAddPrincipal(string(rune('A'+i)), float64(rng.Intn(1000)))
	}
	for i := 0; i < n; i++ {
		// Budget of mandatory grant fractions out of i.
		budget := 1.0
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				continue
			}
			lb := rng.Float64() * budget * 0.9
			ub := lb + rng.Float64()*(1-lb)
			if err := s.SetAgreement(Principal(i), Principal(j), lb, ub); err != nil {
				panic(err)
			}
			budget -= lb
		}
	}
	return s
}

// TestQuickDAGConservation: on acyclic graphs the mandatory entitlements
// partition the physical capacity exactly — Σ_i MC_i = Σ_k V_k, and each
// owner's capacity is fully assigned: Σ_i MI[k][i] = V_k.
func TestQuickDAGConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomDAG(rng)
		acc, err := s.SystemAccess()
		if err != nil {
			return false
		}
		n := s.NumPrincipals()
		totalV, totalMC := 0.0, 0.0
		for i := 0; i < n; i++ {
			totalV += s.Capacity(Principal(i))
			totalMC += acc.MC[i]
			if acc.MC[i] < -tol || acc.OC[i] < -tol {
				return false
			}
		}
		if math.Abs(totalV-totalMC) > 1e-6*(1+totalV) {
			return false
		}
		for k := 0; k < n; k++ {
			rowSum := 0.0
			for i := 0; i < n; i++ {
				if acc.MI[k][i] < -tol || acc.OI[k][i] < -tol {
					return false
				}
				rowSum += acc.MI[k][i]
			}
			if math.Abs(rowSum-s.Capacity(Principal(k))) > 1e-6*(1+totalV) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCyclicSafety: arbitrary (possibly cyclic) graphs never allocate
// more total mandatory entitlement than total capacity, and all entitlements
// stay non-negative.
func TestQuickCyclicSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			s.MustAddPrincipal(string(rune('A'+i)), float64(rng.Intn(1000)))
		}
		for i := 0; i < n; i++ {
			budget := 1.0
			for j := 0; j < n; j++ {
				if j == i || rng.Float64() < 0.6 {
					continue
				}
				lb := rng.Float64() * budget * 0.9
				ub := lb + rng.Float64()*(1-lb)
				if s.SetAgreement(Principal(i), Principal(j), lb, ub) != nil {
					continue
				}
				budget -= lb
			}
		}
		acc, err := s.SystemAccess()
		if err != nil {
			return false
		}
		totalV, totalMC := 0.0, 0.0
		for i := 0; i < n; i++ {
			if acc.MC[i] < -tol || acc.OC[i] < -tol || acc.Gross[i] < -tol {
				return false
			}
			totalV += s.Capacity(Principal(i))
			totalMC += acc.MC[i]
		}
		return totalMC <= totalV+1e-6*(1+totalV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceDAGAccess computes MC/OC by the exact linear recurrence over a
// topological order — valid only for acyclic systems whose edges go from
// lower to higher principal index (randomDAG's invariant):
//
//	G_i   = V_i + Σ_j lb_ji·G_j
//	OIn_i = Σ_j ((ub_ji − lb_ji)·G_j + ub_ji·OIn_j)
//	MC_i  = G_i·(1 − Σ_k lb_ik)
//	OC_i  = OIn_i + Σ_k lb_ik·G_i
//
// It is an independent oracle for the DFS path enumeration in Flows.
func referenceDAGAccess(s *System) (mc, oc []float64) {
	n := s.NumPrincipals()
	g := make([]float64, n)
	oin := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i] = s.Capacity(Principal(i))
	}
	for j := 0; j < n; j++ { // topological: edges only j → i with j < i
		for i := j + 1; i < n; i++ {
			lb, ub, ok := s.AgreementBetween(Principal(j), Principal(i))
			if !ok {
				continue
			}
			g[i] += lb * g[j]
			oin[i] += (ub-lb)*g[j] + ub*oin[j]
		}
	}
	mc = make([]float64, n)
	oc = make([]float64, n)
	for i := 0; i < n; i++ {
		out := s.mandatoryOut(Principal(i))
		mc[i] = g[i] * (1 - out)
		oc[i] = oin[i] + out*g[i]
	}
	return mc, oc
}

// TestQuickDifferentialAgainstDAGRecurrence cross-checks the DFS simple-path
// enumeration against the independent closed-form DAG oracle.
func TestQuickDifferentialAgainstDAGRecurrence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomDAG(rng)
		acc, err := s.SystemAccess()
		if err != nil {
			return false
		}
		mc, oc := referenceDAGAccess(s)
		for i := range mc {
			scale := 1 + math.Abs(mc[i]) + math.Abs(oc[i])
			if math.Abs(acc.MC[i]-mc[i]) > 1e-6*scale {
				return false
			}
			if math.Abs(acc.OC[i]-oc[i]) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestIntroExampleEntitlements reproduces the SLA arithmetic of the paper's
// introduction: provider S with V=100 (two 50 req/s servers), A 20%, B 80%.
func TestIntroExampleEntitlements(t *testing.T) {
	s := New()
	sp := s.MustAddPrincipal("S", 100)
	a := s.MustAddPrincipal("A", 0)
	b := s.MustAddPrincipal("B", 0)
	s.MustSetAgreement(sp, a, 0.2, 0.2)
	s.MustSetAgreement(sp, b, 0.8, 0.8)
	acc, err := s.SystemAccess()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc.MC[a]-20) > tol || math.Abs(acc.MC[b]-80) > tol {
		t.Fatalf("MC = %v, want A=20 B=80", acc.MC)
	}
	if math.Abs(acc.MC[sp]-0) > tol {
		t.Fatalf("provider retains %g mandatorily, want 0", acc.MC[sp])
	}
}

func BenchmarkFlowsChain(b *testing.B) {
	s := New()
	const n = 10
	var ps []Principal
	for i := 0; i < n; i++ {
		ps = append(ps, s.MustAddPrincipal(string(rune('A'+i)), 100))
	}
	for i := 0; i+1 < n; i++ {
		s.MustSetAgreement(ps[i], ps[i+1], 0.4, 0.8)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Flows(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessScaling(b *testing.B) {
	s, _, _, _ := figure3System(b)
	f, err := s.Flows()
	if err != nil {
		b.Fatal(err)
	}
	v := s.Capacities()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Access(v); err != nil {
			b.Fatal(err)
		}
	}
}
