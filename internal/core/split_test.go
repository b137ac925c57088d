package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agreement"
)

// splitInstance is one generated window: a fleet of R redirectors, each on
// its own engine over the same agreements (e is the first), each with its
// own carried credit and arrivals, and the global view that is the sum of
// their estimates (the tree's aggregate without lag).
type splitInstance struct {
	e    *Engine
	reds []*Redirector
	// carried[r] is redirector r's credit before the window (matrix in
	// community mode, one row of totals in provider mode).
	carried [][][]float64
}

// genSplit draws an engine and a fleet. slack picks the regime: demand far
// below capacity, or far above it so every capacity row the agreements can
// reach is full.
func genSplit(rng *rand.Rand, community, slack bool) (*splitInstance, error) {
	n := 2 + rng.Intn(4)
	R := 1 + rng.Intn(8)
	s := agreement.New()
	ps := make([]agreement.Principal, n)
	for i := range ps {
		c := float64(rng.Intn(5)) * 80
		if !community && i > 0 {
			c = 0
		}
		ps[i] = s.MustAddPrincipal(fmt.Sprintf("P%d", i), c)
	}
	if !community {
		ps[0] = 0
		if err := s.SetCapacity(ps[0], 80+float64(rng.Intn(20))*40); err != nil {
			return nil, err
		}
	}
	for owner := range ps {
		if !community && owner > 0 {
			break
		}
		given := 0.0
		for user := range ps {
			if user == owner || rng.Intn(3) == 0 {
				continue
			}
			lb := math.Round(rng.Float64()*(1-given)*0.8*100) / 100
			ub := min(1, lb+math.Round(rng.Float64()*100)/100)
			if err := s.SetAgreement(ps[owner], ps[user], lb, ub); err != nil {
				return nil, err
			}
			given += lb
		}
	}
	cfg := Config{System: s, Window: 100 * time.Millisecond, NumRedirectors: R}
	if !community {
		cfg.Mode, cfg.ProviderPrincipal = Provider, ps[0]
		cfg.Prices = map[agreement.Principal]float64{}
		for _, p := range ps[1:] {
			cfg.Prices[p] = float64(rng.Intn(3))
		}
	}
	total := 0.0
	for _, c := range s.Capacities() {
		total += c * 0.1
	}
	scale := total / float64(n*R) * 0.3
	if !slack {
		scale = total * 4
	}
	in := &splitInstance{}
	global := make([]float64, n)
	for r := 0; r < R; r++ {
		cfg.System = s.Clone()
		e, err := NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		if in.e == nil {
			in.e = e
		}
		red := e.NewRedirector(r)
		carried := make([][]float64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) > 0 {
				red.arrivals[i] = math.Floor(rng.Float64() * scale * 2)
			}
			red.estimate[i] = rng.Float64() * scale
			carried[i] = make([]float64, n)
			for k := range carried[i] {
				carried[i][k] = rng.Float64() * 3
				red.credits[i][k] = carried[i][k]
			}
			red.creditsTotal[i] = carried[i][0]
			// StartWindow folds arrivals into the estimate exactly so.
			global[i] += ewmaAlpha*red.arrivals[i] + (1-ewmaAlpha)*red.estimate[i]
		}
		in.reds = append(in.reds, red)
		in.carried = append(in.carried, carried)
	}
	for _, red := range in.reds {
		red.SetGlobal(global, 0)
	}
	return in, nil
}

// parentSplit is the split before the slack top-up, kept as the oracle for
// windows whose plan leaves no slack: each cell is the plan scaled by the
// local share of the global estimate, plus the carry.
func parentSplit(r *Redirector, carried [][]float64) (matrix [][]float64, total []float64) {
	n := r.e.n
	g := r.globalDemand()
	if r.e.cfg.Mode == Community {
		matrix = make([][]float64, n)
		for i := range matrix {
			frac := 0.0
			if g[i] > 0 {
				frac = r.estimate[i] / g[i]
			}
			matrix[i] = make([]float64, n)
			for k := range matrix[i] {
				matrix[i][k] = r.plan.X[i][k]*frac + carry(carried[i][k])
			}
		}
		return matrix, nil
	}
	total = make([]float64, n)
	for i := range total {
		total[i] = carry(carried[i][0])
	}
	for ci, p := range r.e.cur.customers {
		frac := 0.0
		if g[p] > 0 {
			frac = r.estimate[p] / g[p]
		}
		total[p] += r.provPlan.X[ci] * frac
	}
	return nil, total
}

// TestSplitProperties checks the credit split over generated instances:
// provider and community engines, 1–8 redirectors, random entitlements,
// demand, estimates and carried credit, below and above capacity.
//
//   - No redirector's top-up of a cell exceeds (UB − X)/R, so the fleet's
//     fresh grants for a principal sum to at most UB_i, and a capacity row's
//     to at most its capacity.
//   - A cell ends at or above its floor share MC/R (clipped to what UB
//     leaves) unless its row's slack share is spent.
//   - A row with no slack splits bit for bit as the oracle.
func TestSplitProperties(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(27))
	var toppedUp, saturated int
	for inst := 0; inst < 2000; inst++ {
		community, slack := inst%2 == 0, inst%4 < 2
		in, err := genSplit(rng, community, slack)
		if err != nil {
			continue
		}
		e := in.e
		n, R := e.n, len(in.reds)
		share := 1 / float64(R)
		for _, r := range in.reds {
			if err := r.StartWindow(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		st := e.snapshot()
		acc := st.access
		// grant[r][i][k]: the window's fresh grant, carry and lease removed
		// (no lease is set here).
		grant := make([][][]float64, R)
		for ri, r := range in.reds {
			pm, pt := parentSplit(r, in.carried[ri])
			grant[ri] = make([][]float64, n)
			for i := 0; i < n; i++ {
				grant[ri][i] = make([]float64, n)
				if community {
					for k := 0; k < n; k++ {
						grant[ri][i][k] = r.credits[i][k] - carry(in.carried[ri][i][k])
					}
				} else {
					grant[ri][i][0] = r.creditsTotal[i] - carry(in.carried[ri][i][0])
				}
			}
			if community {
				for k := 0; k < n; k++ {
					used := 0.0
					for i := 0; i < n; i++ {
						used += r.plan.X[i][k]
					}
					full := rowSlack(st.rowCap[k], used) == 0
					for i := 0; i < n; i++ {
						if full && r.credits[i][k] != pm[i][k] {
							t.Fatalf("instance %d: full row %d cell %d: %v, oracle %v", inst, k, i, r.credits[i][k], pm[i][k])
						}
					}
					if full {
						saturated++
						continue
					}
					toppedUp++
					// Floor or spent budget, per redirector and row.
					budget, spent, floorsHeld := (st.rowCap[k]-used)*share, 0.0, true
					for i := 0; i < n; i++ {
						base := pm[i][k] - carry(in.carried[ri][i][k])
						up := grant[ri][i][k] - base
						if up < -tol || up > (acc.MI[k][i]+acc.OI[k][i]-r.plan.X[i][k])*share+tol {
							t.Fatalf("instance %d: cell (%d,%d) top-up %v outside [0, (UB−X)/R]", inst, i, k, up)
						}
						spent += up
						want := min(max(acc.MI[k][i]*share, base), base+max(0, acc.MI[k][i]+acc.OI[k][i]-r.plan.X[i][k])*share)
						if grant[ri][i][k] < want-tol {
							floorsHeld = false
						}
					}
					if spent > budget+tol {
						t.Fatalf("instance %d: row %d top-ups %v exceed slack share %v", inst, k, spent, budget)
					}
					if !floorsHeld && spent < budget-tol {
						t.Fatalf("instance %d: row %d left %v of its slack share with a cell under its floor share", inst, k, budget-spent)
					}
				}
				continue
			}
			used := 0.0
			for _, x := range r.provPlan.X {
				used += x
			}
			full := rowSlack(st.provTotal, used) == 0
			for i := 0; i < n; i++ {
				if full && r.creditsTotal[i] != pt[i] {
					t.Fatalf("instance %d: full plan, principal %d: %v, oracle %v", inst, i, r.creditsTotal[i], pt[i])
				}
			}
			if full {
				saturated++
				continue
			}
			toppedUp++
			budget, spent, floorsHeld := (st.provTotal-used)*share, 0.0, true
			for ci, p := range st.customers {
				base := pt[p] - carry(in.carried[ri][p][0])
				up := grant[ri][p][0] - base
				room := max(0, acc.MC[p]+acc.OC[p]-r.provPlan.X[ci]) * share
				if up < -tol || up > room+tol {
					t.Fatalf("instance %d: customer %d top-up %v outside [0, %v]", inst, p, up, room)
				}
				spent += up
				if grant[ri][p][0] < min(max(acc.MC[p]*share, base), base+room)-tol {
					floorsHeld = false
				}
			}
			if spent > budget+tol {
				t.Fatalf("instance %d: top-ups %v exceed slack share %v", inst, spent, budget)
			}
			if !floorsHeld && spent < budget-tol {
				t.Fatalf("instance %d: %v of the slack share left with a customer under its floor share", inst, budget-spent)
			}
		}
		// Fleet-wide: UB per principal (per cell in community mode) and
		// capacity per row.
		for i := 0; i < n; i++ {
			fleet := 0.0
			for k := 0; k < n; k++ {
				cell := 0.0
				for ri := range grant {
					cell += grant[ri][i][k]
				}
				if community && cell > acc.MI[k][i]+acc.OI[k][i]+tol*max(1, cell) {
					t.Fatalf("instance %d: fleet grant %v on cell (%d,%d) above its bound %v", inst, cell, i, k, acc.MI[k][i]+acc.OI[k][i])
				}
				fleet += cell
			}
			if ub := acc.MC[i] + acc.OC[i]; fleet > ub+tol*max(1, fleet) && (community || i != int(e.cfg.ProviderPrincipal)) {
				t.Fatalf("instance %d: fleet grant %v for principal %d above UB %v", inst, fleet, i, ub)
			}
		}
		if community {
			for k := 0; k < n; k++ {
				row := 0.0
				for ri := range grant {
					for i := 0; i < n; i++ {
						row += grant[ri][i][k]
					}
				}
				if row > st.rowCap[k]+tol*max(1, row) {
					t.Fatalf("instance %d: fleet row %d grants %v above capacity %v", inst, k, row, st.rowCap[k])
				}
			}
		} else {
			row := 0.0
			for ri := range grant {
				for _, p := range st.customers {
					row += grant[ri][p][0]
				}
			}
			if row > st.provTotal+tol*max(1, row) {
				t.Fatalf("instance %d: fleet grants %v above capacity %v", inst, row, st.provTotal)
			}
		}
	}
	if toppedUp < 500 || saturated < 500 {
		t.Fatalf("generator too narrow: %d rows with slack, %d full", toppedUp, saturated)
	}
}

// TestSplitLiftsSteadyLowLoad is the low-load instance the split exists for:
// two provider redirectors at a tenth of capacity, each seeing a few
// requests per window. The plan caps each grant at the estimate; the top-up
// lifts it to the floor share, so a burst of 1.5× the estimate is served.
func TestSplitLiftsSteadyLowLoad(t *testing.T) {
	e, a, b := providerEngine(t, 2)
	r := e.NewRedirector(0)
	// 64 req/window capacity; A and B each offer 4 per window per node.
	for w := 0; w < 10; w++ {
		r.SetGlobal([]float64{0, 8, 8}, 0)
		r.AddWindowSample([]float64{0, 4, 4}, nil, 0, 0)
		if err := r.StartWindow(0); err != nil {
			t.Fatal(err)
		}
	}
	// MC: A 51.2, B 12.8 per window; each node's floor share is half.
	if got := r.CreditsRemaining(a); got < 25.6-1e-9 {
		t.Fatalf("A's credit %v below its floor share 25.6", got)
	}
	if got := r.CreditsRemaining(b); got < 6.4-1e-9 {
		t.Fatalf("B's credit %v below its floor share 6.4", got)
	}
	admitted := 0
	for i := 0; i < 6; i++ {
		if r.Admit(b).Admitted {
			admitted++
		}
	}
	if admitted != 6 {
		t.Fatalf("admitted %d of a burst of 6 at a tenth of capacity", admitted)
	}
}
