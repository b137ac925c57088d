package agreement

import "fmt"

// TicketKind distinguishes the two ticket types of §2.3.
type TicketKind int

const (
	// Mandatory tickets carry the lower bound of an agreement: a guaranteed
	// reservation during overload.
	Mandatory TicketKind = iota
	// Optional tickets carry ub−lb: best-effort access beyond the guarantee.
	Optional
)

// String names the kind the way the paper labels tickets.
func (k TicketKind) String() string {
	if k == Mandatory {
		return "M-Ticket"
	}
	return "O-Ticket"
}

// Ticket is one transfer of rights from Issuer's currency to Holder,
// denominated in the issuing currency (Face is relative to the currency's
// face value) and carrying a real value derived from physical resources.
type Ticket struct {
	Kind   TicketKind
	Issuer Principal
	Holder Principal
	// Face is the ticket's face value under the issuing currency's face
	// (lb·face for mandatory, (ub−lb)·face for optional).
	Face float64
	// Real is the ticket's real value in resource units: mandatory tickets
	// are worth lb × the gross mandatory value of the issuing currency;
	// optional tickets additionally propagate the issuer's optional inflow
	// at the agreement's upper bound (the paper's O-Ticket4 computation).
	Real float64
}

// Currency is the valuation of one principal's currency: its final
// mandatory and optional values after all inflows and outflows, plus the
// tickets it has issued. This mirrors the worked example of Figure 3.
type Currency struct {
	Principal Principal
	Name      string
	Face      float64
	// Gross is V + all mandatory inflow (before outflow is subtracted).
	Gross float64
	// MandatoryValue is the currency's final mandatory value (MC).
	MandatoryValue float64
	// OptionalValue is the currency's final optional value (OC).
	OptionalValue float64
	Issued        []Ticket
}

// Currencies values every currency and ticket under the system's current
// capacities, using face value `face` for all currencies (the paper uses
// 100, making ticket faces read as percentages).
func (s *System) Currencies(face float64) ([]Currency, error) {
	faces := make([]float64, s.NumPrincipals())
	for i := range faces {
		faces[i] = face
	}
	return s.CurrenciesWithFaces(faces)
}

// CurrenciesWithFaces is Currencies with a per-currency face value — the
// §2.3 flexibility of inflating or deflating an individual currency.
// Ticket face values scale with their issuing currency's face; real values
// (and therefore enforcement) are invariant to the choice of faces.
func (s *System) CurrenciesWithFaces(faces []float64) ([]Currency, error) {
	if len(faces) != s.NumPrincipals() {
		return nil, fmt.Errorf("%w: %d faces for %d principals", ErrDimensionLength, len(faces), s.NumPrincipals())
	}
	f, err := s.Flows()
	if err != nil {
		return nil, err
	}
	acc, err := f.Access(s.capacities)
	if err != nil {
		return nil, err
	}
	// True optional inflow into each currency (excluding the reclaimable
	// mandatory outflow), needed to value optional tickets.
	optIn := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		for k := 0; k < f.n; k++ {
			optIn[i] += s.capacities[k] * f.OT[k][i]
		}
	}

	out := make([]Currency, f.n)
	for i := 0; i < f.n; i++ {
		c := Currency{
			Principal:      Principal(i),
			Name:           s.names[i],
			Face:           faces[i],
			Gross:          acc.Gross[i],
			MandatoryValue: acc.MC[i],
			OptionalValue:  acc.OC[i],
		}
		for _, e := range s.out[i] {
			if e.lb > 0 {
				c.Issued = append(c.Issued, Ticket{
					Kind: Mandatory, Issuer: Principal(i), Holder: e.to,
					Face: e.lb * faces[i],
					Real: e.lb * acc.Gross[i],
				})
			}
			if e.ub > e.lb {
				c.Issued = append(c.Issued, Ticket{
					Kind: Optional, Issuer: Principal(i), Holder: e.to,
					Face: (e.ub - e.lb) * faces[i],
					Real: (e.ub-e.lb)*acc.Gross[i] + e.ub*optIn[i],
				})
			}
		}
		out[i] = c
	}
	return out, nil
}

// String renders a currency in the style of the paper's Figure 3 discussion.
func (c Currency) String() string {
	return fmt.Sprintf("Currency %s (face %g): gross=%g final=(%g, %g), %d tickets issued",
		c.Name, c.Face, c.Gross, c.MandatoryValue, c.OptionalValue, len(c.Issued))
}
