package resource

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/interval"
)

// Rate is a resource availability or consumption rate in milli-units per
// tick. The paper uses natural numbers; fixed-point milli-units keep the
// algebra exact while allowing fractional rates from noisy cost
// estimators. Use Units/FromUnits to convert.
type Rate int64

// Unit is the fixed-point scale: one whole resource unit per tick.
const Unit Rate = 1000

// FromUnits converts whole units per tick to a Rate.
func FromUnits(u int64) Rate {
	return Rate(u) * Unit
}

// Units returns the whole-unit part of the rate (truncating).
func (r Rate) Units() int64 {
	return int64(r / Unit)
}

// Quantity is an amount of resource: Rate integrated over ticks
// (milli-unit-ticks). The product τ × ξ in the paper's footnote — rate
// times interval length — is a Quantity.
type Quantity int64

// QuantityFromUnits converts whole resource units to a Quantity.
func QuantityFromUnits(u int64) Quantity {
	return Quantity(u) * Quantity(Unit)
}

// Units returns the whole-unit part of the quantity (truncating).
func (q Quantity) Units() int64 {
	return int64(q / Quantity(Unit))
}

// Term is the paper's resource term [r]_ξ^τ: resource of located type ξ
// available at rate r throughout time interval τ. A term with an empty
// interval or a zero rate is null (§III: "resources are only defined
// during non-empty time intervals"). Rates cannot be negative.
type Term struct {
	Rate Rate
	Type LocatedType
	Span interval.Interval
}

// NewTerm builds a term, normalizing null terms to the zero Term.
func NewTerm(rate Rate, lt LocatedType, span interval.Interval) Term {
	if rate <= 0 || span.Empty() {
		return Term{}
	}
	return Term{Rate: rate, Type: lt, Span: span}
}

// Null reports whether the term denotes no resource.
func (t Term) Null() bool {
	return t.Rate <= 0 || t.Span.Empty()
}

// Quantity returns the total amount of resource the term provides over
// its whole interval (the paper's τ × ξ product).
func (t Term) Quantity() Quantity {
	if t.Null() {
		return 0
	}
	return Quantity(t.Rate) * Quantity(t.Span.Len())
}

// QuantityWithin returns the amount provided inside the given window.
func (t Term) QuantityWithin(window interval.Interval) Quantity {
	if t.Null() {
		return 0
	}
	ov := t.Span.Intersect(window)
	return Quantity(t.Rate) * Quantity(ov.Len())
}

// Dominates implements the paper's term inequality: t > other holds when a
// computation that requires other can use t instead, with some to spare.
// Formally: same located type, t.Rate ≥ other.Rate, and other's interval
// lies within t's (T2 ∈ T1 in the paper, broadened to ⊆ so that equal
// intervals qualify).
//
// Deviation from the paper: the paper states r1 > r2 strictly, but strict
// dominance would make [5] \ [5] undefined even though consuming exactly
// everything is meaningful; we use ≥ and document it. Use
// StrictlyDominates for the paper's literal relation.
func (t Term) Dominates(other Term) bool {
	if other.Null() {
		return true
	}
	if t.Null() {
		return false
	}
	return t.Type == other.Type &&
		t.Rate >= other.Rate &&
		t.Span.ContainsInterval(other.Span)
}

// Subtract computes t − other per §III: the remainder outside other's
// interval keeps rate t.Rate, and the overlap keeps rate t.Rate −
// other.Rate. It returns ok=false (and no terms) unless t dominates
// other.
func (t Term) Subtract(other Term) ([]Term, bool) {
	if other.Null() {
		if t.Null() {
			return nil, true
		}
		return []Term{t}, true
	}
	if !t.Dominates(other) {
		return nil, false
	}
	var out []Term
	for _, rest := range t.Span.Subtract(other.Span) {
		out = append(out, Term{Rate: t.Rate, Type: t.Type, Span: rest})
	}
	if remain := t.Rate - other.Rate; remain > 0 {
		out = append(out, Term{Rate: remain, Type: t.Type, Span: other.Span})
	}
	return out, true
}

// String renders the term in the paper's [rate]_type^interval notation,
// e.g. "[5]⟨cpu,l1⟩(0,3)". Rates print in whole units when exact.
func (t Term) String() string {
	if t.Null() {
		return "[0]"
	}
	return "[" + string(appendRate(nil, t.Rate)) + "]" + t.Type.String() + t.Span.String()
}

// appendRate appends the rate in whole units when exact, else as the
// shortest decimal that parses back to it.
func appendRate(b []byte, r Rate) []byte {
	if r%Unit == 0 {
		return strconv.AppendInt(b, int64(r/Unit), 10)
	}
	return strconv.AppendFloat(b, float64(r)/float64(Unit), 'f', -1, 64)
}

// appendTerm appends the compact rendering of the term [rate]_lt^span,
// "rate:kind@loc:(start,end)", to b. It is the one renderer behind
// Term.Compact and Set.Compact.
func appendTerm(b []byte, rate Rate, lt LocatedType, span interval.Interval) []byte {
	b = append(appendRate(b, rate), ':')
	b = append(lt.appendCompact(b), ':')
	return span.Append(b)
}

// Compact renders the term in the scenario-file syntax
// "rate:kind@loc:(start,end)", e.g. "5:cpu@l1:(0,3)".
func (t Term) Compact() string {
	if t.Null() {
		return "0"
	}
	var buf [64]byte
	return string(appendTerm(buf[:0], t.Rate, t.Type, t.Span))
}

// ParseTerm parses the compact scenario-file syntax produced by Compact.
func ParseTerm(s string) (Term, error) {
	rateText, rest, ok := strings.Cut(s, ":")
	ltText, spanText, ok2 := strings.Cut(rest, ":")
	if !ok || !ok2 {
		return Term{}, fmt.Errorf("resource: malformed term %q (want rate:kind@loc:(s,e))", s)
	}
	rate, err := parseRate(rateText)
	if err != nil {
		return Term{}, fmt.Errorf("resource: bad rate in %q: %w", s, err)
	}
	lt, err := ParseLocatedType(ltText)
	if err != nil {
		return Term{}, fmt.Errorf("resource: bad located type in %q: %w", s, err)
	}
	span, err := interval.Parse(spanText)
	if err != nil {
		return Term{}, fmt.Errorf("resource: bad interval in %q: %w", s, err)
	}
	if rate < 0 {
		return Term{}, fmt.Errorf("resource: negative rate in %q (resource terms cannot be negative)", s)
	}
	return NewTerm(rate, lt, span), nil
}

// maxRate bounds the magnitude of a parsed rate. Up to it, every
// milli-unit rate survives float64 arithmetic exactly, so the text Compact
// renders for a rate parses back to that rate.
const maxRate Rate = 1 << 50

func parseRate(s string) (Rate, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// Round, not truncate: "1.001" is 1000.9999… milli-units in binary.
	milli := math.Round(f * float64(Unit))
	if !(math.Abs(milli) <= float64(maxRate)) { // NaN fails too
		return 0, fmt.Errorf("rate out of range (at most %d units per tick)", maxRate/Unit)
	}
	return Rate(milli), nil
}
