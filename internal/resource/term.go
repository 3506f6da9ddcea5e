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
