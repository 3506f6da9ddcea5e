package resource

import (
	"fmt"
	"slices"
	"strings"
)

// Amount is a required quantity of a located resource type — the paper's
// [q]_ξ notation for the value of Φ: "q is the quantity of resource
// required, ξ is the located type". Unlike a Term, an Amount has no time
// interval of its own; the interval comes from the requirement that wraps
// it (§IV).
type Amount struct {
	Qty  Quantity
	Type LocatedType
}

// AmountOf builds an Amount from whole units.
func AmountOf(units int64, lt LocatedType) Amount {
	return Amount{Qty: QuantityFromUnits(units), Type: lt}
}

// String renders "[4]⟨network,l1→l2⟩".
func (a Amount) String() string {
	if a.Qty%Quantity(Unit) == 0 {
		return fmt.Sprintf("[%d]%s", a.Qty.Units(), a.Type)
	}
	return fmt.Sprintf("[%.3f]%s", float64(a.Qty)/float64(Unit), a.Type)
}

// Amounts is a multiset of required amounts, one entry per located type:
// Φ's value for one action, which a computation's steps carry. What the
// schedule reads — a phase's amounts, a simple requirement's — is the
// same multiset as a Needs run.
type Amounts map[LocatedType]Quantity

// NewAmounts sums a list of Amount values into canonical form, dropping
// zero entries.
func NewAmounts(list ...Amount) Amounts {
	out := make(Amounts)
	for _, a := range list {
		out.Add(a)
	}
	return out
}

// Add accumulates one amount. A negative quantity subtracts; entries
// never go below zero (a requirement cannot be negative) — they are
// removed instead.
func (m Amounts) Add(a Amount) {
	if a.Qty == 0 {
		return
	}
	m[a.Type] += a.Qty
	if m[a.Type] <= 0 {
		delete(m, a.Type)
	}
}

// Merge accumulates all entries of other into m.
func (m Amounts) Merge(other Amounts) {
	for lt, q := range other {
		m.Add(Amount{Qty: q, Type: lt})
	}
}

// Clone returns a deep copy.
func (m Amounts) Clone() Amounts {
	out := make(Amounts, len(m))
	for lt, q := range m {
		out[lt] = q
	}
	return out
}

// Empty reports whether nothing is required.
func (m Amounts) Empty() bool {
	return len(m) == 0
}

// Types returns the located types in deterministic order.
func (m Amounts) Types() []LocatedType {
	out := make([]LocatedType, 0, len(m))
	for lt := range m {
		out = append(out, lt)
	}
	slices.SortFunc(out, LocatedType.compare)
	return out
}

// Total returns the summed quantity across all types (useful for
// aggregate baselines, not for feasibility).
func (m Amounts) Total() Quantity {
	var total Quantity
	for _, q := range m {
		total += q
	}
	return total
}

// SingleType reports whether all required quantity is of one located
// type, returning it if so. The paper uses this to decide when a sequence
// of actions need not be broken into subcomputations.
func (m Amounts) SingleType() (LocatedType, bool) {
	if len(m) != 1 {
		return LocatedType{}, false
	}
	for lt := range m {
		return lt, true
	}
	return LocatedType{}, false
}

// String renders the amounts deterministically: "{[8]⟨cpu,l1⟩, ...}".
func (m Amounts) String() string {
	return NeedsOf(m).String()
}

// Needs is a requirement's amounts as one sorted run: one Amount per
// located type, in the order a Set keeps its types. Located types are
// disjoint resources, so a requirement, like Θ, is a product over them,
// and the schedule walks it in type order with no map to look up or keys
// to sort. A run is exactly sized (len == cap), so appending to one
// holder's run never writes into another's. A zero quantity is an entry
// like any other, as it is in an Amounts map.
type Needs []Amount

// NewNeeds sums a list of Amount values into a run, dropping zero
// entries, as NewAmounts does.
func NewNeeds(list ...Amount) Needs {
	return NeedsOf(NewAmounts(list...))
}

// NeedsOf returns m's entries as a run; an empty m is the nil run.
func NeedsOf(m Amounts) Needs {
	if len(m) == 0 {
		return nil
	}
	return Needs(AppendNeeds(make([]Amount, 0, len(m)), m))
}

// AppendNeeds appends m's entries to buf in type order and returns the
// extended slice, whose last len(m) entries are m as a run. Many runs
// can share one backing array this way: each holder slices its own
// entries with their length as capacity.
func AppendNeeds(buf []Amount, m Amounts) []Amount {
	from := len(buf)
	for lt, q := range m {
		buf = append(buf, Amount{Qty: q, Type: lt})
	}
	slices.SortFunc(buf[from:], func(a, b Amount) int { return a.Type.compare(b.Type) })
	return buf
}

// Empty reports whether nothing is required.
func (n Needs) Empty() bool {
	return len(n) == 0
}

// Lookup returns lt's required quantity and whether the run holds an
// entry for it.
func (n Needs) Lookup(lt LocatedType) (Quantity, bool) {
	lo, hi := 0, len(n)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := n[m].Type.compare(lt); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return n[m].Qty, true
		}
	}
	return 0, false
}

// Total returns the summed quantity across all types.
func (n Needs) Total() Quantity {
	var total Quantity
	for _, a := range n {
		total += a.Qty
	}
	return total
}

// SingleType reports whether all required quantity is of one located
// type, returning it if so.
func (n Needs) SingleType() (LocatedType, bool) {
	if len(n) != 1 {
		return LocatedType{}, false
	}
	return n[0].Type, true
}

// String renders the run as Amounts.String renders the same multiset:
// "{[8]⟨cpu,l1⟩, ...}".
func (n Needs) String() string {
	if len(n) == 0 {
		return "{}"
	}
	parts := make([]string, len(n))
	for i, a := range n {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
