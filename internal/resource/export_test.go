package resource

import "repro/internal/interval"

// Test helpers. No binary uses these: a set's located types, and the
// term-level dominance, window quantity and §III complement, which the
// tests of terms and of the set algebra's laws check.

// Types returns the located types present, in deterministic order.
func (s Set) Types() []LocatedType {
	out := make([]LocatedType, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.lt
	}
	return out
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
	// other's interval lies within t's: the rest is what t has before
	// and after it.
	for _, rest := range []interval.Interval{interval.New(t.Span.Start, other.Span.Start), interval.New(other.Span.End, t.Span.End)} {
		if !rest.Empty() {
			out = append(out, Term{Rate: t.Rate, Type: t.Type, Span: rest})
		}
	}
	if remain := t.Rate - other.Rate; remain > 0 {
		out = append(out, Term{Rate: remain, Type: t.Type, Span: other.Span})
	}
	return out, true
}
