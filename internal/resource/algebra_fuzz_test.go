package resource

import (
	"errors"
	"testing"

	"repro/internal/interval"
)

// algebraTypes is FuzzSetAlgebra's universe of located types, listed out
// of their sort order so that a set's order is never the order its
// types were first added in.
var algebraTypes = [8]LocatedType{
	Link("l2", "l1"), CPUAt("l2"), At("gpu", "l3"), At(Memory, "l1"),
	CPUAt("l1"), Link("l1", "l2"), At("disk", "l1"), Link("l1", "l3"),
}

// algebraTicks is the horizon every term of FuzzSetAlgebra lies inside.
const algebraTicks = 64

// dense is the reference a Set is held to: the rate of every type of
// algebraTypes at every tick of [0, algebraTicks).
type dense [len(algebraTypes)][algebraTicks]Rate

func typeIndex(lt LocatedType) int {
	for i, u := range algebraTypes {
		if u == lt {
			return i
		}
	}
	return -1
}

// denseOf tabulates s, failing on a term outside the universe or the
// horizon.
func denseOf(t *testing.T, s Set) dense {
	t.Helper()
	var d dense
	for _, term := range s.Terms() {
		k := typeIndex(term.Type)
		if k < 0 || term.Span.Start < 0 || term.Span.End > algebraTicks {
			t.Fatalf("term %v lies outside the universe", term)
		}
		for at := term.Span.Start; at < term.Span.End; at++ {
			d[k][at] += term.Rate
		}
	}
	return d
}

// add returns d + e; sub returns d − e and whether it is defined, or the
// saturating difference.
func (d dense) add(e dense) dense {
	for k := range d {
		for at := range d[k] {
			d[k][at] += e[k][at]
		}
	}
	return d
}

func (d dense) sub(e dense, saturate bool) (dense, bool) {
	for k := range d {
		for at := range d[k] {
			switch diff := d[k][at] - e[k][at]; {
			case diff >= 0:
				d[k][at] = diff
			case saturate:
				d[k][at] = 0
			default:
				return dense{}, false
			}
		}
	}
	return d, true
}

// keep returns d with every rate outside window, or of a type keepType
// refuses, zeroed.
func (d dense) keep(window interval.Interval, keepType func(k int) bool) dense {
	for k := range d {
		for at := range d[k] {
			if t := interval.Time(at); !keepType(k) || t < window.Start || t >= window.End {
				d[k][at] = 0
			}
		}
	}
	return d
}

func allTypes(int) bool { return true }

// checkAlgebraSet holds s to its reference and to the representation's
// invariants: types strictly increasing, none of them empty.
func checkAlgebraSet(t *testing.T, what string, s Set, want dense) {
	t.Helper()
	if got := denseOf(t, s); got != want {
		t.Fatalf("%s: %v does not match the dense reference", what, s)
	}
	types := s.Types()
	for i, lt := range types {
		if i > 0 && !types[i-1].less(lt) {
			t.Fatalf("%s: types %v and %v out of order in %v", what, types[i-1], lt, s)
		}
		if s.profileOf(lt).empty() {
			t.Fatalf("%s: %v holds an empty profile in %v", what, lt, s)
		}
	}
}

// checkFresh fails unless r, the result of an op whose caller owns its
// result, is a new run rather than one of the sets it was computed from:
// an in-place mutation of r would show through them.
func checkFresh(t *testing.T, what string, r Set, from ...Set) {
	t.Helper()
	for _, f := range from {
		if !r.Empty() && r.Same(f) {
			t.Fatalf("%s returned the run of an operand, %v", what, f)
		}
	}
}

// An algebra op reads algebraOpBytes bytes: op, type bits, then two
// (start, length, rate) triples for the first and second term of its
// operand.
const algebraOpBytes = 8

// FuzzSetAlgebra is a differential test of the set algebra: a
// fuzz-chosen sequence of Add, AddSet, Union, PatchUnion, Subtract,
// PatchSubtract, SubtractSaturating, Consume, Clamp, TrimBefore and
// Restrict applied to one Set of up to eight located types over ticks
// 0..63. After every op the set's Terms match a dense per-type, per-tick
// reference, its Types are strictly increasing with no empty profile, and
// every operand — and every set an earlier op produced — still renders as
// it did: no op writes into storage another holder reaches.
func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 3, 0, 0, 0, 2, 4, 5, 10, 2, 20, 5, 1, 4, 1, 6, 3, 1, 0, 0, 0})
	f.Add([]byte{
		1, 0xff, 0, 64, 4, 30, 10, 2, // AddSet two types
		8, 0, 5, 40, 0, 0, 0, 0, // Clamp
		9, 0, 12, 0, 0, 0, 0, 0, // TrimBefore
		10, 0x5a, 0, 64, 0, 3, 0, 0, // Restrict
		6, 0x21, 0, 64, 8, 0, 0, 0, // SubtractSaturating
	})
	f.Add([]byte{
		3, 0x13, 0, 32, 2, 32, 32, 3, // PatchUnion
		4 + 11, 0, 0, 0, 0, 0, 0, 0, // Subtract s from itself
		2 + 22, 0, 0, 0, 0, 0, 0, 0, // Union with an earlier set
		7, 2, 3, 4, 1, 0, 0, 0, // Consume
		5, 0x40, 0, 64, 1, 0, 0, 0, // PatchSubtract
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*algebraOpBytes {
			return
		}
		var (
			s       Set
			want    dense
			owned   = true // s may be mutated in place
			history []Set  // sets earlier ops produced, each with its text
			texts   []string
		)
		keep := func(old Set) {
			history, texts = append(history, old), append(texts, old.String())
			if len(history) > 4 {
				history, texts = history[1:], texts[1:]
			}
		}
		for n := 0; len(data) >= algebraOpBytes; n++ {
			b := data[:algebraOpBytes]
			data = data[algebraOpBytes:]
			term := func(k int, start, length, rate byte) Term {
				from := interval.Time(start % algebraTicks)
				to := min(from+1+interval.Time(length%algebraTicks), algebraTicks)
				return NewTerm(Rate(rate%8), algebraTypes[k%len(algebraTypes)], interval.New(from, to))
			}
			first := term(int(b[1]), b[2], b[3], b[4])
			operand := NewSet(first, term(int(b[1]>>3), b[5], b[6], b[7]))
			switch b[0] / 11 % 3 { // where the operand comes from
			case 1:
				operand = s
			case 2:
				if len(history) > 0 {
					operand = history[0]
				}
			}
			operandText, operandWant := operand.String(), denseOf(t, operand)
			window := interval.New(first.Span.Start, first.Span.End)
			old, oldText := s, s.String()
			op := b[0] % 11
			// An in-place op needs a set the caller owns, and one that is
			// not its own operand. The result of a Patch* op may be its
			// receiver, so it is cloned first — and once in a while an
			// owned set is too, to mutate a clone.
			inPlace := op <= 1 || op == 7 || op == 9
			cloned := inPlace && (!owned || operand.Same(s) || b[7]&0x80 != 0)
			if cloned {
				s = s.Clone()
			}
			name := ""
			switch op {
			case 0:
				name = "Add"
				s.Add(first)
				var one dense
				if !first.Null() {
					one = denseOf(t, NewSet(first))
				}
				want = want.add(one)
			case 1:
				name = "AddSet"
				s.AddSet(operand)
				want = want.add(operandWant)
			case 2:
				name = "Union"
				s = s.Union(operand)
				checkFresh(t, name, s, old, operand)
				want = want.add(operandWant)
			case 3:
				name = "PatchUnion"
				s = s.PatchUnion(operand)
				want = want.add(operandWant)
			case 4, 5:
				name = "Subtract"
				var (
					got Set
					err error
				)
				if op == 5 {
					name = "PatchSubtract"
					got, err = s.PatchSubtract(operand)
				} else {
					got, err = s.Subtract(operand)
				}
				diff, ok := want.sub(operandWant, false)
				if ok != (err == nil) || err != nil && !errors.Is(err, ErrInsufficient) {
					t.Fatalf("op %d: %s(%v, %v): err %v, reference defined=%v", n, name, s, operand, err, ok)
				}
				if ok {
					s, want = got, diff
				}
				if ok && op == 4 {
					checkFresh(t, name, s, old, operand)
				}
			case 6:
				name = "SubtractSaturating"
				s = s.SubtractSaturating(operand)
				checkFresh(t, name, s, old, operand)
				want, _ = want.sub(operandWant, true)
			case 7:
				name = "Consume"
				err := s.Consume(first.Type, first.Span, first.Rate)
				var one dense
				if !first.Null() {
					one = denseOf(t, NewSet(first))
				}
				diff, ok := want.sub(one, false)
				if ok != (err == nil) {
					t.Fatalf("op %d: Consume(%v) of %v: err %v, reference defined=%v", n, first, old, err, ok)
				}
				if ok {
					want = diff
				}
			case 8:
				name = "Clamp"
				s = s.Clamp(window)
				checkFresh(t, name, s, old)
				want = want.keep(window, allTypes)
			case 9:
				name = "TrimBefore"
				at := interval.Time(b[2] % algebraTicks)
				expired := s.TrimBefore(at)
				checkAlgebraSet(t, "TrimBefore's expired set", expired,
					want.keep(interval.New(interval.NegInfinity, at), allTypes))
				want = want.keep(interval.New(at, interval.Infinity), allTypes)
			case 10:
				name = "Restrict"
				var types []LocatedType
				listed := [len(algebraTypes)]bool{}
				for k := range algebraTypes {
					if b[1]>>k&1 == 1 {
						types = append(types, algebraTypes[k])
						listed[k] = true
					}
				}
				if k := int(b[5]) % len(algebraTypes); b[5]&0x80 != 0 {
					types = append(types, algebraTypes[k]) // listed twice, or out of order
					listed[k] = true
				}
				s = s.Restrict(window, types...)
				checkFresh(t, name, s, old)
				want = want.keep(window, func(k int) bool { return listed[k] })
			}
			if patch := op == 3 || op == 5; inPlace {
				owned = true
			} else if !s.Same(old) {
				owned = !patch
			}
			checkAlgebraSet(t, name, s, want)
			if got := operand.String(); got != operandText {
				t.Fatalf("op %d: %s changed its operand: %s, was %s", n, name, got, operandText)
			}
			// old is another holder's set unless the op mutated it in
			// place or handed it on as its result.
			distinct := cloned || !old.Same(s)
			if got := old.String(); distinct && got != oldText {
				t.Fatalf("op %d: %s changed its receiver: %s, was %s", n, name, got, oldText)
			}
			for i, h := range history {
				if got := h.String(); got != texts[i] {
					t.Fatalf("op %d: %s changed a set an earlier op produced: %s, was %s", n, name, got, texts[i])
				}
			}
			if distinct {
				keep(old)
			}
		}
	})
}
