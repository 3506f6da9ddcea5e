package resource

import (
	"slices"
	"testing"

	"repro/internal/interval"
)

// setOfTerms decodes FuzzSetOfMatchesAdd's input into terms over
// algebraTypes, four bytes a term: type, start, length and rate. A zero
// length or rate makes a null term. A type byte with its high bit set
// makes a run instead: 33 to 64 one-tick terms from the start, back to
// back, at rates the rate byte's bits pick from 1 and 2, so that equal
// rates meet and a type's profile outgrows a chunk.
func setOfTerms(data []byte) []Term {
	var terms []Term
	for ; len(data) >= 4; data = data[4:] {
		lt := algebraTypes[int(data[0]&0x7f)%len(algebraTypes)]
		start := interval.Time(data[1] % 96)
		if data[0]&0x80 != 0 {
			n := chunkSize + 1 + int(data[2]%32)
			for i := 0; i < n; i++ {
				rate := Rate(1 + (data[3]>>(i%8))&1)
				at := start + interval.Time(i)
				terms = append(terms, NewTerm(rate, lt, interval.New(at, at+1)))
			}
			continue
		}
		span := interval.New(start, start+interval.Time(data[2]%12))
		terms = append(terms, Term{Rate: Rate(data[3] % 4), Type: lt, Span: span})
	}
	return terms
}

// SetOf builds in one sorted pass the set a fold of Add builds, whatever
// the order, overlap, adjacency and nullity of its terms: the same set,
// in one exactly sized run of entries, every profile canonical and
// exactly sized, chunked past chunkSize. Built again from its own sorted
// output, or as the UnionOf of two halves, it is the same set too.
func FuzzSetOfMatchesAdd(f *testing.F) {
	f.Add([]byte{})
	// Overlapping terms of one type, out of order.
	f.Add([]byte{4, 10, 8, 2, 4, 6, 8, 1, 4, 0, 11, 3})
	// Adjacent equal-rate terms, and one that meets them at another rate.
	f.Add([]byte{4, 0, 4, 2, 4, 4, 4, 2, 4, 8, 3, 1})
	// Null terms: zero rate, empty span, alone and among live ones.
	f.Add([]byte{1, 5, 3, 0, 1, 9, 0, 2, 1, 2, 3, 1, 2, 2, 0, 0})
	// Interleaved types, out of order.
	f.Add([]byte{5, 3, 3, 1, 0, 7, 2, 2, 5, 0, 2, 1, 3, 1, 1, 3, 0, 1, 5, 1})
	// Runs longer than a chunk, one overlapped by a plain term and one
	// sharing its type with another run.
	f.Add([]byte{0x84, 0, 0, 0x55, 4, 20, 9, 3})
	f.Add([]byte{0x81, 10, 31, 0xff, 0x81, 40, 5, 0x0f, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		terms := setOfTerms(data)
		want := NewSet(terms...)
		got := SetOf(slices.Clone(terms))
		checkSetOf(t, "SetOf", got, want)

		sorted := slices.Clone(terms)
		slices.SortFunc(sorted, byTypeThenStart)
		checkSetOf(t, "SetOf of sorted terms", SetOf(sorted), want)

		half := len(terms) / 2
		both := UnionOf([]Set{SetOf(slices.Clone(terms[:half])), SetOf(slices.Clone(terms[half:]))})
		if !both.Equal(want) {
			t.Fatalf("UnionOf of the halves = %v, want %v", both, want)
		}
		if len(both.entries) != cap(both.entries) {
			t.Fatalf("UnionOf: %d entries in a run for %d", len(both.entries), cap(both.entries))
		}
	})
}

// checkSetOf holds a built set to the folded one, and to a Set's run
// invariants.
func checkSetOf(t *testing.T, what string, got, want Set) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	if len(got.entries) != cap(got.entries) {
		t.Fatalf("%s: %d entries in a run for %d", what, len(got.entries), cap(got.entries))
	}
	for _, e := range got.entries {
		checkSpliced(t, what+" "+e.lt.String(), e.p)
	}
}
