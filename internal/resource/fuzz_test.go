package resource

import (
	"testing"
)

func FuzzParseTerm(f *testing.F) {
	for _, seed := range []string{
		"5:cpu@l1:(0,3)",
		"2.5:network@l1>l2:(4,12)",
		"1:gpu@node-7:(-2,9)",
		"0:cpu@l1:(0,0)",
		"::",
		"9999999999:cpu@x:(0,1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 256 {
			return
		}
		term, err := ParseTerm(input)
		if err != nil {
			return
		}
		if term.Null() {
			return // null terms render as "0", which is not term syntax
		}
		// A parsed term must round-trip through Compact exactly.
		back, err := ParseTerm(term.Compact())
		if err != nil {
			t.Fatalf("Compact(%q) = %q does not re-parse: %v", input, term.Compact(), err)
		}
		if back != term {
			t.Fatalf("round trip changed term: %v -> %q -> %v", term, term.Compact(), back)
		}
		// Parsed terms are never negative-rate (the paper forbids it).
		if term.Rate < 0 {
			t.Fatalf("negative rate survived parsing: %v", term)
		}
	})
}

func FuzzParseSet(f *testing.F) {
	for _, seed := range []string{
		"",
		"5:cpu@l1:(0,3)",
		"5:cpu@l1:(0,3),2:network@l1>l2:(1,4)",
		"5:cpu@l1:(0,3),5:cpu@l1:(2,8)",
		",,,",
		"5:cpu@l1:(0,3),(",
		// Out of order, overlapping, equal-rate seams either way round, a
		// type that comes back after another: the sort and every splice
		// fallback of the parser.
		"3:cpu@l1:(6,9),5:cpu@l1:(0,3)",
		"5:cpu@l1:(0,6),2.5:cpu@l1:(3,9),1:cpu@l1:(-inf,1)",
		"5:cpu@l1:(0,3),5:cpu@l1:(3,8),4:cpu@l1:(8,+inf)",
		"5:cpu@l1:(3,8),5:cpu@l1:(0,3)",
		"1:cpu@l1:(0,1),1:network@l1>l2:(0,1),1.0015:cpu@l1:(5,6),0:cpu@l1:(1,2)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		s, err := ParseSet(input)
		// The single pass agrees with folding each field's term in with
		// NewSet, errors included.
		ref, refErr := refParseSet(input)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseSet(%q) err = %v, reference err = %v", input, err, refErr)
		}
		if err != nil {
			return
		}
		if !s.Equal(ref) {
			t.Fatalf("ParseSet(%q) = %v, reference %v", input, s, ref)
		}
		// Round trip: Compact must re-parse to an equal set.
		back, err := ParseSet(s.Compact())
		if err != nil {
			t.Fatalf("Compact of parsed set does not re-parse: %q: %v", s.Compact(), err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip changed set: %v -> %q -> %v", s, s.Compact(), back)
		}
		// Normalization invariants on every profile.
		terms := s.Terms()
		for i := 1; i < len(terms); i++ {
			if terms[i].Type == terms[i-1].Type {
				prev, cur := terms[i-1], terms[i]
				if cur.Span.Start < prev.Span.End {
					t.Fatalf("overlapping normalized terms: %v then %v", prev, cur)
				}
				if cur.Span.Start == prev.Span.End && cur.Rate == prev.Rate {
					t.Fatalf("unmerged adjacent equal-rate terms: %v then %v", prev, cur)
				}
			}
		}
	})
}
