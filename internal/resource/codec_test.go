package resource

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interval"
)

// refTermCompact is the per-term renderer the appenders replaced, kept as
// their reference: the rate, the located type and the interval each
// rendered on its own, then formatted together.
func refTermCompact(t Term) string {
	rate := strconv.FormatFloat(float64(t.Rate)/float64(Unit), 'f', -1, 64)
	if t.Rate%Unit == 0 {
		rate = strconv.FormatInt(int64(t.Rate/Unit), 10)
	}
	lt := fmt.Sprintf("%s@%s", t.Type.Kind, t.Type.Loc)
	if t.Type.IsLink() {
		lt = fmt.Sprintf("%s@%s>%s", t.Type.Kind, t.Type.Loc, t.Type.Dst)
	}
	return fmt.Sprintf("%s:%s:(%s,%s)", rate, lt, refTime(t.Span.Start), refTime(t.Span.End))
}

func refTime(t interval.Time) string {
	switch t {
	case interval.Infinity:
		return "+inf"
	case interval.NegInfinity:
		return "-inf"
	}
	return strconv.FormatInt(t, 10)
}

// refCompact is Set.Compact as the join of its terms' reference
// renderings.
func refCompact(s Set) string {
	var parts []string
	for _, t := range s.Terms() {
		parts = append(parts, refTermCompact(t))
	}
	return strings.Join(parts, ",")
}

// refParseSet is ParseSet as a fold of NewSet over the terms of its
// top-level fields: what the single pass must agree with on any input.
func refParseSet(str string) (Set, error) {
	var terms []Term
	depth, start := 0, 0
	field := func(end int) error {
		f := strings.TrimSpace(str[start:end])
		if f == "" {
			return nil
		}
		t, err := ParseTerm(f)
		terms = append(terms, t)
		return err
	}
	for i := 0; i < len(str); i++ {
		switch str[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				if err := field(i); err != nil {
					return Set{}, err
				}
				start = i + 1
			}
		}
	}
	if err := field(len(str)); err != nil {
		return Set{}, err
	}
	return NewSet(terms...), nil
}

var codecTypes = []LocatedType{
	CPUAt("l1"), CPUAt("l2"), At(Memory, "node-7"), At("gpu", "l1"), Link("l1", "l2"), Link("l2", "l1"),
}

// randCodecTerms draws n terms over codecTypes that reach every path of
// ParseSet once shuffled: fractional and whole rates, links, ±inf ends,
// overlaps, and equal-rate seams.
func randCodecTerms(rng *rand.Rand, n int) []Term {
	terms := make([]Term, 0, n)
	for len(terms) < n {
		lt := codecTypes[rng.Intn(len(codecTypes))]
		rate := Rate(1 + rng.Intn(5000))
		if rng.Intn(2) == 0 {
			rate = FromUnits(int64(1 + rng.Intn(9)))
		}
		start := interval.Time(rng.Intn(60) - 20)
		end := start + 1 + interval.Time(rng.Intn(12))
		switch rng.Intn(8) {
		case 0:
			start = interval.NegInfinity
		case 1:
			end = interval.Infinity
		case 2, 3:
			// Abut the previous term at its own rate: an equal-rate seam.
			if k := len(terms); k > 0 && terms[k-1].Span.End < interval.Infinity/2 {
				prev := terms[k-1]
				lt, rate, start = prev.Type, prev.Rate, prev.Span.End
				end = start + 1 + interval.Time(rng.Intn(12))
			}
		}
		terms = append(terms, NewTerm(rate, lt, interval.New(start, end)))
	}
	return terms
}

// The codec holds to its reference on random sets: Compact renders byte
// for byte what the per-term renderer did; ParseSet of Compact's output
// takes the append path and returns the set in exactly-sized storage;
// ParseSet of the raw terms, shuffled (overlapping, out of order, with
// equal-rate seams either way round), equals NewSet of them.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 3000; iter++ {
		terms := randCodecTerms(rng, rng.Intn(24))
		want := NewSet(terms...)
		text := want.Compact()
		if ref := refCompact(want); text != ref {
			t.Fatalf("iter %d: Compact = %q, reference %q", iter, text, ref)
		}
		for _, term := range want.Terms() {
			if got, ref := term.Compact(), refTermCompact(term); got != ref {
				t.Fatalf("iter %d: Term.Compact = %q, reference %q", iter, got, ref)
			}
		}

		got, err := ParseSet(text)
		if err != nil || !got.Equal(want) {
			t.Fatalf("iter %d: ParseSet(%q) = %v, %v; want %v", iter, text, got, err, want)
		}
		for _, lt := range got.Types() {
			checkSpliced(t, fmt.Sprintf("iter %d: parsed %v", iter, lt), got.profileOf(lt))
		}

		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		parts := make([]string, len(terms))
		for i, term := range terms {
			parts[i] = refTermCompact(term)
		}
		raw := strings.Join(parts, ", ")
		got, err = ParseSet(raw)
		if err != nil || !got.Equal(want) {
			t.Fatalf("iter %d: ParseSet(%q) = %v, %v; want %v", iter, raw, got, err, want)
		}
		for _, lt := range got.Types() {
			checkCanonical(t, fmt.Sprintf("iter %d: parsed %v", iter, lt), got.profileOf(lt))
		}
	}
}

// Every milli-unit rate, whole or fractional, reads back as itself.
func TestRateTextRoundTrip(t *testing.T) {
	lt := CPUAt("l1")
	for r := Rate(1); r <= 20*Unit; r++ {
		term := NewTerm(r, lt, interval.New(0, 1))
		back, err := ParseTerm(term.Compact())
		if err != nil || back != term {
			t.Fatalf("rate %d: %q parses to %v, %v", r, term.Compact(), back, err)
		}
	}
}

// codecSet is n segments of one located type, abutting at alternating
// rates (one of them fractional), so that none coalesce: the shape of a
// busy owner's free view.
func codecSet(n int, lt LocatedType) Set {
	var s Set
	for i := 0; i < n; i++ {
		rate := FromUnits(3)
		if i%2 == 1 {
			rate = 1500
		}
		s.Add(NewTerm(rate, lt, interval.New(interval.Time(2*i), interval.Time(2*i+2))))
	}
	return s
}

// codecSink and textSink keep results reachable, so the compiler can
// neither drop the measured call nor keep its result off the heap.
var (
	codecSink Set
	textSink  string
)

// interleave renders n segments split over two located types with their
// terms alternating, A,B,A,B…: each type comes back after the other.
func interleave(n int) string {
	a := codecSet(n-n/2, CPUAt("l1")).Terms()
	b := codecSet(n/2, Link("l1", "l2")).Terms()
	var parts []string
	for i := range a {
		parts = append(parts, a[i].Compact())
		if i < len(b) {
			parts = append(parts, b[i].Compact())
		}
	}
	return strings.Join(parts, ",")
}

// shuffled renders the n terms of interleave's two types in a random
// order.
func shuffled(n int) string {
	terms := append(codecSet(n-n/2, CPUAt("l1")).Terms(), codecSet(n/2, Link("l1", "l2")).Terms()...)
	rand.New(rand.NewSource(int64(n))).Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	parts := make([]string, len(terms))
	for i, term := range terms {
		parts[i] = term.Compact()
	}
	return strings.Join(parts, ",")
}

// The linearity guard: parsing n non-overlapping segments costs bytes
// and allocations per segment that do not grow with n, whether the text
// is Compact's rendering of a profile, two types whose terms alternate,
// or terms in random order. Folding each term in with a splice copies
// the profile built so far, which makes the bytes per segment grow with
// n.
func TestParseSetCostIsLinear(t *testing.T) {
	shapes := []struct {
		name   string
		render func(n int) string
	}{
		{"compact", func(n int) string { return codecSet(n, CPUAt("l1")).Compact() }},
		{"alternating types", interleave},
		{"shuffled", shuffled},
	}
	type cost struct{ bytes, allocs float64 }
	for _, shape := range shapes {
		perSegment := func(n int) cost {
			text := shape.render(n)
			parse := func() {
				var err error
				if codecSink, err = ParseSet(text); err != nil {
					t.Fatal(err)
				}
			}
			parse()
			if got := codecSink.NumTerms(); got != n {
				t.Fatalf("%s: parsed %d segments, want %d", shape.name, got, n)
			}
			allocs := testing.AllocsPerRun(20, parse)
			return cost{bytes: allocBytes(20, parse) / float64(n), allocs: allocs / float64(n)}
		}
		small, large := perSegment(200), perSegment(2000)
		if large.bytes > 2*small.bytes {
			t.Errorf("%s: bytes per segment: %.1f at 2000 segments, %.1f at 200 (limit 2×)", shape.name, large.bytes, small.bytes)
		}
		if large.allocs > 2*small.allocs {
			t.Errorf("%s: allocations per segment: %.4f at 2000 segments, %.4f at 200 (limit 2×)", shape.name, large.allocs, small.allocs)
		}
	}
}

// benchCodecSet spreads n segments over a node's CPU and one of its
// links, as an owner's free view does.
func benchCodecSet(n int) Set {
	return codecSet(n-n/2, CPUAt("l1")).Union(codecSet(n/2, Link("l1", "l2")))
}

func BenchmarkSetCompact(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		s := benchCodecSet(n)
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				textSink = s.Compact()
			}
		})
	}
}

func BenchmarkParseSet(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		text := benchCodecSet(n).Compact()
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				codecSink, _ = ParseSet(text)
			}
		})
	}
}
