package resource

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/interval"
)

var (
	cpuL1  = CPUAt("l1")
	netL12 = Link("l1", "l2")
)

func u(n int64) Rate { return FromUnits(n) }

func TestPaperWorkedExampleDifferentTypes(t *testing.T) {
	// §III: {[5]cpu(0,3)} ∪ {[5]net l1→l2 (0,5)} keeps both terms — no
	// simplification across located types.
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(u(5), netL12, interval.New(0, 5)),
	)
	terms := s.Terms()
	if len(terms) != 2 {
		t.Fatalf("got %d terms: %v", len(terms), s)
	}
	if s.RateAt(cpuL1, 2) != u(5) || s.RateAt(netL12, 4) != u(5) {
		t.Error("rates wrong")
	}
	if s.RateAt(cpuL1, 4) != 0 {
		t.Error("cpu should be gone at t=4")
	}
}

func TestPaperWorkedExampleOverlapSimplification(t *testing.T) {
	// §III: {[5]cpu(0,3)} ∪ {[5]cpu(0,5)} = {[10]cpu(0,3), [5]cpu(3,5)}.
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(u(5), cpuL1, interval.New(0, 5)),
	)
	want := NewSet(
		NewTerm(u(10), cpuL1, interval.New(0, 3)),
		NewTerm(u(5), cpuL1, interval.New(3, 5)),
	)
	if !s.Equal(want) {
		t.Errorf("got %v, want %v", s, want)
	}
	if s.NumTerms() != 2 {
		t.Errorf("NumTerms = %d", s.NumTerms())
	}
}

func TestPaperWorkedExampleComplement(t *testing.T) {
	// §III: {[5]cpu(0,3)} \ {[3]cpu(1,2)} = {[5](0,1), [2](1,2), [5](2,3)}.
	s := NewSet(NewTerm(u(5), cpuL1, interval.New(0, 3)))
	req := NewSet(NewTerm(u(3), cpuL1, interval.New(1, 2)))
	got, err := s.Subtract(req)
	if err != nil {
		t.Fatal(err)
	}
	want := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 1)),
		NewTerm(u(2), cpuL1, interval.New(1, 2)),
		NewTerm(u(5), cpuL1, interval.New(2, 3)),
	)
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergeEqualRatesThatMeet(t *testing.T) {
	// §III: terms reduce in number if identical rates have meeting
	// intervals.
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(u(5), cpuL1, interval.New(3, 7)),
	)
	if s.NumTerms() != 1 {
		t.Fatalf("meeting equal-rate terms should merge: %v", s)
	}
	if got := s.Terms()[0]; got != NewTerm(u(5), cpuL1, interval.New(0, 7)) {
		t.Errorf("merged term = %v", got)
	}
}

func TestSubtractInsufficient(t *testing.T) {
	s := NewSet(NewTerm(u(5), cpuL1, interval.New(0, 3)))
	cases := []Set{
		NewSet(NewTerm(u(6), cpuL1, interval.New(0, 3))),       // rate too high
		NewSet(NewTerm(u(5), cpuL1, interval.New(0, 4))),       // extends past availability
		NewSet(NewTerm(u(1), netL12, interval.New(0, 1))),      // absent type
		NewSet(NewTerm(u(1), CPUAt("l2"), interval.New(0, 1))), // absent location
	}
	for i, req := range cases {
		if _, err := s.Subtract(req); !errors.Is(err, ErrInsufficient) {
			t.Errorf("case %d: want ErrInsufficient, got %v", i, err)
		}
	}
	// But coverage assembled from two simplified terms is fine.
	stacked := NewSet(
		NewTerm(u(3), cpuL1, interval.New(0, 4)),
		NewTerm(u(3), cpuL1, interval.New(0, 4)),
	)
	if _, err := stacked.Subtract(NewSet(NewTerm(u(6), cpuL1, interval.New(0, 4)))); err != nil {
		t.Errorf("simplified coverage should satisfy: %v", err)
	}
}

func TestCoversAndMinRate(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 4)),
		NewTerm(u(2), cpuL1, interval.New(4, 8)),
	)
	if !s.Covers(NewTerm(u(2), cpuL1, interval.New(0, 8))) {
		t.Error("should cover rate 2 throughout")
	}
	if s.Covers(NewTerm(u(3), cpuL1, interval.New(0, 8))) {
		t.Error("rate 3 unavailable after t=4")
	}
	if !s.Covers(Term{}) {
		t.Error("null term always covered")
	}
	if got := s.MinRate(cpuL1, interval.New(0, 8)); got != u(2) {
		t.Errorf("MinRate = %d", got)
	}
	if got := s.MinRate(cpuL1, interval.New(0, 9)); got != 0 {
		t.Errorf("MinRate over gap = %d, want 0", got)
	}
	if got := s.MinRate(cpuL1, interval.New(0, 4)); got != u(5) {
		t.Errorf("MinRate = %d", got)
	}
}

func TestQuantityWithin(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 4)),
		NewTerm(u(2), cpuL1, interval.New(4, 8)),
		NewTerm(u(7), netL12, interval.New(2, 6)),
	)
	if got := s.QuantityWithin(cpuL1, interval.New(0, 8)); got != QuantityFromUnits(28) {
		t.Errorf("cpu quantity = %d", got)
	}
	if got := s.QuantityWithin(cpuL1, interval.New(3, 5)); got != QuantityFromUnits(7) {
		t.Errorf("cpu window quantity = %d", got)
	}
	total := s.TotalQuantity(interval.New(0, 8))
	if total[cpuL1] != QuantityFromUnits(28) || total[netL12] != QuantityFromUnits(28) {
		t.Errorf("TotalQuantity = %v", total)
	}
}

func TestConsume(t *testing.T) {
	s := NewSet(NewTerm(u(5), cpuL1, interval.New(0, 10)))
	if err := s.Consume(cpuL1, interval.New(0, 4), u(3)); err != nil {
		t.Fatal(err)
	}
	if got := s.RateAt(cpuL1, 2); got != u(2) {
		t.Errorf("after consume rate = %d", got)
	}
	if got := s.RateAt(cpuL1, 6); got != u(5) {
		t.Errorf("untouched region rate = %d", got)
	}
	if err := s.Consume(cpuL1, interval.New(0, 4), u(3)); !errors.Is(err, ErrInsufficient) {
		t.Errorf("over-consume should fail, got %v", err)
	}
	// Failed consume must not mutate.
	if got := s.RateAt(cpuL1, 2); got != u(2) {
		t.Errorf("failed consume mutated set: rate = %d", got)
	}
	// No-op consumes.
	if err := s.Consume(cpuL1, interval.Interval{}, u(3)); err != nil {
		t.Errorf("empty-span consume: %v", err)
	}
	if err := s.Consume(cpuL1, interval.New(0, 1), 0); err != nil {
		t.Errorf("zero-rate consume: %v", err)
	}
}

func TestTrimBefore(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 10)),
		NewTerm(u(3), netL12, interval.New(0, 4)),
	)
	expired := s.TrimBefore(4)
	if got := s.RateAt(cpuL1, 5); got != u(5) {
		t.Errorf("future cpu rate = %d", got)
	}
	if got := s.RateAt(cpuL1, 3); got != 0 {
		t.Errorf("past cpu rate = %d, want 0", got)
	}
	if !s.Support(netL12).Empty() {
		t.Error("network should be fully expired")
	}
	wantExpired := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 4)),
		NewTerm(u(3), netL12, interval.New(0, 4)),
	)
	if !expired.Equal(wantExpired) {
		t.Errorf("expired = %v, want %v", expired, wantExpired)
	}
}

func TestSetMisc(t *testing.T) {
	var zero Set
	if !zero.Empty() {
		t.Error("zero set should be empty")
	}
	if zero.String() != "{}" {
		t.Errorf("zero String = %q", zero.String())
	}
	if got := zero.Hull(); !got.Empty() {
		t.Errorf("zero hull = %v", got)
	}
	zero.Add(Term{}) // adding null term keeps it empty and must not panic
	if !zero.Empty() {
		t.Error("null add changed set")
	}

	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(2, 6)),
		NewTerm(u(3), netL12, interval.New(0, 4)),
	)
	if got := s.Hull(); !got.Equal(interval.New(0, 6)) {
		t.Errorf("Hull = %v", got)
	}
	types := s.Types()
	if len(types) != 2 || types[0] != cpuL1 || types[1] != netL12 {
		t.Errorf("Types = %v", types)
	}
	clamped := s.Clamp(interval.New(3, 5))
	if !clamped.Equal(NewSet(
		NewTerm(u(5), cpuL1, interval.New(3, 5)),
		NewTerm(u(3), netL12, interval.New(3, 4)),
	)) {
		t.Errorf("Clamp = %v", clamped)
	}
	// Clone independence.
	c := s.Clone()
	if err := c.Consume(cpuL1, interval.New(2, 6), u(5)); err != nil {
		t.Fatal(err)
	}
	if got := s.RateAt(cpuL1, 3); got != u(5) {
		t.Error("Clone shares storage with original")
	}
}

func TestSetCompactRoundTrip(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(u(7), netL12, interval.New(2, 9)),
		NewTerm(u(1), MemoryAt("l3"), interval.New(1, 2)),
	)
	back, err := ParseSet(s.Compact())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Errorf("round trip: %v -> %q -> %v", s, s.Compact(), back)
	}
	empty, err := ParseSet("  ")
	if err != nil || !empty.Empty() {
		t.Errorf("empty parse = %v, %v", empty, err)
	}
	if _, err := ParseSet("nonsense"); err == nil {
		t.Error("bad set text should fail")
	}
}

func randTermFor(rng *rand.Rand, lt LocatedType) Term {
	start := interval.Time(rng.Intn(12))
	return NewTerm(FromUnits(int64(1+rng.Intn(8))), lt, interval.New(start, start+1+interval.Time(rng.Intn(8))))
}

func TestPropertySetUnionPointwise(t *testing.T) {
	// Union of sets must equal point-wise rate addition, for all types and
	// ticks — this is the paper's simplification rule stated as an
	// invariant.
	rng := rand.New(rand.NewSource(17))
	types := []LocatedType{cpuL1, netL12, CPUAt("l2")}
	for iter := 0; iter < 800; iter++ {
		var a, b Set
		for i := 0; i < rng.Intn(4); i++ {
			a.Add(randTermFor(rng, types[rng.Intn(len(types))]))
		}
		for i := 0; i < rng.Intn(4); i++ {
			b.Add(randTermFor(rng, types[rng.Intn(len(types))]))
		}
		un := a.Union(b)
		for _, lt := range types {
			for tick := interval.Time(0); tick < 22; tick++ {
				want := a.RateAt(lt, tick) + b.RateAt(lt, tick)
				if got := un.RateAt(lt, tick); got != want {
					t.Fatalf("iter %d: union rate at %v/%d = %d, want %d (a=%v b=%v)",
						iter, lt, tick, got, want, a, b)
				}
			}
		}
		if !un.Equal(b.Union(a)) {
			t.Fatalf("union not commutative")
		}
	}
}

func TestPropertySubtractRestoresWithUnion(t *testing.T) {
	// Whenever Θ1 \ Θ2 is defined, (Θ1 \ Θ2) ∪ Θ2 = Θ1 point-wise.
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 800; iter++ {
		var full Set
		for i := 0; i < 1+rng.Intn(4); i++ {
			full.Add(randTermFor(rng, cpuL1))
		}
		// Build a requirement that is guaranteed dominated: a sub-rate of
		// one normalized term.
		terms := full.Terms()
		if len(terms) == 0 {
			continue
		}
		pick := terms[rng.Intn(len(terms))]
		req := NewSet(NewTerm(pick.Rate/2, pick.Type, pick.Span))
		if req.Empty() {
			continue
		}
		rest, err := full.Subtract(req)
		if err != nil {
			t.Fatalf("iter %d: unexpected %v", iter, err)
		}
		if !rest.Union(req).Equal(full) {
			t.Fatalf("iter %d: (Θ1\\Θ2)∪Θ2 != Θ1: full=%v req=%v rest=%v",
				iter, full, req, rest)
		}
	}
}

func TestPropertyDominatesIffSubtractDefined(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 800; iter++ {
		var a, b Set
		for i := 0; i < 1+rng.Intn(3); i++ {
			a.Add(randTermFor(rng, cpuL1))
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			b.Add(randTermFor(rng, cpuL1))
		}
		_, err := a.Subtract(b)
		if dom := a.Dominates(b); dom != (err == nil) {
			t.Fatalf("iter %d: Dominates=%v but Subtract err=%v", iter, dom, err)
		}
	}
}

func BenchmarkSetUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	sets := make([]Set, 16)
	for i := range sets {
		var s Set
		for j := 0; j < 16; j++ {
			s.Add(randTermFor(rng, cpuL1))
		}
		sets[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sets[i%16].Union(sets[(i+1)%16])
	}
}

func BenchmarkSetConsume(b *testing.B) {
	base := NewSet(NewTerm(u(1000000), cpuL1, interval.New(0, 1<<40)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := interval.New(interval.Time(i), interval.Time(i)+1)
		if err := base.Consume(cpuL1, span, u(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMesh(t *testing.T) {
	locs := Locations(3)
	if len(locs) != 3 || locs[0] != "l1" || locs[2] != "l3" {
		t.Fatalf("Locations(3) = %v", locs)
	}
	theta := Mesh(locs, 4, 1, 100)
	if got := len(theta.Types()); got != 3+6 {
		t.Fatalf("mesh of 3 locations has %d located types, want 3 cpu + 6 links", got)
	}
	if got := theta.RateAt(CPUAt("l2"), 50); got != FromUnits(4) {
		t.Errorf("cpu@l2 rate %v, want 4", got)
	}
	if got := theta.RateAt(Link("l3", "l1"), 99); got != FromUnits(1) {
		t.Errorf("link l3>l1 rate %v, want 1", got)
	}
	if got := len(Mesh(locs, 4, 0, 100).Types()); got != 3 {
		t.Errorf("a zero link rate should leave links out, got %d types", got)
	}
}
