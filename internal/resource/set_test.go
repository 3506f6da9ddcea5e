package resource

import (
	"errors"
	"math"
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
	if s.MinRate(cpuL1, interval.New(2, 3)) != u(5) || s.MinRate(netL12, interval.New(4, 5)) != u(5) {
		t.Error("rates wrong")
	}
	if s.MinRate(cpuL1, interval.New(4, 5)) != 0 {
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

// covers reports whether s provides at least term.Rate of term.Type at
// every tick of term.Span: coverage assembled from any of s's terms.
func covers(s Set, term Term) bool {
	return term.Null() || s.profileOf(term.Type).covers(term.Span, term.Rate)
}

// totalQuantity integrates availability of every type over the window:
// the per-type reference that TotalWithin sums without building a map.
func totalQuantity(s Set, window interval.Interval) map[LocatedType]Quantity {
	out := make(map[LocatedType]Quantity)
	for _, lt := range s.Types() {
		if q := s.QuantityWithin(lt, window); q > 0 {
			out[lt] = q
		}
	}
	return out
}

func TestCoversAndMinRate(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 4)),
		NewTerm(u(2), cpuL1, interval.New(4, 8)),
	)
	if !covers(s, NewTerm(u(2), cpuL1, interval.New(0, 8))) {
		t.Error("should cover rate 2 throughout")
	}
	if covers(s, NewTerm(u(3), cpuL1, interval.New(0, 8))) {
		t.Error("rate 3 unavailable after t=4")
	}
	if !covers(s, Term{}) {
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
	total := totalQuantity(s, interval.New(0, 8))
	if total[cpuL1] != QuantityFromUnits(28) || total[netL12] != QuantityFromUnits(28) {
		t.Errorf("per-type quantity = %v", total)
	}
	// TotalWithin is the per-type quantities summed, without a map.
	for _, w := range []interval.Interval{interval.New(0, 8), interval.New(3, 5), interval.New(8, 9)} {
		var want Quantity
		for _, q := range totalQuantity(s, w) {
			want += q
		}
		if got := s.TotalWithin(w); got != want {
			t.Errorf("TotalWithin%v = %d, want %d", w, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.TotalWithin(interval.New(0, 8)) }); allocs != 0 {
		t.Errorf("TotalWithin allocates %.0f times, want 0", allocs)
	}
}

func TestConsume(t *testing.T) {
	s := NewSet(NewTerm(u(5), cpuL1, interval.New(0, 10)))
	if err := s.Consume(cpuL1, interval.New(0, 4), u(3)); err != nil {
		t.Fatal(err)
	}
	if got := s.MinRate(cpuL1, interval.New(2, 3)); got != u(2) {
		t.Errorf("after consume rate = %d", got)
	}
	if got := s.MinRate(cpuL1, interval.New(6, 7)); got != u(5) {
		t.Errorf("untouched region rate = %d", got)
	}
	if err := s.Consume(cpuL1, interval.New(0, 4), u(3)); !errors.Is(err, ErrInsufficient) {
		t.Errorf("over-consume should fail, got %v", err)
	}
	// Failed consume must not mutate.
	if got := s.MinRate(cpuL1, interval.New(2, 3)); got != u(2) {
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
	if got := s.MinRate(cpuL1, interval.New(5, 6)); got != u(5) {
		t.Errorf("future cpu rate = %d", got)
	}
	if got := s.MinRate(cpuL1, interval.New(3, 4)); got != 0 {
		t.Errorf("past cpu rate = %d, want 0", got)
	}
	if !s.profileOf(netL12).empty() {
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
	if got := s.Hull(); got != interval.New(0, 6) {
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
	if got := s.MinRate(cpuL1, interval.New(3, 4)); got != u(5) {
		t.Error("Clone shares storage with original")
	}
}

func TestSetCompactRoundTrip(t *testing.T) {
	s := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 3)),
		NewTerm(u(7), netL12, interval.New(2, 9)),
		NewTerm(u(1), At(Memory, "l3"), interval.New(1, 2)),
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
				want := a.MinRate(lt, interval.New(tick, tick+1)) + b.MinRate(lt, interval.New(tick, tick+1))
				if got := un.MinRate(lt, interval.New(tick, tick+1)); got != want {
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
	if got := theta.MinRate(CPUAt("l2"), interval.New(50, 51)); got != FromUnits(4) {
		t.Errorf("cpu@l2 rate %v, want 4", got)
	}
	if got := theta.MinRate(Link("l3", "l1"), interval.New(99, 100)); got != FromUnits(1) {
		t.Errorf("link l3>l1 rate %v, want 1", got)
	}
	if got := len(Mesh(locs, 4, 0, 100).Types()); got != 3 {
		t.Errorf("a zero link rate should leave links out, got %d types", got)
	}
}

// Availability that runs to Infinity integrates to more than a Quantity
// holds. QuantityWithin saturates at the largest Quantity instead of
// wrapping negative, so adding capacity never lowers it.
func TestQuantityWithinSaturates(t *testing.T) {
	lt := CPUAt("l1")
	all := interval.New(0, interval.Infinity)
	bounded := NewSet(NewTerm(FromUnits(3), lt, interval.New(0, 64)))
	if got, want := bounded.QuantityWithin(lt, all), QuantityFromUnits(3*64); got != want {
		t.Fatalf("3 cpu over (0,64): %d, want %d", got, want)
	}
	for name, s := range map[string]Set{
		"one segment to Infinity": bounded.Union(NewSet(NewTerm(FromUnits(3), lt, interval.New(64, interval.Infinity)))),
		"a sum past the top, each term below it": NewSet(
			NewTerm(FromUnits(1), lt, interval.New(0, 5e15)),
			NewTerm(FromUnits(2), lt, interval.New(5e15, 9e15))),
	} {
		if got := s.QuantityWithin(lt, all); got != math.MaxInt64 {
			t.Errorf("%s: %s integrates to %d, want the largest Quantity", name, s.Compact(), got)
		}
	}
}

// DominatesWithin agrees with a per-tick comparison confined to each of
// within's types and the hull of its availability, and is Dominates when
// within covers everything other holds.
func TestPropertyDominatesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	types := []LocatedType{cpuL1, netL12, CPUAt("l2")}
	randSet := func(max int) Set {
		var s Set
		for i := 0; i < rng.Intn(max+1); i++ {
			s.Add(randTermFor(rng, types[rng.Intn(len(types))]))
		}
		return s
	}
	var seen [2]int
	for iter := 0; iter < 2000; iter++ {
		a, b, w := randSet(4), randSet(4), randSet(2)
		want := true
		for _, lt := range types {
			hull := w.Restrict(interval.New(interval.NegInfinity, interval.Infinity), lt).Hull()
			for tick := hull.Start; tick < hull.End; tick++ {
				if a.MinRate(lt, interval.New(tick, tick+1)) < b.MinRate(lt, interval.New(tick, tick+1)) {
					want = false
				}
			}
		}
		if got := a.DominatesWithin(b, w); got != want {
			t.Fatalf("iter %d: DominatesWithin(%v, within %v) of %v = %v, want %v", iter, b, w, a, got, want)
		}
		if want {
			seen[1]++
		} else {
			seen[0]++
		}
		if got, want := a.DominatesWithin(b, b), a.Dominates(b); got != want {
			t.Fatalf("iter %d: DominatesWithin(b, b) = %v, Dominates = %v (a=%v b=%v)", iter, got, want, a, b)
		}
	}
	if seen[0] < 100 || seen[1] < 100 {
		t.Fatalf("fixture: %d refusals and %d passes; both outcomes need exercising", seen[0], seen[1])
	}
}

// DominatesWithin allocates nothing, on chunked profiles too.
func TestDominatesWithinAllocatesNothing(t *testing.T) {
	var theta, free, part Set
	theta.Add(patchTerm(4, cpuL1, 0, 1000))
	for i := interval.Time(0); i < 200; i++ {
		free.Add(patchTerm(1+int64(i%3), cpuL1, 5*i, 5*i+3))
	}
	part.Add(patchTerm(1, cpuL1, 400, 700))
	if !theta.DominatesWithin(free.Union(part), part) {
		t.Fatal("fixture: theta should dominate free ∪ part")
	}
	if allocs := testing.AllocsPerRun(100, func() { theta.DominatesWithin(free, part) }); allocs != 0 {
		t.Fatalf("DominatesWithin allocates %.1f per call, want 0", allocs)
	}
}
