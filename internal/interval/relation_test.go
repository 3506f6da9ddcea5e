package interval

import (
	"math/rand"
	"testing"
)

func TestRelationBetweenTableI(t *testing.T) {
	// One concrete witness per row of the paper's Table I.
	tests := []struct {
		name string
		a, b Interval
		want Relation
	}{
		{"before", New(0, 2), New(4, 6), Before},
		{"after", New(4, 6), New(0, 2), After},
		{"equal", New(1, 5), New(1, 5), Equal},
		{"during", New(2, 4), New(0, 6), During},
		{"contains", New(0, 6), New(2, 4), Contains},
		{"meets", New(0, 3), New(3, 6), Meets},
		{"met-by", New(3, 6), New(0, 3), MetBy},
		{"overlaps", New(0, 4), New(2, 6), OverlapsWith},
		{"overlapped-by", New(2, 6), New(0, 4), OverlappedBy},
		{"starts", New(0, 3), New(0, 6), Starts},
		{"started-by", New(0, 6), New(0, 3), StartedBy},
		{"finishes", New(3, 6), New(0, 6), Finishes},
		{"finished-by", New(0, 6), New(3, 6), FinishedBy},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RelationBetween(tt.a, tt.b); got != tt.want {
				t.Errorf("RelationBetween(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestRelationBetweenPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty interval")
		}
	}()
	RelationBetween(Interval{}, New(0, 3))
}

func TestConverseInvolution(t *testing.T) {
	for _, r := range AllRelations {
		if got := r.Converse().Converse(); got != r {
			t.Errorf("%v.Converse().Converse() = %v", r, got)
		}
	}
	if Equal.Converse() != Equal {
		t.Error("Equal must be its own converse")
	}
}

func TestPropertyExactlyOneRelation(t *testing.T) {
	// JEPD: the thirteen relations are jointly exhaustive and pairwise
	// disjoint — exactly one holds for any pair of proper intervals, and
	// the converse relation holds in the reverse direction.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		a, b := randInterval(rng), randInterval(rng)
		r := RelationBetween(a, b)
		if !r.Valid() {
			t.Fatalf("invalid relation for %v, %v", a, b)
		}
		if back := RelationBetween(b, a); back != r.Converse() {
			t.Fatalf("converse violated: rel(%v,%v)=%v but rel(%v,%v)=%v",
				a, b, r, b, a, back)
		}
	}
}

func TestRelationStringAndSymbol(t *testing.T) {
	for _, r := range AllRelations {
		if r.String() == "" || r.Symbol() == "?" {
			t.Errorf("relation %d missing name or symbol", r)
		}
	}
	if Relation(0).Valid() {
		t.Error("zero relation must be invalid")
	}
	if Relation(0).String() != "Relation(0)" {
		t.Errorf("zero relation String = %q", Relation(0).String())
	}
	if Relation(99).Symbol() != "?" {
		t.Error("invalid relation should render ? symbol")
	}
}

// count returns the number of relations in s.
func count(s RelSet) int {
	n := 0
	for _, r := range AllRelations {
		if s.Has(r) {
			n++
		}
	}
	return n
}

func TestRelSetBasics(t *testing.T) {
	s := NewRelSet(Before, Meets)
	if !s.Has(Before) || !s.Has(Meets) || s.Has(After) {
		t.Errorf("membership wrong in %v", s)
	}
	if n := count(s); n != 2 {
		t.Errorf("%d members, want 2", n)
	}
	if !EmptyRelSet.IsEmpty() {
		t.Error("EmptyRelSet should be empty")
	}
	if n := count(FullRelSet); n != 13 {
		t.Errorf("FullRelSet has %d members, want 13", n)
	}
	if got := s.String(); got != "{before,meets}" {
		t.Errorf("String = %q", got)
	}
	// Add of invalid relation is a no-op.
	if s.Add(Relation(0)) != s || s.Add(Relation(99)) != s {
		t.Error("adding invalid relation should not change the set")
	}
}

func TestRelSetOps(t *testing.T) {
	a := NewRelSet(Before, Meets, During)
	b := NewRelSet(Meets, During, After)
	if got := a.Intersect(b); got != NewRelSet(Meets, During) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != NewRelSet(Before, Meets, During, After) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Converse(); got != NewRelSet(After, MetBy, Contains) {
		t.Errorf("Converse = %v", got)
	}
	if got := FullRelSet.Converse(); got != FullRelSet {
		t.Errorf("FullRelSet converse = %v", got)
	}
}
