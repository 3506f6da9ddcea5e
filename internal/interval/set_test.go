package interval

import (
	"math/rand"
	"testing"
)

func TestNewSetNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"empty", nil, nil},
		{"drops empties", []Interval{{}, New(3, 3)}, nil},
		{"sorts", []Interval{New(5, 7), New(0, 2)}, []Interval{New(0, 2), New(5, 7)}},
		{"merges overlap", []Interval{New(0, 4), New(2, 6)}, []Interval{New(0, 6)}},
		{"merges adjacency", []Interval{New(0, 3), New(3, 6)}, []Interval{New(0, 6)}},
		{"keeps gaps", []Interval{New(0, 2), New(4, 6)}, []Interval{New(0, 2), New(4, 6)}},
		{"swallows nested", []Interval{New(0, 10), New(3, 5)}, []Interval{New(0, 10)}},
		{
			"chain",
			[]Interval{New(8, 9), New(0, 2), New(1, 4), New(4, 5), New(7, 8)},
			[]Interval{New(0, 5), New(7, 9)},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewSet(tt.in...).Intervals()
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("piece %d: got %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestSetQueries(t *testing.T) {
	s := NewSet(New(0, 3), New(5, 9))
	if s.Empty() {
		t.Error("set should not be empty")
	}
	if got := s.Len(); got != 7 {
		t.Errorf("Len = %d, want 7", got)
	}
	if got := len(s.Intervals()); got != 2 {
		t.Errorf("%d maximal intervals, want 2", got)
	}
	if !s.Contains(0) || !s.Contains(2) || s.Contains(3) || s.Contains(4) || !s.Contains(8) || s.Contains(9) {
		t.Error("Contains misclassifies ticks")
	}
	if !s.ContainsInterval(New(5, 9)) || !s.ContainsInterval(New(6, 8)) {
		t.Error("ContainsInterval should accept covered intervals")
	}
	if s.ContainsInterval(New(2, 6)) {
		t.Error("ContainsInterval must reject gap-spanning interval")
	}
	if !s.ContainsInterval(Interval{}) {
		t.Error("empty interval is always contained")
	}
	if got := s.Hull(); !got.Equal(New(0, 9)) {
		t.Errorf("Hull = %v", got)
	}
	if got := (Set{}).Hull(); !got.Empty() {
		t.Errorf("empty set hull = %v", got)
	}
}

func TestSetUnionIntersectSubtract(t *testing.T) {
	a := NewSet(New(0, 4), New(6, 10))
	b := NewSet(New(3, 7), New(9, 12))
	if got, want := a.Union(b), NewSet(New(0, 12)); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), NewSet(New(3, 4), New(6, 7), New(9, 10)); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Subtract(b), NewSet(New(0, 3), New(7, 9)); !got.Equal(want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	if got := a.Subtract(a); !got.Empty() {
		t.Errorf("a \\ a = %v, want empty", got)
	}
	if got := a.Clamp(New(2, 8)); !got.Equal(NewSet(New(2, 4), New(6, 8))) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestSetString(t *testing.T) {
	if got := (Set{}).String(); got != "(∅)" {
		t.Errorf("empty set String = %q", got)
	}
	if got := NewSet(New(0, 2), New(4, 6)).String(); got != "(0,2)∪(4,6)" {
		t.Errorf("String = %q", got)
	}
}

func randSet(rng *rand.Rand) Set {
	n := rng.Intn(5)
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = randInterval(rng)
	}
	return NewSet(ivs...)
}

func TestPropertySetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const horizon = 24
	covered := func(s Set, t Time) bool { return s.Contains(t) }
	for i := 0; i < 1500; i++ {
		a, b := randSet(rng), randSet(rng)
		u := a.Union(b)
		x := a.Intersect(b)
		d := a.Subtract(b)
		for tick := Time(0); tick < horizon; tick++ {
			inA, inB := covered(a, tick), covered(b, tick)
			if got := covered(u, tick); got != (inA || inB) {
				t.Fatalf("union wrong at %d: a=%v b=%v", tick, a, b)
			}
			if got := covered(x, tick); got != (inA && inB) {
				t.Fatalf("intersect wrong at %d: a=%v b=%v", tick, a, b)
			}
			if got := covered(d, tick); got != (inA && !inB) {
				t.Fatalf("subtract wrong at %d: a=%v b=%v", tick, a, b)
			}
		}
		// Normalization invariants: sorted, disjoint, non-adjacent.
		for _, s := range []Set{u, x, d} {
			ivs := s.Intervals()
			for k := 1; k < len(ivs); k++ {
				if ivs[k].Start <= ivs[k-1].End {
					t.Fatalf("set not normalized: %v", s)
				}
			}
		}
		// Union is commutative; subtract then union restores a.
		if !u.Equal(b.Union(a)) {
			t.Fatalf("union not commutative: %v vs %v", u, b.Union(a))
		}
		if !d.Union(x).Equal(a.Intersect(a)) && !d.Union(x).Equal(a) {
			t.Fatalf("(a\\b) ∪ (a∩b) != a for a=%v b=%v", a, b)
		}
	}
}

func BenchmarkSetUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sets := make([]Set, 32)
	for i := range sets {
		sets[i] = randSet(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sets[i%32].Union(sets[(i+1)%32])
	}
}
