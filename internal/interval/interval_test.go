package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndEmpty(t *testing.T) {
	tests := []struct {
		name      string
		iv        Interval
		wantEmpty bool
		wantLen   Time
	}{
		{"proper", New(0, 3), false, 3},
		{"unit", New(5, 6), false, 1},
		{"zero value", Interval{}, true, 0},
		{"inverted", New(3, 0), true, 0},
		{"degenerate", New(2, 2), true, 0},
		{"span", New(10, 14), false, 4},
		{"negative start", New(-5, -2), false, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Empty(); got != tt.wantEmpty {
				t.Errorf("Empty() = %v, want %v", got, tt.wantEmpty)
			}
			if got := tt.iv.Len(); got != tt.wantLen {
				t.Errorf("Len() = %d, want %d", got, tt.wantLen)
			}
		})
	}
}

func TestContains(t *testing.T) {
	iv := New(2, 5)
	for _, tc := range []struct {
		t    Time
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}, {6, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestContainsInterval(t *testing.T) {
	iv := New(2, 8)
	tests := []struct {
		other Interval
		want  bool
	}{
		{New(2, 8), true},
		{New(3, 7), true},
		{New(2, 3), true},
		{New(1, 3), false},
		{New(7, 9), false},
		{Interval{}, true}, // empty contained in everything
		{New(9, 9), true},
	}
	for _, tc := range tests {
		if got := iv.ContainsInterval(tc.other); got != tc.want {
			t.Errorf("ContainsInterval(%v) = %v, want %v", tc.other, got, tc.want)
		}
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want Interval
	}{
		{New(0, 5), New(3, 8), New(3, 5)},
		{New(0, 5), New(5, 8), Interval{}},
		{New(0, 5), New(6, 8), Interval{}},
		{New(0, 10), New(2, 4), New(2, 4)},
		{New(3, 3), New(0, 10), Interval{}},
	}
	for _, tc := range tests {
		got := tc.a.Intersect(tc.b)
		if !got.Equal(tc.want) {
			t.Errorf("%v ∩ %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		// Intersection is commutative.
		if rev := tc.b.Intersect(tc.a); !rev.Equal(got) {
			t.Errorf("intersect not commutative: %v vs %v", got, rev)
		}
	}
}

func TestSubtract(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want []Interval
	}{
		{"no overlap", New(0, 3), New(5, 8), []Interval{New(0, 3)}},
		{"hole in middle", New(0, 10), New(3, 6), []Interval{New(0, 3), New(6, 10)}},
		{"cut left", New(0, 10), New(-2, 4), []Interval{New(4, 10)}},
		{"cut right", New(0, 10), New(7, 12), []Interval{New(0, 7)}},
		{"swallowed", New(3, 6), New(0, 10), nil},
		{"empty minuend", Interval{}, New(0, 10), nil},
		{"empty subtrahend", New(0, 3), Interval{}, []Interval{New(0, 3)}},
		{"exact", New(2, 5), New(2, 5), nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.Subtract(tc.b)
			if len(got) != len(tc.want) {
				t.Fatalf("Subtract = %v, want %v", got, tc.want)
			}
			for i := range got {
				if !got[i].Equal(tc.want[i]) {
					t.Errorf("piece %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestHullClamp(t *testing.T) {
	if got := New(0, 3).Hull(New(7, 9)); !got.Equal(New(0, 9)) {
		t.Errorf("Hull = %v, want (0,9)", got)
	}
	if got := (Interval{}).Hull(New(7, 9)); !got.Equal(New(7, 9)) {
		t.Errorf("Hull with empty = %v, want (7,9)", got)
	}
	if got := New(0, 10).ClampStart(4); !got.Equal(New(4, 10)) {
		t.Errorf("ClampStart = %v, want (4,10)", got)
	}
	if got := New(0, 10).ClampStart(12); !got.Empty() {
		t.Errorf("ClampStart past end should be empty, got %v", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []Interval{New(0, 3), New(-5, 7), {}, New(3, Infinity)}
	for _, iv := range cases {
		got, err := Parse(iv.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", iv.String(), err)
		}
		if !got.Equal(iv) {
			t.Errorf("round trip %v -> %q -> %v", iv, iv.String(), got)
		}
	}
	for _, bad := range []string{"", "(", "(1)", "(a,b)", "1,2", "(1,2", "(,)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// randInterval yields a non-empty interval with small coordinates so that
// every qualitative configuration is exercised.
func randInterval(rng *rand.Rand) Interval {
	start := Time(rng.Intn(12))
	return Interval{Start: start, End: start + 1 + Time(rng.Intn(6))}
}

func TestPropertyIntersectSubtractPartition(t *testing.T) {
	// For all a, b: a = (a ∩ b) ⊎ (a \ b) as a partition of ticks.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randInterval(rng), randInterval(rng)
		ov := a.Intersect(b)
		rest := a.Subtract(b)
		var total Time = ov.Len()
		for _, r := range rest {
			total += r.Len()
			if r.Overlaps(b) {
				t.Fatalf("a=%v b=%v: piece %v overlaps b", a, b, r)
			}
			if !a.ContainsInterval(r) {
				t.Fatalf("a=%v b=%v: piece %v escapes a", a, b, r)
			}
		}
		if total != a.Len() {
			t.Fatalf("a=%v b=%v: partition lengths %d != %d", a, b, total, a.Len())
		}
	}
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(as, al, bs, bl uint8) bool {
		a := New(Time(as), Time(as)+Time(al%16))
		b := New(Time(bs), Time(bs)+Time(bl%16))
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHullContainsBoth(t *testing.T) {
	f := func(as, al, bs, bl uint8) bool {
		a := New(Time(as), Time(as)+1+Time(al%16))
		b := New(Time(bs), Time(bs)+1+Time(bl%16))
		h := a.Hull(b)
		return h.ContainsInterval(a) && h.ContainsInterval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
