package resource

import (
	"math/rand"
	"testing"

	"repro/internal/interval"
)

func TestSubtractSaturatingBasics(t *testing.T) {
	s := NewSet(NewTerm(u(5), cpuL1, interval.New(0, 10)))

	// Partial overlap, partial rate.
	got := s.SubtractSaturating(NewSet(NewTerm(u(2), cpuL1, interval.New(4, 8))))
	want := NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 4)),
		NewTerm(u(3), cpuL1, interval.New(4, 8)),
		NewTerm(u(5), cpuL1, interval.New(8, 10)),
	)
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}

	// Over-withdrawal clamps at zero instead of failing.
	got = s.SubtractSaturating(NewSet(NewTerm(u(50), cpuL1, interval.New(2, 6))))
	want = NewSet(
		NewTerm(u(5), cpuL1, interval.New(0, 2)),
		NewTerm(u(5), cpuL1, interval.New(6, 10)),
	)
	if !got.Equal(want) {
		t.Errorf("over-withdrawal: got %v, want %v", got, want)
	}

	// Absent type is a no-op.
	got = s.SubtractSaturating(NewSet(NewTerm(u(3), netL12, interval.New(0, 5))))
	if !got.Equal(s) {
		t.Errorf("absent type changed set: %v", got)
	}

	// Receiver unchanged (pure operation).
	if s.MinRate(cpuL1, interval.New(5, 6)) != u(5) {
		t.Error("SubtractSaturating mutated receiver")
	}
}

func TestPropertySubtractSaturatingPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 600; iter++ {
		var a, b Set
		for i := 0; i < 1+rng.Intn(4); i++ {
			a.Add(randTermFor(rng, cpuL1))
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			b.Add(randTermFor(rng, cpuL1))
		}
		got := a.SubtractSaturating(b)
		for tick := interval.Time(0); tick < 24; tick++ {
			want := a.MinRate(cpuL1, interval.New(tick, tick+1)) - b.MinRate(cpuL1, interval.New(tick, tick+1))
			if want < 0 {
				want = 0
			}
			if have := got.MinRate(cpuL1, interval.New(tick, tick+1)); have != want {
				t.Fatalf("iter %d tick %d: got %d want %d (a=%v b=%v)",
					iter, tick, have, want, a, b)
			}
		}
	}
}

func TestSubtractSaturatingAgreesWithSubtractWhenDefined(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 400; iter++ {
		var a Set
		for i := 0; i < 1+rng.Intn(4); i++ {
			a.Add(randTermFor(rng, cpuL1))
		}
		terms := a.Terms()
		if len(terms) == 0 {
			continue
		}
		pick := terms[rng.Intn(len(terms))]
		b := NewSet(NewTerm(pick.Rate/2, pick.Type, pick.Span))
		exact, err := a.Subtract(b)
		if err != nil {
			continue
		}
		if got := a.SubtractSaturating(b); !got.Equal(exact) {
			t.Fatalf("iter %d: saturating %v != exact %v", iter, got, exact)
		}
	}
}
