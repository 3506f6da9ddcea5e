package resource

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/interval"
)

// Generate implements quick.Generator so testing/quick can synthesize
// random (valid, non-null) resource terms directly.
func (Term) Generate(rng *rand.Rand, size int) reflect.Value {
	if size < 2 {
		size = 2
	}
	locs := []Location{"l1", "l2", "l3"}
	var lt LocatedType
	if rng.Intn(3) == 0 {
		src := locs[rng.Intn(len(locs))]
		dst := src
		for dst == src {
			dst = locs[rng.Intn(len(locs))]
		}
		lt = Link(src, dst)
	} else {
		lt = CPUAt(locs[rng.Intn(len(locs))])
	}
	start := interval.Time(rng.Intn(size))
	length := 1 + interval.Time(rng.Intn(size))
	rate := FromUnits(1 + rng.Int63n(int64(size)))
	return reflect.ValueOf(NewTerm(rate, lt, interval.New(start, start+length)))
}

func TestQuickUnionCommutesAndAssociates(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	commutes := func(a, b, c Term) bool {
		x := NewSet(a, b, c)
		y := NewSet(c, a, b)
		return x.Equal(y)
	}
	if err := quick.Check(commutes, cfg); err != nil {
		t.Error(err)
	}
	associates := func(a, b, c, d Term) bool {
		left := NewSet(a, b).Union(NewSet(c, d))
		right := NewSet(a).Union(NewSet(b, c).Union(NewSet(d)))
		return left.Equal(right)
	}
	if err := quick.Check(associates, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionMonotoneInQuantity(t *testing.T) {
	f := func(a, b Term, windowStart uint8) bool {
		w := interval.New(interval.Time(windowStart), interval.Time(windowStart)+16)
		s := NewSet(a)
		u := s.Union(NewSet(b))
		// Union can only add capacity.
		return u.QuantityWithin(a.Type, w) >= s.QuantityWithin(a.Type, w) &&
			u.QuantityWithin(b.Type, w) >= NewSet(b).QuantityWithin(b.Type, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickDominanceImpliesCoverage(t *testing.T) {
	// Term dominance (the paper's >) implies set coverage, and subtracting
	// the dominated term succeeds.
	f := func(big Term, rateCut, spanCut uint8) bool {
		if big.Null() || big.Span.Len() < 2 {
			return true
		}
		small := NewTerm(
			big.Rate-Rate(rateCut)%big.Rate,
			big.Type,
			interval.New(big.Span.Start, big.Span.End-interval.Time(spanCut%uint8(big.Span.Len()))),
		)
		if small.Null() {
			return true
		}
		if !big.Dominates(small) {
			return false
		}
		s := NewSet(big)
		if !covers(s, small) {
			return false
		}
		_, err := s.Subtract(NewSet(small))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickTrimPartitionsQuantity(t *testing.T) {
	// TrimBefore splits total quantity exactly: expired + remaining = all.
	f := func(a, b Term, cutRaw uint8) bool {
		s := NewSet(a, b)
		window := interval.New(interval.NegInfinity/2, interval.Infinity/2)
		totalBefore := Quantity(0)
		for _, q := range totalQuantity(s, window) {
			totalBefore += q
		}
		cut := interval.Time(cutRaw % 32)
		expired := s.TrimBefore(cut)
		totalAfter := Quantity(0)
		for _, q := range totalQuantity(s, window) {
			totalAfter += q
		}
		totalExpired := Quantity(0)
		for _, q := range totalQuantity(expired, window) {
			totalExpired += q
		}
		return totalBefore == totalAfter+totalExpired
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
