package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Summary().Count != 0 {
		t.Fatal("fresh histogram not empty")
	}
	s := h.Summary()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..10000: quantiles are known, log-linear buckets promise
	// ~6% relative error.
	for v := 1; v <= 10000; v++ {
		h.Observe(float64(v))
	}
	s := h.Summary()
	for _, tc := range []struct{ p, got, want float64 }{
		{50, s.P50, 5000}, {90, s.P90, 9000}, {99, s.P99, 9900},
	} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.07 {
			t.Errorf("p%v = %v, want within 7%% of %v", tc.p, tc.got, tc.want)
		}
	}
	if s.Min != 1 || s.Max != 10000 || s.Count != 10000 {
		t.Errorf("summary extremes wrong: %+v", s)
	}
	if math.Abs(s.Mean-5000.5) > 0.5 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestHistogramClampsJunk(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(0.25)
	h.Observe(math.MaxFloat64) // far beyond the top bucket
	if n := h.Summary().Count; n != 4 {
		t.Fatalf("count = %d", n)
	}
	// The extremes are exact; a quantile lands in the top bucket.
	s := h.Summary()
	if s.Max != math.MaxFloat64 {
		t.Errorf("summary max = %v", s.Max)
	}
	if top := bucketValue(histBuckets - 1); s.P99 != top {
		t.Errorf("p99 = %v, want the top bucket's %v", s.P99, top)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if n := h.Summary().Count; n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
}

func TestHistogramInfDoesNotPoisonSum(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	s := h.Summary()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.IsInf(s.Mean, 0) || math.IsNaN(s.Mean) {
		t.Fatalf("mean poisoned by infinite observation: %v", s.Mean)
	}
	if math.IsInf(s.Max, 0) {
		t.Fatalf("max poisoned: %v", s.Max)
	}
	if s.Min != 0 {
		t.Fatalf("-Inf not clamped to smallest bucket: min = %v", s.Min)
	}
}
