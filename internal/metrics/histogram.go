package metrics

import (
	"math"
	"sync"
)

// Histogram is a concurrency-safe log-linear histogram for latency-style
// measurements: 64 power-of-two major buckets, each split into 16 linear
// minor buckets, so quantile estimates carry at most ~6% relative error
// while the whole structure stays a fixed 8 KiB. Observe is safe to call
// from many goroutines; the zero value is not usable — use NewHistogram.
type Histogram struct {
	mu      sync.Mutex
	buckets []uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

const (
	histMinors  = 16
	histMajors  = 64
	histBuckets = histMajors * histMinors
)

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, histBuckets)}
}

// bucketIndex maps a value to its log-linear bucket. Values below 1 land
// in bucket 0; the unit is the caller's choice (the server records
// microseconds).
func bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	major := int(math.Floor(math.Log2(v)))
	if major >= histMajors {
		return histBuckets - 1
	}
	scale := math.Ldexp(1, major) // 2^major
	minor := int((v/scale - 1) * histMinors)
	if minor < 0 {
		minor = 0
	}
	if minor >= histMinors {
		minor = histMinors - 1
	}
	return major*histMinors + minor
}

// bucketValue is the representative (midpoint) value of a bucket.
func bucketValue(idx int) float64 {
	major := idx / histMinors
	minor := idx % histMinors
	scale := math.Ldexp(1, major)
	return scale * (1 + (float64(minor)+0.5)/histMinors)
}

// Observe records one measurement. Negative, NaN and -Inf values are
// clamped into the smallest bucket; +Inf is clamped to the largest
// bucket's representative value so a single stray observation cannot
// poison sum (and with it Mean) into a permanent +Inf.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 { // v < 0 also catches -Inf
		v = 0
	}
	if math.IsInf(v, 1) {
		v = bucketValue(histBuckets - 1)
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	h.buckets[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSummary is a point-in-time digest of a histogram, and the one
// shape every latency or slack digest takes on /v1/stats and /metrics.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram under one lock acquisition.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{Count: h.count, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(50)
	s.P90 = h.quantileLocked(90)
	s.P99 = h.quantileLocked(99)
	return s
}

func (h *Histogram) quantileLocked(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for idx, n := range h.buckets {
		cum += n
		if cum >= rank {
			v := bucketValue(idx)
			// The estimate cannot exceed the observed extremes.
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}
