package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs 1000 samples, a p50 needs 20.
const minBeyond = 10

// numSlices is how many parts of a run a tail percentile is taken over.
const numSlices = 5

// percentile returns the q-quantile (0 < q < 1) of sorted, by linear
// interpolation between closest ranks. It refuses — returns an error,
// never a number — when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	beyond := float64(n) * math.Min(q, 1-q)
	if beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has only %.1f beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}

// median sorts a copy and returns the middle value with no sample-count
// condition: it digests repeated measurements (set-ups, passes, slices),
// not a latency distribution.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// slicedTail is the tail percentile that one GC cycle or scheduler
// hiccup cannot set. Each sequence holds one client's samples in the
// order taken; every sequence is cut into numSlices consecutive parts of
// equal count (fewer when a part would hold too few samples for the
// percentile), part g of every client is pooled — closed-loop clients
// keep pace, so that is about the g-th fifth of the run — each pool's
// percentile is taken, and the median of those is returned with the
// total sample count.
func slicedTail(inOrder [][]float64, q float64) (float64, int, error) {
	total := 0
	for _, seq := range inOrder {
		total += len(seq)
	}
	need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	k := numSlices
	for k > 1 && total/k < need {
		k--
	}
	tails := make([]float64, 0, k)
	for g := 0; g < k; g++ {
		var part []float64
		for _, seq := range inOrder {
			part = append(part, seq[g*len(seq)/k:(g+1)*len(seq)/k]...)
		}
		sort.Float64s(part)
		v, err := percentile(part, q)
		if err != nil {
			return 0, total, err
		}
		tails = append(tails, v)
	}
	return median(tails), total, nil
}

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1]*(1-frac) + s[j]*frac
	}
	return at(1), at(2), at(3)
}
