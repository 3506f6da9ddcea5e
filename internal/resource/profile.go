package resource

import (
	"repro/internal/interval"
)

// segment is one step of a rate step-function: a constant positive rate
// over a non-empty interval.
type segment struct {
	span interval.Interval
	rate Rate
}

// profile is a normalized step function of availability rate over time for
// a single located type: segments are sorted, disjoint, carry positive
// rates, and adjacent segments with equal rates are merged. The zero value
// is the everywhere-zero profile.
//
// A profile is immutable once built: no operation writes into segs, every
// operation that changes anything returns fresh storage, and an operation
// that changes nothing returns its operand. Profiles — and so the sets
// holding them — may therefore share segment storage freely.
type profile struct {
	segs []segment
}

// empty reports whether the profile is zero everywhere.
func (p profile) empty() bool {
	return len(p.segs) == 0
}

// search returns the index of the first segment ending after tick t —
// the segment containing t, or else the first one starting after it.
func (p profile) search(t interval.Time) int {
	lo, hi := 0, len(p.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.segs[mid].span.End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// rateAt returns the rate available at tick t.
func (p profile) rateAt(t interval.Time) Rate {
	if i := p.search(t); i < len(p.segs) && p.segs[i].span.Contains(t) {
		return p.segs[i].rate
	}
	return 0
}

// spliceOp selects what splice does where its operands overlap.
type spliceOp uint8

const (
	opAdd         spliceOp = iota // p + q
	opSub                         // p − q, undefined where q exceeds p
	opSubSaturate                 // max(p − q, 0)
)

// emitter receives the output steps of a sweep in time order, dropping
// zero rates and coalescing a step into its predecessor when they abut at
// equal rates. It counts the resulting segments and, when dst is non-nil,
// appends them to it.
type emitter struct {
	dst  []segment
	n    int
	last segment
	open bool
}

func (e *emitter) emit(start, end interval.Time, rate Rate) {
	if rate == 0 {
		return
	}
	if e.open && e.last.rate == rate && e.last.span.End == start {
		e.last.span.End = end
		return
	}
	e.flush()
	e.last, e.open = segment{span: interval.New(start, end), rate: rate}, true
}

func (e *emitter) flush() {
	if !e.open {
		return
	}
	e.n++
	if e.dst != nil {
		e.dst = append(e.dst, e.last)
	}
	e.open = false
}

// sweep walks two sorted, disjoint segment lists in step and emits p ⊕ q
// over their joint extent. It reports false when op is opSub and q
// exceeds p somewhere (the complement is undefined there).
func sweep(e *emitter, p, q []segment, op spliceOp) bool {
	i, j := 0, 0
	t := interval.NegInfinity // the first step runs, at rate zero, up to the earliest start
	for i < len(p) || j < len(q) {
		// The rates in force on [t, next), next being the nearest boundary
		// of either operand after t.
		var pr, qr Rate
		next := interval.Infinity
		if i < len(p) {
			if p[i].span.Start <= t {
				pr, next = p[i].rate, p[i].span.End
			} else {
				next = p[i].span.Start
			}
		}
		if j < len(q) {
			b := q[j].span.Start
			if b <= t {
				qr, b = q[j].rate, q[j].span.End
			}
			if b < next {
				next = b
			}
		}
		r := pr + qr
		if op != opAdd {
			if r = pr - qr; r < 0 {
				if op == opSub {
					return false
				}
				r = 0
			}
		}
		e.emit(t, next, r)
		t = next
		if i < len(p) && p[i].span.End <= t {
			i++
		}
		if j < len(q) && q[j].span.End <= t {
			j++
		}
	}
	e.flush()
	return true
}

// splice returns p ⊕ q for q a sorted list of disjoint positive segments
// (a normalized profile's, or a planner's allocations of one type). Only
// the stretch of p that q's extent overlaps or abuts is recomputed, by a
// two-pointer sweep; the segments before and after it are copied in bulk
// into one exactly-sized allocation. ok is false when op is opSub and p
// does not cover q.
func (p profile) splice(q []segment, op spliceOp) (out profile, ok bool) {
	if len(q) == 0 {
		return p, true
	}
	qStart, qEnd := q[0].span.Start, q[len(q)-1].span.End
	// p.segs[lo:hi] are the segments ending at or after q begins and
	// starting at or before it ends. A segment outside that range neither
	// overlaps q nor can coalesce with anything the sweep emits: there is
	// a gap, or a rate change inside p, between it and the touched range.
	lo := p.search(qStart - 1)
	hi := lo
	for hi < len(p.segs) && p.segs[hi].span.Start <= qEnd {
		hi++
	}
	touched := p.segs[lo:hi]
	if len(touched) == 0 && op == opSubSaturate {
		return p, true
	}
	var count emitter
	if !sweep(&count, touched, q, op) {
		return profile{}, false
	}
	total := lo + count.n + len(p.segs) - hi
	if total == 0 {
		return profile{}, true
	}
	fill := emitter{dst: append(make([]segment, 0, total), p.segs[:lo]...)}
	sweep(&fill, touched, q, op)
	return profile{segs: append(fill.dst, p.segs[hi:]...)}, true
}

// add merges another step (span, rate) into the profile, summing rates
// where they overlap. Negative rates are rejected by callers; add itself
// assumes rate > 0.
func (p profile) add(span interval.Interval, rate Rate) profile {
	if span.Empty() || rate == 0 {
		return p
	}
	out, _ := p.splice([]segment{{span: span, rate: rate}}, opAdd)
	return out
}

// merge returns the point-wise sum of two profiles (resource-set union
// restricted to one located type). Merging with the zero profile returns
// the other operand itself.
func (p profile) merge(q profile) profile {
	if p.empty() {
		return q
	}
	out, _ := p.splice(q.segs, opAdd)
	return out
}

// each calls fn for every segment's part inside the window, in time
// order, until fn returns false.
func (p profile) each(window interval.Interval, fn func(interval.Interval, Rate) bool) {
	if window.Empty() {
		return
	}
	for _, s := range p.segs[p.search(window.Start):] {
		if s.span.Start >= window.End {
			return
		}
		if !fn(s.span.Intersect(window), s.rate) {
			return
		}
	}
}

// quantity integrates the profile over the window.
func (p profile) quantity(window interval.Interval) Quantity {
	if window.Empty() {
		return 0
	}
	var total Quantity
	for _, s := range p.segs[p.search(window.Start):] {
		if s.span.Start >= window.End {
			break
		}
		total += Quantity(s.rate) * Quantity(s.span.Intersect(window).Len())
	}
	return total
}

// minRate returns the minimum rate over every tick of the window; a gap in
// coverage yields zero. An empty window yields zero.
func (p profile) minRate(window interval.Interval) Rate {
	if window.Empty() {
		return 0
	}
	var minSeen Rate
	cursor := window.Start
	for _, s := range p.segs[p.search(window.Start):] {
		if s.span.Start > cursor {
			return 0 // gap inside the window
		}
		if cursor == window.Start || s.rate < minSeen {
			minSeen = s.rate
		}
		cursor = s.span.End
		if cursor >= window.End {
			return minSeen
		}
	}
	return 0 // window extends past the last segment
}

// covers reports whether the profile provides at least rate at every tick
// of span.
func (p profile) covers(span interval.Interval, rate Rate) bool {
	if span.Empty() || rate <= 0 {
		return true
	}
	return p.minRate(span) >= rate
}

// clamp restricts the profile to a window.
func (p profile) clamp(window interval.Interval) profile {
	if window.ContainsInterval(p.hull()) {
		return p
	}
	if window.Empty() {
		return profile{}
	}
	lo := p.search(window.Start)
	hi := lo
	for hi < len(p.segs) && p.segs[hi].span.Start < window.End {
		hi++
	}
	if lo == hi {
		return profile{}
	}
	out := append(make([]segment, 0, hi-lo), p.segs[lo:hi]...)
	out[0].span = out[0].span.Intersect(window)
	out[len(out)-1].span = out[len(out)-1].span.Intersect(window)
	return profile{segs: out}
}

// support returns the set of ticks where the profile is positive.
func (p profile) support() interval.Set {
	ivs := make([]interval.Interval, len(p.segs))
	for i, s := range p.segs {
		ivs[i] = s.span
	}
	return interval.NewSet(ivs...)
}

// hull returns the smallest interval containing all segments.
func (p profile) hull() interval.Interval {
	if len(p.segs) == 0 {
		return interval.Interval{}
	}
	return interval.New(p.segs[0].span.Start, p.segs[len(p.segs)-1].span.End)
}

// equal reports point-wise equality (normalized forms are canonical).
func (p profile) equal(q profile) bool {
	if len(p.segs) != len(q.segs) {
		return false
	}
	for i := range p.segs {
		if p.segs[i] != q.segs[i] {
			return false
		}
	}
	return true
}
