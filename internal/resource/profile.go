package resource

import (
	"math"
	"unsafe"

	"repro/internal/interval"
)

// segment is one step of a rate step-function: a constant positive rate
// over a non-empty interval.
type segment struct {
	span interval.Interval
	rate Rate
}

// chunkSize is K, the most segments a chunk holds, and so the most a
// flat profile holds.
const chunkSize = 32

// profile is a normalized step function of availability rate over time for
// a single located type: segments are sorted, disjoint, carry positive
// rates, and adjacent segments with equal rates are merged. The zero value
// is the everywhere-zero profile.
//
// A profile of at most chunkSize segments is flat: segs holds them in one
// allocation and tab is nil. A longer one is chunked: segs is nil and tab
// holds the segments as a sequence of chunks, each of 1 to chunkSize
// segments, at least two of them. The value is 32 bytes either way.
//
// A profile is immutable once built, and so is every chunk: no operation
// writes into segs or into a chunk, every operation that changes anything
// returns fresh storage for what it changes, and an operation that changes
// nothing returns its operand. Profiles — and so the sets holding them —
// may therefore share storage freely: whole profiles, and, between
// chunked profiles, single chunks.
type profile struct {
	segs []segment
	tab  *table
}

// table is a chunked profile's storage.
type table struct {
	n      int        // segments in all chunks
	chunks []chunkRef // in time order; each of 1..chunkSize segments
}

// chunkRef is a chunk as a table lists it: its first segment and its
// length. A chunk's length is its capacity and it is never appended to,
// so a slice header's third word would only repeat the second; at 16
// bytes rather than 24, the chunk list every splice of a chunked profile
// copies is a third smaller.
type chunkRef struct {
	first *segment
	n     int
}

// refOf returns the reference to a chunk of at least one segment.
func refOf(segs []segment) chunkRef {
	return chunkRef{first: unsafe.SliceData(segs), n: len(segs)}
}

// segs returns the chunk's segments, len == cap.
func (r chunkRef) segs() []segment {
	return unsafe.Slice(r.first, r.n)
}

// pos is the position of a segment: index i of chunk c. The position
// after the last segment is {numChunks(), 0}; every other position has
// i < len(chunk(c)).
type pos struct{ c, i int }

// empty reports whether the profile is zero everywhere.
func (p profile) empty() bool {
	return len(p.segs) == 0 && p.tab == nil
}

// len returns the number of segments.
func (p profile) len() int {
	if p.tab != nil {
		return p.tab.n
	}
	return len(p.segs)
}

// numChunks returns the number of chunks; a flat profile that is not
// empty is one chunk.
func (p profile) numChunks() int {
	if p.tab != nil {
		return len(p.tab.chunks)
	}
	if len(p.segs) == 0 {
		return 0
	}
	return 1
}

// chunk returns chunk c.
func (p profile) chunk(c int) []segment {
	if p.tab != nil {
		return p.tab.chunks[c].segs()
	}
	return p.segs
}

// end returns the position after the last segment.
func (p profile) end() pos {
	return pos{p.numChunks(), 0}
}

// first and last return the first and the last segment of a profile
// that is not empty.
func (p profile) first() segment { return p.chunk(0)[0] }
func (p profile) last() segment {
	c := p.chunk(p.numChunks() - 1)
	return c[len(c)-1]
}

// fromRun returns the profile of a canonical run of segments, sharing
// the run's storage: flat up to chunkSize segments, chunked beyond.
func fromRun(run []segment) profile {
	if len(run) <= chunkSize {
		return profile{segs: run}
	}
	chunks := make([]chunkRef, 0, (len(run)+chunkSize-1)/chunkSize)
	return profile{tab: &table{n: len(run), chunks: appendChunks(chunks, run)}}
}

// appendChunks appends run to chunks as ⌈len(run)/chunkSize⌉ chunks of
// near-equal size that share its storage.
func appendChunks(chunks []chunkRef, run []segment) []chunkRef {
	k := (len(run) + chunkSize - 1) / chunkSize
	for j := 0; j < k; j++ {
		lo, hi := j*len(run)/k, (j+1)*len(run)/k
		chunks = append(chunks, refOf(run[lo:hi]))
	}
	return chunks
}

// appendTo appends the profile's segments to dst.
func (p profile) appendTo(dst []segment) []segment {
	return p.appendRange(dst, pos{}, p.end())
}

// appendRange appends the segments at positions [from, to) to dst.
func (p profile) appendRange(dst []segment, from, to pos) []segment {
	for c := from.c; c < to.c || c == to.c && to.i > 0; c++ {
		segs := p.chunk(c)
		if c == to.c {
			segs = segs[:to.i]
		}
		if c == from.c {
			segs = segs[from.i:]
		}
		dst = append(dst, segs...)
	}
	return dst
}

// count returns the number of segments at positions [from, to).
func (p profile) count(from, to pos) int {
	n := to.i - from.i
	for c := from.c; c < to.c; c++ {
		n += len(p.chunk(c))
	}
	return n
}

// search returns the position of the first segment ending after tick t —
// the segment containing t, or else the first one starting after it.
func (p profile) search(t interval.Time) pos {
	c, segs := 0, p.segs
	if p.tab != nil {
		// The first chunk whose last segment ends after t.
		lo, hi := 0, len(p.tab.chunks)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ch := p.tab.chunks[mid].segs(); ch[len(ch)-1].span.End > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == len(p.tab.chunks) {
			return pos{lo, 0}
		}
		c, segs = lo, p.tab.chunks[lo].segs()
	}
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].span.End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(segs) { // a flat profile ending at or before t
		return p.end()
	}
	return pos{c, lo}
}

// scan walks forward from at past every segment starting at or before
// tick t. It returns the position of the first segment starting after
// t and the number of segments passed; chunks that lie wholly before t
// are passed in one step.
func (p profile) scan(at pos, t interval.Time) (pos, int) {
	passed := 0
	for n := p.numChunks(); at.c < n; at = (pos{at.c + 1, 0}) {
		segs := p.chunk(at.c)
		if segs[len(segs)-1].span.Start > t {
			i := at.i
			for segs[i].span.Start <= t {
				i++
			}
			return pos{at.c, i}, passed + i - at.i
		}
		passed += len(segs) - at.i
	}
	return at, passed
}

// cursor reads a stretch of a profile's segments in time order, across
// chunk boundaries and without copying them.
type cursor struct {
	cur  []segment  // the rest of the current chunk
	more []chunkRef // the chunks after it
	left int        // segments still to read
}

// read returns a cursor over the n segments from position at on.
func (p profile) read(at pos, n int) cursor {
	if p.tab == nil {
		return cursor{cur: p.segs[at.i:], left: n}
	}
	if at.c == len(p.tab.chunks) {
		return cursor{}
	}
	return cursor{cur: p.tab.chunks[at.c].segs()[at.i:], more: p.tab.chunks[at.c+1:], left: n}
}

// all returns a cursor over every segment.
func (p profile) all() cursor {
	if p.tab == nil {
		return cursor{cur: p.segs, left: len(p.segs)}
	}
	return cursor{cur: p.tab.chunks[0].segs(), more: p.tab.chunks[1:], left: p.tab.n}
}

// next returns the next segment, or ok=false when the stretch is read.
func (c *cursor) next() (s segment, ok bool) {
	if c.left == 0 {
		return segment{}, false
	}
	s, c.cur, c.left = c.cur[0], c.cur[1:], c.left-1
	if len(c.cur) == 0 && len(c.more) > 0 {
		c.cur, c.more = c.more[0].segs(), c.more[1:]
	}
	return s, true
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

// sweep walks two sorted, disjoint runs of segments in step and emits
// p ⊕ q over their joint extent. It reports false when op is opSub and q
// exceeds p somewhere (the complement is undefined there).
func sweep(e *emitter, p, q cursor, op spliceOp) bool {
	ps, pok := p.next()
	qs, qok := q.next()
	t := interval.NegInfinity // the first step runs, at rate zero, up to the earliest start
	for pok || qok {
		// The rates in force on [t, next), next being the nearest boundary
		// of either operand after t.
		var pr, qr Rate
		next := interval.Infinity
		if pok {
			if ps.span.Start <= t {
				pr, next = ps.rate, ps.span.End
			} else {
				next = ps.span.Start
			}
		}
		if qok {
			b := qs.span.Start
			if b <= t {
				qr, b = qs.rate, qs.span.End
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
		if pok && ps.span.End <= t {
			ps, pok = p.next()
		}
		if qok && qs.span.End <= t {
			qs, qok = q.next()
		}
	}
	e.flush()
	return true
}

// splice returns p ⊕ q, where q's segments need only be sorted and
// disjoint (a normalized profile's, or a planner's allocations of one
// type, uncoalesced). Only the stretch of p that q's extent overlaps or
// abuts is recomputed, by a two-pointer sweep. ok is false when op is
// opSub and p does not cover q.
//
// A result of at most chunkSize segments is one exactly-sized
// allocation. A longer one shares every chunk of p the stretch does not
// reach, and rebuilds only the chunks it does into one new run, split
// into chunks of at most chunkSize; a run that would fall under half a
// chunk takes a neighbouring chunk in, so chunks stay full enough that
// the table stays short.
func (p profile) splice(q profile, op spliceOp) (out profile, ok bool) {
	if q.empty() {
		return p, true
	}
	// The touched stretch, positions [lo, hi), holds the m segments
	// ending at or after q begins and starting at or before it ends. A
	// segment outside it neither overlaps q nor can coalesce with
	// anything the sweep emits: there is a gap, or a rate change inside
	// p, between it and the touched stretch.
	lo := p.search(q.first().span.Start - 1)
	hi, m := p.scan(lo, q.last().span.End)
	if m == 0 && op == opSubSaturate {
		return p, true
	}
	touched := p.read(lo, m)
	var count emitter
	if !sweep(&count, touched, q.all(), op) {
		return profile{}, false
	}
	total := p.len() - m + count.n
	if total == 0 {
		return profile{}, true
	}
	if total <= chunkSize {
		fill := emitter{dst: p.appendRange(make([]segment, 0, total), pos{}, lo)}
		sweep(&fill, touched, q.all(), op)
		return profile{segs: p.appendRange(fill.dst, hi, p.end())}, true
	}

	// Chunks [a, b) are rebuilt: those holding the touched stretch, or,
	// when it is empty, the chunk q's steps go into.
	n := p.numChunks()
	a, b := lo.c, hi.c
	switch {
	case m > 0 && hi.i > 0:
		b++
	case m == 0 && lo.c < n:
		b = a + 1
	case m == 0 && n > 0:
		a = n - 1
	}
	run := p.count(pos{a, 0}, lo) + count.n + p.count(hi, pos{b, 0})
	for run > 0 && run < chunkSize/2 && (a > 0 || b < n) {
		if a > 0 && (b == n || len(p.chunk(a-1)) <= len(p.chunk(b))) {
			a--
			run += len(p.chunk(a))
		} else {
			run += len(p.chunk(b))
			b++
		}
	}
	var rebuilt []segment
	if run > 0 {
		fill := emitter{dst: p.appendRange(make([]segment, 0, run), pos{a, 0}, lo)}
		sweep(&fill, touched, q.all(), op)
		rebuilt = p.appendRange(fill.dst, hi, pos{b, 0})
	}
	chunks := make([]chunkRef, 0, a+(run+chunkSize-1)/chunkSize+n-b)
	for c := 0; c < a; c++ {
		chunks = append(chunks, refOf(p.chunk(c)))
	}
	chunks = appendChunks(chunks, rebuilt)
	for c := b; c < n; c++ {
		chunks = append(chunks, refOf(p.chunk(c)))
	}
	return profile{tab: &table{n: total, chunks: chunks}}, true
}

// add merges another step (span, rate) into the profile, summing rates
// where they overlap. Negative rates are rejected by callers; add itself
// assumes rate > 0.
func (p profile) add(span interval.Interval, rate Rate) profile {
	if span.Empty() || rate == 0 {
		return p
	}
	out, _ := p.splice(profile{segs: []segment{{span: span, rate: rate}}}, opAdd)
	return out
}

// merge returns the point-wise sum of two profiles (resource-set union
// restricted to one located type). Merging with the zero profile returns
// the other operand itself.
func (p profile) merge(q profile) profile {
	if p.empty() {
		return q
	}
	out, _ := p.splice(q, opAdd)
	return out
}

// each calls fn for every segment's part inside the window, in time
// order, until fn returns false.
func (p profile) each(window interval.Interval, fn func(interval.Interval, Rate) bool) {
	if window.Empty() {
		return
	}
	at := p.search(window.Start)
	for c, n := at.c, p.numChunks(); c < n; c, at.i = c+1, 0 {
		for _, s := range p.chunk(c)[at.i:] {
			if s.span.Start >= window.End {
				return
			}
			if !fn(s.span.Intersect(window), s.rate) {
				return
			}
		}
	}
}

// maxQuantity is the largest Quantity; an integral that would pass it
// saturates there. Only availability running to Infinity gets near it.
const maxQuantity = Quantity(math.MaxInt64)

// AddSaturating returns q + x for non-negative quantities, or the largest
// Quantity when the sum would overflow it.
func (q Quantity) AddSaturating(x Quantity) Quantity {
	if q > maxQuantity-x {
		return maxQuantity
	}
	return q + x
}

// integral returns rate × ticks, or the largest Quantity when the
// product would overflow it.
func integral(rate Rate, ticks interval.Time) Quantity {
	if rate > 0 && ticks > int64(maxQuantity/Quantity(rate)) {
		return maxQuantity
	}
	return Quantity(rate) * Quantity(ticks)
}

// quantity integrates the profile over the window, saturating at the
// largest Quantity.
func (p profile) quantity(window interval.Interval) Quantity {
	if window.Empty() {
		return 0
	}
	var total Quantity
	at := p.search(window.Start)
	for c, n := at.c, p.numChunks(); c < n; c, at.i = c+1, 0 {
		for _, s := range p.chunk(c)[at.i:] {
			if s.span.Start >= window.End {
				return total
			}
			total = total.AddSaturating(integral(s.rate, s.span.Intersect(window).Len()))
		}
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
	at := p.search(window.Start)
	for c, n := at.c, p.numChunks(); c < n; c, at.i = c+1, 0 {
		for _, s := range p.chunk(c)[at.i:] {
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

// clamp restricts the profile to a window. A result of at most chunkSize
// segments is one exactly-sized allocation; a longer one shares every
// chunk the window holds whole, and of the two end chunks copies only
// one whose end segment the window cuts.
func (p profile) clamp(window interval.Interval) profile {
	if window.ContainsInterval(p.hull()) {
		return p
	}
	if window.Empty() {
		return profile{}
	}
	lo := p.search(window.Start)
	hi, m := p.scan(lo, window.End-1)
	if m == 0 {
		return profile{}
	}
	if m <= chunkSize {
		out := p.appendRange(make([]segment, 0, m), lo, hi)
		out[0].span = out[0].span.Intersect(window)
		out[m-1].span = out[m-1].span.Intersect(window)
		return profile{segs: out}
	}
	// More than chunkSize segments span at least two chunks.
	head := p.chunk(lo.c)[lo.i:]
	lc := hi.c // the last chunk the window reaches
	if hi.i == 0 {
		lc--
	}
	tail := p.chunk(lc)
	if hi.i > 0 {
		tail = tail[:hi.i:hi.i]
	}
	cutHead := head[0].span.Start < window.Start
	cutTail := tail[len(tail)-1].span.End > window.End
	var buf []segment
	switch {
	case cutHead && cutTail:
		buf = make([]segment, 0, len(head)+len(tail))
	case cutHead:
		buf = make([]segment, 0, len(head))
	case cutTail:
		buf = make([]segment, 0, len(tail))
	}
	if cutHead {
		buf = append(buf, head...)
		buf[0].span = buf[0].span.Intersect(window)
		head = buf[:len(head):len(head)]
	}
	if cutTail {
		k := len(buf)
		buf = append(buf, tail...)
		buf[len(buf)-1].span = buf[len(buf)-1].span.Intersect(window)
		tail = buf[k:]
	}
	chunks := make([]chunkRef, 0, lc-lo.c+1)
	chunks = append(chunks, refOf(head))
	for c := lo.c + 1; c < lc; c++ {
		chunks = append(chunks, p.tab.chunks[c])
	}
	chunks = append(chunks, refOf(tail))
	return profile{tab: &table{n: m, chunks: chunks}}
}

// hull returns the smallest interval containing all segments.
func (p profile) hull() interval.Interval {
	if p.empty() {
		return interval.Interval{}
	}
	return interval.New(p.first().span.Start, p.last().span.End)
}

// equal reports point-wise equality (normalized forms are canonical,
// whatever their chunks).
func (p profile) equal(q profile) bool {
	if p.len() != q.len() {
		return false
	}
	pc, qc := p.all(), q.all()
	for {
		a, ok := pc.next()
		if !ok {
			return true
		}
		if b, _ := qc.next(); a != b {
			return false
		}
	}
}
