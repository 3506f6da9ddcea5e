package resource

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/interval"
)

// normalizeSegments is the event sweep the splice kernels replaced, kept
// as their reference: it sorts, splits and merges raw segments (which may
// overlap — overlapping rates add, per the paper's simplification rule)
// into normalized form.
func normalizeSegments(raw []segment) profile {
	type event struct {
		t     interval.Time
		delta Rate
	}
	events := make([]event, 0, 2*len(raw))
	for _, s := range raw {
		if !s.span.Empty() && s.rate != 0 {
			events = append(events,
				event{t: s.span.Start, delta: s.rate},
				event{t: s.span.End, delta: -s.rate})
		}
	}
	if len(events) == 0 {
		return profile{}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	var out []segment
	var running Rate
	prev := events[0].t
	for i := 0; i < len(events); {
		t := events[i].t
		if t > prev && running != 0 {
			if n := len(out); n > 0 && out[n-1].rate == running && out[n-1].span.End == prev {
				out[n-1].span.End = t
			} else {
				out = append(out, segment{span: interval.New(prev, t), rate: running})
			}
		}
		for i < len(events) && events[i].t == t {
			running += events[i].delta
			i++
		}
		prev = t
	}
	return profile{segs: out}
}

// sweepSubtract is the subtraction the kernels replaced: one (span, rate)
// step of q at a time, each remainder clamped at zero, renormalized by
// the event sweep after every step.
func sweepSubtract(p, q profile) profile {
	for _, step := range q.segs {
		raw := make([]segment, 0, len(p.segs)+2)
		for _, s := range p.segs {
			ov := s.span.Intersect(step.span)
			if ov.Empty() {
				raw = append(raw, s)
				continue
			}
			for _, rest := range []interval.Interval{interval.New(s.span.Start, ov.Start), interval.New(ov.End, s.span.End)} {
				if !rest.Empty() {
					raw = append(raw, segment{span: rest, rate: s.rate})
				}
			}
			if remain := s.rate - step.rate; remain > 0 {
				raw = append(raw, segment{span: ov, rate: remain})
			}
		}
		p = normalizeSegments(raw)
	}
	return p
}

// checkCanonical fails unless p is in canonical form — sorted, disjoint,
// non-empty spans, positive rates, no two abutting segments of equal
// rate — across every chunk, and unless its storage has the shape the
// representation promises: a flat profile holds at most chunkSize
// segments; a chunked one holds more, in at least two chunks, none
// empty and none over chunkSize, counted right.
func checkCanonical(t *testing.T, what string, p profile) {
	t.Helper()
	if p.tab == nil {
		if len(p.segs) > chunkSize {
			t.Fatalf("%s: flat profile of %d segments, over %d", what, len(p.segs), chunkSize)
		}
	} else {
		if p.segs != nil {
			t.Fatalf("%s: chunked profile also holds %d flat segments", what, len(p.segs))
		}
		if len(p.tab.chunks) < 2 || p.tab.n <= chunkSize {
			t.Fatalf("%s: chunked profile of %d segments in %d chunks", what, p.tab.n, len(p.tab.chunks))
		}
		n := 0
		for c, ref := range p.tab.chunks {
			segs := ref.segs()
			if len(segs) == 0 || len(segs) > chunkSize {
				t.Fatalf("%s: chunk %d holds %d segments", what, c, len(segs))
			}
			n += len(segs)
		}
		if n != p.tab.n {
			t.Fatalf("%s: chunks hold %d segments, table counts %d", what, n, p.tab.n)
		}
	}
	segs := p.appendTo(nil)
	for i, s := range segs {
		if s.span.Empty() || s.rate <= 0 {
			t.Fatalf("%s: segment %d is %v at rate %d", what, i, s.span, s.rate)
		}
		if i == 0 {
			continue
		}
		prev := segs[i-1]
		if s.span.Start < prev.span.End {
			t.Fatalf("%s: segment %d %v overlaps or precedes %v", what, i, s.span, prev.span)
		}
		if s.span.Start == prev.span.End && s.rate == prev.rate {
			t.Fatalf("%s: segments %d and %d abut at equal rate %d", what, i-1, i, s.rate)
		}
	}
}

// checkSpliced holds a kernel's result to the canonical form and to its
// storage being exactly sized: the flat slice, or every chunk, has no
// spare capacity to be appended into.
func checkSpliced(t *testing.T, what string, p profile) {
	t.Helper()
	checkCanonical(t, what, p)
	for c, n := 0, p.numChunks(); c < n; c++ {
		if segs := p.chunk(c); len(segs) != cap(segs) {
			t.Fatalf("%s: chunk %d holds %d segments in storage for %d", what, c, len(segs), cap(segs))
		}
	}
}

// decodeSegments reads (gap, length, rate) byte triples into a sorted
// list of disjoint segments — not necessarily coalesced: gap 0 with an
// equal rate is the seam case. The first byte places the first start, so
// two decoded lists fall before, after or across one another; a length
// byte of 0xFF runs the segment to Infinity and ends the list.
func decodeSegments(data []byte) []segment {
	if len(data) == 0 {
		return nil
	}
	cursor := interval.Time(data[0] % 48)
	var out []segment
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		start := cursor + interval.Time(data[0]%4)
		rate := Rate(1 + data[2]%3)
		if data[1] == 0xFF {
			return append(out, segment{span: interval.New(start, interval.Infinity), rate: rate})
		}
		end := start + 1 + interval.Time(data[1]%8)
		out = append(out, segment{span: interval.New(start, end), rate: rate})
		cursor = end
	}
	return out
}

// partition returns the profile of the canonical segs in fresh,
// exactly-sized storage: flat up to chunkSize segments, and beyond that
// chunked, the chunk sizes drawn in turn from cuts (1 + b mod chunkSize
// each; chunkSize when cuts is empty). Which segments share a chunk
// carries no meaning, so every kernel must answer alike for every
// partition.
func partition(segs []segment, cuts []byte) profile {
	own := append(make([]segment, 0, len(segs)), segs...)
	if len(own) <= chunkSize {
		if len(own) == 0 {
			return profile{}
		}
		return profile{segs: own}
	}
	tab := &table{n: len(own)}
	for i := 0; len(own) > 0; i++ {
		size := chunkSize
		if len(cuts) > 0 {
			size = 1 + int(cuts[i%len(cuts)])%chunkSize
		}
		size = min(size, len(own))
		tab.chunks = append(tab.chunks, refOf(own[:size]))
		own = own[size:]
	}
	return profile{tab: tab}
}

// clampSegments is the reference clamp: every segment cut to the window,
// the empty cuts dropped.
func clampSegments(segs []segment, window interval.Interval) profile {
	var out []segment
	for _, s := range segs {
		if cut := s.span.Intersect(window); !cut.Empty() {
			out = append(out, segment{span: cut, rate: s.rate})
		}
	}
	return profile{segs: out}
}

// checkKernels holds every splice kernel to the event sweep on one pair
// of operands, each cut into chunks as cuts say, and every result to the
// canonical form; and it holds clamp to cutting segments one by one.
func checkKernels(t *testing.T, pRaw, qRaw []segment, cuts []byte) {
	t.Helper()
	// The references stay flat whatever their length; the operands are
	// the same segments in exactly-sized storage, chunked when long, so
	// a result that is an operand handed on passes checkSpliced too.
	pRef, qRef := normalizeSegments(pRaw), normalizeSegments(qRaw)
	p, q := partition(pRef.segs, cuts), partition(qRef.segs, cuts[len(cuts)/2:])
	checkSpliced(t, "operand p", p)
	checkSpliced(t, "operand q", q)
	pBefore, qBefore := p.appendTo(nil), q.appendTo(nil)
	flat := func(p profile) []segment { return p.appendTo(nil) }

	merged := p.merge(q)
	checkSpliced(t, "merge", merged)
	if want := normalizeSegments(append(append([]segment(nil), pRef.segs...), qRef.segs...)); !merged.equal(want) {
		t.Fatalf("merge: splice %v, sweep %v (p=%v q=%v)", flat(merged), want.segs, pBefore, qBefore)
	}
	if flipped := q.merge(p); !flipped.equal(merged) {
		t.Fatalf("merge does not commute: %v vs %v", flat(flipped), flat(merged))
	}

	added := p
	for _, step := range qRaw {
		added = added.add(step.span, step.rate)
		checkSpliced(t, "add", added)
	}
	if !added.equal(merged) {
		t.Fatalf("add step by step %v, merge %v", flat(added), flat(merged))
	}

	saturated, _ := p.splice(q, opSubSaturate)
	checkSpliced(t, "saturating subtract", saturated)
	if want := sweepSubtract(pRef, qRef); !saturated.equal(want) {
		t.Fatalf("saturating subtract: splice %v, sweep %v (p=%v q=%v)", flat(saturated), want.segs, pBefore, qBefore)
	}

	covered := true
	for _, step := range qRef.segs {
		covered = covered && p.covers(step.span, step.rate)
	}
	exact, ok := p.splice(q, opSub)
	if ok != covered {
		t.Fatalf("subtract ok=%v, coverage %v (p=%v q=%v)", ok, covered, pBefore, qBefore)
	}
	if ok {
		checkSpliced(t, "subtract", exact)
		if !exact.equal(saturated) {
			t.Fatalf("covered subtract %v differs from saturating %v", flat(exact), flat(saturated))
		}
	}
	// What was merged in can always be taken out again, leaving p.
	if back, ok := merged.splice(q, opSub); !ok || !back.equal(p) {
		t.Fatalf("(p+q)-q = %v ok=%v, want %v", flat(back), ok, pBefore)
	}

	// A subtrahend need not be coalesced (a planner's allocations are
	// not): the uncoalesced list must give the same result.
	if raw, _ := p.splice(profile{segs: qRaw}, opSubSaturate); !raw.equal(saturated) {
		t.Fatalf("uncoalesced subtrahend: %v, coalesced %v", flat(raw), flat(saturated))
	}

	// Clamp to q's hull, and to either side of its start as a trim
	// does; a window holding all of p hands p on.
	if !q.empty() {
		at := q.first().span.Start
		for _, w := range []interval.Interval{q.hull(), interval.New(interval.NegInfinity, at), interval.New(at, interval.Infinity)} {
			got := p.clamp(w)
			checkSpliced(t, "clamp", got)
			if want := clampSegments(pRef.segs, w); !got.equal(want) {
				t.Fatalf("clamp to %v: %v, want %v (p=%v)", w, flat(got), want.segs, pBefore)
			}
			if !p.empty() && w.ContainsInterval(p.hull()) && !sharesStorage(got, p) {
				t.Fatalf("clamp to %v, which holds all of p, copied it", w)
			}
		}
	}

	if !p.equal(profile{segs: pBefore}) || !q.equal(profile{segs: qBefore}) {
		t.Fatal("a kernel wrote into an operand")
	}
}

// maxKernelBytes bounds a fuzzed operand's encoding: up to four chunks'
// worth of segments, so that the kernels meet chunked operands.
const maxKernelBytes = 1 + 3*4*chunkSize

func FuzzProfileKernels(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 3, 0}, []byte{4, 0, 3, 0}, []byte{})                   // q abuts p's end at p's rate
	f.Add([]byte{10, 0, 3, 1}, []byte{0, 0, 2, 1}, []byte{})                           // q wholly before p
	f.Add([]byte{0, 0, 3, 1}, []byte{20, 0, 2, 1}, []byte{})                           // q wholly after p
	f.Add([]byte{4, 0, 7, 2, 2, 7, 0, 1, 7, 2}, []byte{0, 0, 7, 1, 0, 7, 1}, []byte{}) // q straddles p's gaps
	f.Add([]byte{0, 0, 0xFF, 2}, []byte{5, 0, 4, 2, 1, 0xFF, 0}, []byte{})             // both run to Infinity
	f.Add([]byte{2, 0, 5, 0, 0, 5, 1}, []byte{2, 0, 5, 0, 0, 5, 1}, []byte{})          // q equals p: zero remainder
	f.Add([]byte{}, []byte{3, 1, 2, 1}, []byte{})                                      // empty p
	f.Add([]byte{3, 1, 2, 1}, []byte{}, []byte{})                                      // empty q
	// Long operands, alternating rates so that nothing coalesces, cut
	// into chunks of 1, 7, 32, 3, ... segments: q's steps land inside
	// p's chunks and across their seams.
	long := func(first byte, n int, step []byte) []byte {
		b := []byte{first}
		for i := 0; i < n; i++ {
			b = append(b, step[0], step[1], byte(i))
		}
		return b
	}
	f.Add(long(0, 3*chunkSize, []byte{0, 1}), long(5, 2*chunkSize, []byte{3, 0}), []byte{0, 6, 31, 2, 17})
	f.Add(long(0, 3*chunkSize, []byte{0, 3}), []byte{40, 1, 9, 1}, []byte{31, 0, 0, 0, 15})
	f.Fuzz(func(t *testing.T, pData, qData, cuts []byte) {
		if len(pData) > maxKernelBytes || len(qData) > maxKernelBytes || len(cuts) > 64 {
			return
		}
		checkKernels(t, decodeSegments(pData), decodeSegments(qData), cuts)
	})
}

// The same differential check on a fixed random stream, so a plain
// `go test` exercises it beyond the fuzz seeds.
func TestSpliceKernelsMatchEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20100621))
	buf := func(n int) []byte {
		b := make([]byte, 1+3*n)
		rng.Read(b)
		if rng.Intn(8) == 0 && len(b) > 3 {
			b[len(b)-2] = 0xFF
		}
		return b
	}
	for iter := 0; iter < 5000; iter++ {
		checkKernels(t, decodeSegments(buf(rng.Intn(12))), decodeSegments(buf(rng.Intn(12))), buf(rng.Intn(4)))
	}
}

// shift moves every segment later by d ticks.
func shift(segs []segment, d interval.Time) []segment {
	for i := range segs {
		if segs[i].span.End == interval.Infinity {
			segs[i].span = interval.New(segs[i].span.Start+d, interval.Infinity)
		} else {
			segs[i].span = interval.New(segs[i].span.Start+d, segs[i].span.End+d)
		}
	}
	return segs
}

// The differential check at the real chunk size: p always holds at
// least four chunks' worth of segments, cut at random, and q is as long
// or a few steps placed anywhere inside p — so that splices rebuild one
// chunk, or several, split what they rebuild, and take a small rebuilt
// run's neighbour in.
func TestSpliceKernelsMatchEventSweepChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(20260416))
	raw := func(n int) []segment {
		b := make([]byte, 1+3*n)
		rng.Read(b)
		for i := 2; i < len(b); i += 3 {
			if b[i] == 0xFF && (i+3 < len(b) || rng.Intn(8) > 0) {
				b[i] = 0 // only the last step may run to Infinity
			}
		}
		return decodeSegments(b)
	}
	for iter := 0; iter < 300; iter++ {
		pRaw := raw(6 * chunkSize)
		if n := len(normalizeSegments(pRaw).segs); n < 4*chunkSize {
			t.Fatalf("fixture: p holds %d segments, want at least %d", n, 4*chunkSize)
		}
		var qRaw []segment
		if iter%2 == 0 {
			qRaw = raw(6 * chunkSize)
		} else {
			qRaw = shift(raw(1+rng.Intn(6)), interval.Time(rng.Intn(int(pRaw[len(pRaw)-1].span.End))))
		}
		cuts := make([]byte, 1+rng.Intn(8))
		rng.Read(cuts)
		checkKernels(t, pRaw, qRaw, cuts)
	}
}

// wideProfile builds a profile of n abutting segments with alternating
// rates, one add splice at a time, so that a wide one is chunked the way
// splices leave it.
func wideProfile(n int) profile {
	var p profile
	for i := 0; i < n; i++ {
		p = p.add(interval.New(interval.Time(4*i), interval.Time(4*i+4)), Rate(1+i%2))
	}
	return p
}

// Splices keep chunks at least half full: a rebuilt run that would fall
// under chunkSize/2 takes a neighbouring chunk in. So a profile that
// only splices ever built holds at most 2n/chunkSize chunks, however
// its segments come and go.
func TestSplicesKeepChunksHalfFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := wideProfile(16 * chunkSize)
	for p.tab != nil {
		segs := p.appendTo(nil)
		gone := segs[rng.Intn(len(segs))]
		var ok bool
		if p, ok = p.splice(profile{segs: []segment{gone}}, opSub); !ok {
			t.Fatalf("taking out %v, one of p's own segments, failed", gone)
		}
		checkSpliced(t, "thinned", p)
		for c := 0; p.tab != nil && c < len(p.tab.chunks); c++ {
			if n := p.tab.chunks[c].n; n < chunkSize/2 {
				t.Fatalf("after taking out %v: chunk %d of %d holds %d segments", gone, c, len(p.tab.chunks), n)
			}
		}
	}
}

// Budgets for what one splice allocates, with slack for the allocator's
// size classes (at most one eighth).
const (
	segmentBytes  = 24 // one segment
	chunkRefBytes = 16 // one chunk in a table's chunk list: a chunkRef
	tableBytes    = 32 // a table's count and chunk list header
)

// spliceBudget is what a splice of a chunked profile of n segments may
// allocate, in bytes: a new table whose chunk list holds one entry per
// chunk — at most 2n/chunkSize+2 of them, since splices keep chunks at
// least half full — plus one run of at most two chunks' worth of
// segments and the few seams q opens.
func spliceBudget(n int) float64 {
	return 1.125 * float64(tableBytes+chunkRefBytes*(2*n/chunkSize+2)+segmentBytes*(2*chunkSize+4))
}

// A flat profile splices into one exactly-sized allocation, as before
// profiles were chunked. A chunked one costs at most three allocations —
// the table, its chunk list and one run for the chunks it rebuilds — and
// a number of bytes set by its chunk count and the chunk size, whatever
// its width, sharing every chunk it does not rebuild. A splice that
// changes nothing, a merge into the zero profile and a clamp to a window
// holding the profile hand their operand on.
func TestSpliceAllocatesOnce(t *testing.T) {
	ops := map[string]spliceOp{"add": opAdd, "subtract": opSub, "saturating": opSubSaturate}

	small := wideProfile(chunkSize / 2)
	steps := profile{segs: []segment{
		{span: interval.New(21, 23), rate: 1},
		{span: interval.New(30, 50), rate: 1},
	}}
	for name, op := range ops {
		var out profile
		if allocs := testing.AllocsPerRun(50, func() { out, _ = small.splice(steps, op) }); allocs != 1 {
			t.Errorf("flat %s: %.0f allocations per splice, want 1", name, allocs)
		}
		if out.tab != nil {
			t.Fatalf("flat %s: a %d-segment result was chunked", name, out.len())
		}
		checkSpliced(t, "flat "+name, out)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = small.add(interval.New(7, 9), 3) }); allocs != 1 {
		t.Errorf("flat add: %.0f allocations, want 1 (the step must not escape)", allocs)
	}

	for _, n := range []int{512, 4096} {
		p := wideProfile(n)
		checkSpliced(t, "wide", p)
		if p.numChunks() < n/chunkSize {
			t.Fatalf("a %d-segment profile in %d chunks", n, p.numChunks())
		}
		q := profile{segs: []segment{
			{span: interval.New(1001, 1003), rate: 1},
			{span: interval.New(1010, 1030), rate: 1},
		}}
		for name, op := range ops {
			var out profile
			splice := func() { out, _ = p.splice(q, op) }
			if allocs := testing.AllocsPerRun(50, splice); allocs > 3 {
				t.Errorf("%d segments, %s: %.0f allocations per splice, want at most 3", n, name, allocs)
			}
			if bytes, budget := allocBytes(50, splice), spliceBudget(n); bytes > budget {
				t.Errorf("%d segments, %s: %.0f bytes per splice, budget %.0f", n, name, bytes, budget)
			}
			checkSpliced(t, name, out)
			if kept, all := sharedChunks(out, p), out.numChunks(); all-kept > 3 {
				t.Errorf("%d segments, %s: %d of %d chunks rebuilt, want at most 3", n, name, all-kept, all)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = p.add(interval.New(7, 9), 3) }); allocs > 3 {
			t.Errorf("%d segments, add: %.0f allocations, want at most 3 (the step must not escape)", n, allocs)
		}

		if got := (profile{}).merge(p); !sharesStorage(got, p) {
			t.Error("merge into the zero profile copied the other side")
		}
		if got := p.merge(profile{}); !sharesStorage(got, p) {
			t.Error("merge of the zero profile copied the receiver")
		}
		if got, _ := p.splice(profile{segs: []segment{{span: interval.New(1<<20, 1<<20+10), rate: 1}}}, opSubSaturate); !sharesStorage(got, p) {
			t.Error("saturating subtract outside the profile copied it")
		}
		if got := p.clamp(interval.New(-5, 1<<20)); !sharesStorage(got, p) {
			t.Error("clamp to a window containing the profile copied it")
		}
	}
}
