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
			for _, rest := range s.span.Subtract(step.span) {
				raw = append(raw, segment{span: rest, rate: s.rate})
			}
			if remain := s.rate - step.rate; remain > 0 {
				raw = append(raw, segment{span: ov, rate: remain})
			}
		}
		p = normalizeSegments(raw)
	}
	return p
}

// checkCanonical fails unless p is in canonical form: sorted, disjoint,
// non-empty spans, positive rates, no two abutting segments of equal rate.
func checkCanonical(t *testing.T, what string, p profile) {
	t.Helper()
	for i, s := range p.segs {
		if s.span.Empty() || s.rate <= 0 {
			t.Fatalf("%s: segment %d is %v at rate %d", what, i, s.span, s.rate)
		}
		if i == 0 {
			continue
		}
		prev := p.segs[i-1]
		if s.span.Start < prev.span.End {
			t.Fatalf("%s: segment %d %v overlaps or precedes %v", what, i, s.span, prev.span)
		}
		if s.span.Start == prev.span.End && s.rate == prev.rate {
			t.Fatalf("%s: segments %d and %d abut at equal rate %d", what, i-1, i, s.rate)
		}
	}
}

// checkSpliced holds a kernel's result to the canonical form and to its
// storage being exactly sized.
func checkSpliced(t *testing.T, what string, p profile) {
	t.Helper()
	checkCanonical(t, what, p)
	if len(p.segs) != cap(p.segs) {
		t.Fatalf("%s: %d segments in storage for %d", what, len(p.segs), cap(p.segs))
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

// checkKernels holds every splice kernel to the event sweep on one pair
// of operands, and every result to the canonical form.
func checkKernels(t *testing.T, pRaw, qRaw []segment) {
	t.Helper()
	// The operands' storage is exactly sized, as every kernel's is, so a
	// result that is an operand handed on passes checkSpliced too.
	sized := func(p profile) profile { return profile{segs: append(make([]segment, 0, len(p.segs)), p.segs...)} }
	p, q := sized(normalizeSegments(pRaw)), sized(normalizeSegments(qRaw))
	checkCanonical(t, "reference p", p)
	checkCanonical(t, "reference q", q)
	pBefore := append([]segment(nil), p.segs...)
	qBefore := append([]segment(nil), q.segs...)

	merged := p.merge(q)
	checkSpliced(t, "merge", merged)
	if want := normalizeSegments(append(append([]segment(nil), p.segs...), q.segs...)); !merged.equal(want) {
		t.Fatalf("merge: splice %v, sweep %v (p=%v q=%v)", merged.segs, want.segs, p.segs, q.segs)
	}
	if flipped := q.merge(p); !flipped.equal(merged) {
		t.Fatalf("merge does not commute: %v vs %v", flipped.segs, merged.segs)
	}

	added := p
	for _, step := range qRaw {
		added = added.add(step.span, step.rate)
		checkSpliced(t, "add", added)
	}
	if !added.equal(merged) {
		t.Fatalf("add step by step %v, merge %v", added.segs, merged.segs)
	}

	saturated, _ := p.splice(q.segs, opSubSaturate)
	checkSpliced(t, "saturating subtract", saturated)
	if want := sweepSubtract(p, q); !saturated.equal(want) {
		t.Fatalf("saturating subtract: splice %v, sweep %v (p=%v q=%v)", saturated.segs, want.segs, p.segs, q.segs)
	}

	covered := true
	for _, step := range q.segs {
		covered = covered && p.covers(step.span, step.rate)
	}
	exact, ok := p.splice(q.segs, opSub)
	if ok != covered {
		t.Fatalf("subtract ok=%v, coverage %v (p=%v q=%v)", ok, covered, p.segs, q.segs)
	}
	if ok {
		checkSpliced(t, "subtract", exact)
		if !exact.equal(saturated) {
			t.Fatalf("covered subtract %v differs from saturating %v", exact.segs, saturated.segs)
		}
	}
	// What was merged in can always be taken out again, leaving p.
	if back, ok := merged.splice(q.segs, opSub); !ok || !back.equal(p) {
		t.Fatalf("(p+q)-q = %v ok=%v, want %v", back.segs, ok, p.segs)
	}

	// A subtrahend need not be coalesced (a planner's allocations are
	// not): the uncoalesced list must give the same result.
	if raw, _ := p.splice(qRaw, opSubSaturate); !raw.equal(saturated) {
		t.Fatalf("uncoalesced subtrahend: %v, coalesced %v", raw.segs, saturated.segs)
	}

	if !p.equal(profile{segs: pBefore}) || !q.equal(profile{segs: qBefore}) {
		t.Fatal("a kernel wrote into an operand")
	}
}

func FuzzProfileKernels(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 3, 0}, []byte{4, 0, 3, 0})                   // q abuts p's end at p's rate
	f.Add([]byte{10, 0, 3, 1}, []byte{0, 0, 2, 1})                           // q wholly before p
	f.Add([]byte{0, 0, 3, 1}, []byte{20, 0, 2, 1})                           // q wholly after p
	f.Add([]byte{4, 0, 7, 2, 2, 7, 0, 1, 7, 2}, []byte{0, 0, 7, 1, 0, 7, 1}) // q straddles p's gaps
	f.Add([]byte{0, 0, 0xFF, 2}, []byte{5, 0, 4, 2, 1, 0xFF, 0})             // both run to Infinity
	f.Add([]byte{2, 0, 5, 0, 0, 5, 1}, []byte{2, 0, 5, 0, 0, 5, 1})          // q equals p: zero remainder
	f.Add([]byte{}, []byte{3, 1, 2, 1})                                      // empty p
	f.Add([]byte{3, 1, 2, 1}, []byte{})                                      // empty q
	f.Fuzz(func(t *testing.T, pData, qData []byte) {
		if len(pData) > 96 || len(qData) > 96 {
			return
		}
		checkKernels(t, decodeSegments(pData), decodeSegments(qData))
	})
}

// The same differential check on a fixed random stream, so a plain
// `go test` exercises it beyond the fuzz seeds.
func TestSpliceKernelsMatchEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20100621))
	buf := func() []byte {
		b := make([]byte, 1+3*rng.Intn(12))
		rng.Read(b)
		if rng.Intn(8) == 0 && len(b) > 3 {
			b[len(b)-2] = 0xFF
		}
		return b
	}
	for iter := 0; iter < 5000; iter++ {
		checkKernels(t, decodeSegments(buf()), decodeSegments(buf()))
	}
}

// wideProfile builds a profile of n segments with alternating rates.
func wideProfile(n int) profile {
	segs := make([]segment, n)
	for i := range segs {
		segs[i] = segment{span: interval.New(interval.Time(4*i), interval.Time(4*i+4)), rate: Rate(1 + i%2)}
	}
	return profile{segs: segs}
}

// A splice allocates its result once, exactly sized, whatever the width
// of the operand, and nothing else; a splice that changes nothing, and a
// merge into the zero profile, hand their operand on.
func TestSpliceAllocatesOnce(t *testing.T) {
	p := wideProfile(512)
	q := profile{segs: []segment{
		{span: interval.New(1001, 1003), rate: 1},
		{span: interval.New(1010, 1030), rate: 1},
	}}
	for name, op := range map[string]spliceOp{"add": opAdd, "subtract": opSub, "saturating": opSubSaturate} {
		var out profile
		if allocs := testing.AllocsPerRun(50, func() { out, _ = p.splice(q.segs, op) }); allocs != 1 {
			t.Errorf("%s: %.0f allocations per splice, want 1", name, allocs)
		}
		checkSpliced(t, name, out)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = p.add(interval.New(7, 9), 3) }); allocs != 1 {
		t.Errorf("add: %.0f allocations, want 1 (the step must not escape)", allocs)
	}

	shares := func(a, b profile) bool {
		return len(a.segs) > 0 && &a.segs[0] == &b.segs[0] && len(a.segs) == len(b.segs)
	}
	if got := (profile{}).merge(p); !shares(got, p) {
		t.Error("merge into the zero profile copied the other side")
	}
	if got := p.merge(profile{}); !shares(got, p) {
		t.Error("merge of the zero profile copied the receiver")
	}
	if got, _ := p.splice([]segment{{span: interval.New(5000, 5010), rate: 1}}, opSubSaturate); !shares(got, p) {
		t.Error("saturating subtract outside the profile copied it")
	}
	if got := p.clamp(interval.New(-5, 1<<20)); !shares(got, p) {
		t.Error("clamp to a window containing the profile copied it")
	}
}
