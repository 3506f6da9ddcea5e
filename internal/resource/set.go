package resource

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/interval"
)

// ErrInsufficient is returned by Subtract when the subtrahend is not
// dominated by the receiver — the paper defines relative complement only
// when every required term has a dominating available term, because
// negative resource terms are meaningless.
var ErrInsufficient = errors.New("resource: relative complement undefined (insufficient resources)")

// Set is the paper's resource set Θ: a collection of resource terms kept
// in simplified (normalized) form — for each located type, a step function
// of total available rate over time. Simultaneously-available identical
// located types have their rates summed, exactly as §III's simplification
// rule prescribes.
//
// Located types are disjoint resources, so Θ is a product over them: a
// Set is one sorted run of (located type, profile) entries, ordered by
// located type, none holding the everywhere-zero profile. A lookup is a
// binary search, and every operation on two sets walks both runs once.
// Every run an operation builds is exactly sized (len == cap), so an
// entry inserted into one holder's set is never written into capacity
// another holder's set can reach.
//
// The zero value is the empty set, ready for use. Pure operations (Union,
// Subtract, Clamp, ...) return new sets; mutating operations (Add,
// Consume, TrimBefore) are documented as such. A mutating operation
// replaces a located type's whole profile and never writes into one, so
// sets derived from one another share the profiles they have in common
// (see patch.go for the contract).
type Set struct {
	entries []entry
}

// entry is one located type's availability in a Set: a profile that is
// not empty.
type entry struct {
	lt LocatedType
	p  profile
}

// fromEntries returns the set holding run, an exactly sized run of
// entries in type order, none empty; a run that was allocated for more
// entries than it holds is cut to its length, and an empty one is the
// zero Set.
func fromEntries(run []entry) Set {
	if len(run) == 0 {
		return Set{}
	}
	return Set{entries: run[:len(run):len(run)]}
}

// locate returns the index of lt's entry, whether it is present and its
// profile; an absent type has the zero profile, and its index is where
// its entry would be inserted.
func (s Set) locate(lt LocatedType) (at int, found bool, p profile) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := s.entries[m].lt.compare(lt); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true, s.entries[m].p
		}
	}
	return lo, false, profile{}
}

// profileOf returns lt's profile, the zero profile when lt is absent.
func (s Set) profileOf(lt LocatedType) profile {
	_, _, p := s.locate(lt)
	return p
}

// NewSet builds a normalized set from terms.
func NewSet(terms ...Term) Set {
	var s Set
	for _, t := range terms {
		s.Add(t)
	}
	return s
}

// SetOf builds the set NewSet(terms...) builds, in one sorted pass: it
// orders terms by located type, then start — reordering the caller's
// slice unless it is in that order already — and makes one exactly sized
// run of entries and, for each type, one run of segments, chunked past
// chunkSize. A type whose terms do not overlap, as a witness plan's
// allocations of one type mostly do not, costs that run and nothing
// else. Null terms are skipped.
func SetOf(terms []Term) Set {
	if !slices.IsSortedFunc(terms, byTypeThenStart) {
		slices.SortFunc(terms, byTypeThenStart)
	}
	types := 0
	var last LocatedType
	for _, t := range terms {
		if !t.Null() && (types == 0 || t.Type != last) {
			types, last = types+1, t.Type
		}
	}
	if types == 0 {
		return Set{}
	}
	entries := make([]entry, 0, types)
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j].Type == terms[i].Type {
			j++
		}
		if run := appendSteps(make([]segment, 0, steps(terms[i:j])), terms[i:j]); len(run) > 0 {
			entries = append(entries, entry{lt: terms[i].Type, p: fromRun(run[:len(run):len(run)])})
		}
		i = j
	}
	return fromEntries(entries)
}

// steps returns the number of segments appendSteps makes of one type's
// terms, sorted by start, when none overlaps another: one per term that
// is not null and does not continue its predecessor at an equal rate.
func steps(terms []Term) int {
	n := 0
	var last Term
	for _, t := range terms {
		if t.Null() {
			continue
		}
		if n == 0 || t.Span.Start != last.Span.End || t.Rate != last.Rate {
			n++
		}
		last = t
	}
	return n
}

// appendSteps adds one type's terms, sorted by start, to run, a canonical
// run of segments the caller owns, and returns it canonical. A term that
// starts after the run ends is appended and one that meets its end at
// the same rate extends it, in place; one that overlaps the run is
// folded in by an add splice.
func appendSteps(run []segment, terms []Term) []segment {
	for _, t := range terms {
		if t.Null() {
			continue
		}
		seg, n := segment{span: t.Span, rate: t.Rate}, len(run)
		switch {
		case n == 0 || seg.span.Start > run[n-1].span.End ||
			seg.span.Start == run[n-1].span.End && seg.rate != run[n-1].rate:
			run = append(run, seg)
		case seg.span.Start == run[n-1].span.End:
			run[n-1].span.End = seg.span.End
		default:
			// The sum is built in fresh storage, so copying it back into
			// run reads nothing it overwrites.
			run = profile{segs: run}.add(seg.span, seg.rate).appendTo(run[:0])
		}
	}
	return run
}

// UnionOf returns the union of sets in one exactly sized run of entries.
// It is built for views whose located types are disjoint, as a ledger's
// location shards are: their union is their entries interleaved in type
// order, each profile shared and none merged. A type more than one set
// holds is merged, as Union merges it.
func UnionOf(sets []Set) Set {
	n := 0
	for _, s := range sets {
		n += len(s.entries)
	}
	if n == 0 {
		return Set{}
	}
	out := make([]entry, 0, n)
	for _, s := range sets {
		out = append(out, s.entries...)
	}
	slices.SortStableFunc(out, func(a, b entry) int { return a.lt.compare(b.lt) })
	k := 0
	for _, e := range out[1:] {
		if e.lt == out[k].lt {
			out[k].p = out[k].p.merge(e.p)
			continue
		}
		k++
		out[k] = e
	}
	return fromEntries(out[:k+1])
}

// Clone returns a copy the caller owns: mutating either set afterwards
// leaves the other unchanged. Profiles are immutable, so the copy costs
// one exactly sized run of entries, whatever the number of segments.
func (s Set) Clone() Set {
	if len(s.entries) == 0 {
		return Set{}
	}
	out := make([]entry, len(s.entries))
	copy(out, s.entries)
	return Set{entries: out}
}

// put stores p as lt's profile in place, at and found being what locate
// returned for lt. A profile that is zero everywhere drops the entry.
// Replacing a profile writes into the run; inserting or dropping an
// entry builds a new exactly sized one, so that a holder of the old run
// never sees a half-shifted copy.
func (s *Set) put(at int, found bool, lt LocatedType, p profile) {
	switch {
	case found && !p.empty():
		s.entries[at].p = p
	case found:
		out := make([]entry, 0, len(s.entries)-1)
		*s = fromEntries(append(append(out, s.entries[:at]...), s.entries[at+1:]...))
	case !p.empty():
		out := make([]entry, 0, len(s.entries)+1)
		out = append(append(out, s.entries[:at]...), entry{lt: lt, p: p})
		s.entries = append(out, s.entries[at:]...)
	}
}

// Add merges a term into the set in place (Θ ∪ {t} with simplification).
// Null terms are ignored.
func (s *Set) Add(t Term) {
	if t.Null() {
		return
	}
	at, found, p := s.locate(t.Type)
	s.put(at, found, t.Type, p.add(t.Span, t.Rate))
}

// Union returns Θ1 ∪ Θ2 as a new set.
func (s Set) Union(other Set) Set {
	return fromEntries(union(s.entries, other.entries))
}

// unionLen returns the number of distinct located types in two runs.
func unionLen(a, b []entry) int {
	n := len(a) + len(b)
	for len(a) > 0 && len(b) > 0 {
		switch c := a[0].lt.compare(b[0].lt); {
		case c < 0:
			a = a[1:]
		case c > 0:
			b = b[1:]
		default:
			a, b, n = a[1:], b[1:], n-1
		}
	}
	return n
}

// union returns the sum of two runs in one exactly sized run. A type
// only one side holds keeps that side's profile.
func union(a, b []entry) []entry {
	n := unionLen(a, b)
	if n == 0 {
		return nil
	}
	out := make([]entry, 0, n)
	for len(a) > 0 && len(b) > 0 {
		switch c := a[0].lt.compare(b[0].lt); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, entry{lt: a[0].lt, p: a[0].p.merge(b[0].p)})
			a, b = a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Empty reports whether the set provides no resource at all.
func (s Set) Empty() bool {
	return len(s.entries) == 0
}

// EachType calls fn with each located type present, in order, and the
// hull of its availability.
func (s Set) EachType(fn func(lt LocatedType, hull interval.Interval)) {
	for _, e := range s.entries {
		fn(e.lt, e.p.hull())
	}
}

// Locations returns the locations of the located types present, sorted
// and distinct. A directed link counts at its source, which is where the
// cost model charges it.
func (s Set) Locations() []Location {
	out := make([]Location, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.lt.Loc
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Terms returns the normalized terms of the set in deterministic order:
// by located type, then by interval start.
func (s Set) Terms() []Term {
	n := s.NumTerms()
	if n == 0 {
		return nil
	}
	out := make([]Term, 0, n)
	for _, e := range s.entries {
		segs := e.p.all()
		for seg, ok := segs.next(); ok; seg, ok = segs.next() {
			out = append(out, Term{Rate: seg.rate, Type: e.lt, Span: seg.span})
		}
	}
	return out
}

// NumTerms returns the number of normalized terms.
func (s Set) NumTerms() int {
	n := 0
	for _, e := range s.entries {
		n += e.p.len()
	}
	return n
}

// MinRate returns the minimum rate of lt over the window (zero if any
// tick is uncovered).
func (s Set) MinRate(lt LocatedType, window interval.Interval) Rate {
	return s.profileOf(lt).minRate(window)
}

// QuantityWithin integrates availability of lt over the window. This is
// the ∪ₛᵈ Θ aggregate used by the paper's satisfy function f.
func (s Set) QuantityWithin(lt LocatedType, window interval.Interval) Quantity {
	return s.profileOf(lt).quantity(window)
}

// TotalWithin integrates availability over the window, summed across
// every type: TotalQuantity's values added up, with no map built.
func (s Set) TotalWithin(window interval.Interval) Quantity {
	var total Quantity
	for _, e := range s.entries {
		if q := e.p.quantity(window); q > 0 {
			total += q
		}
	}
	return total
}

// Dominates reports whether Θ1 \ Θ2 is defined: availability in s meets
// or exceeds other at every tick for every located type.
func (s Set) Dominates(other Set) bool {
	a := s.entries
	for _, q := range other.entries {
		for len(a) > 0 && a[0].lt.less(q.lt) {
			a = a[1:]
		}
		if len(a) == 0 || a[0].lt != q.lt {
			return false // q is not empty, and s has none of its type
		}
		segs := q.p.all()
		for seg, ok := segs.next(); ok; seg, ok = segs.next() {
			if !a[0].p.covers(seg.span, seg.rate) {
				return false
			}
		}
	}
	return true
}

// DominatesWithin reports whether s meets or exceeds other at every tick
// of every located type within names, inside the hull of that type's
// availability in within: Dominates, confined to within's types and
// hulls. It allocates nothing, so a writer can check a patched view
// against the set bounding it where the patch reached, and nowhere else.
func (s Set) DominatesWithin(other, within Set) bool {
	for _, w := range within.entries {
		p, ok := s.profileOf(w.lt), true
		other.profileOf(w.lt).each(w.p.hull(), func(span interval.Interval, rate Rate) bool {
			ok = p.covers(span, rate)
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

// Subtract returns Θ1 \ Θ2 per §III, or ErrInsufficient when the
// complement is undefined. Each located type of other is removed in one
// splice, which also is the coverage check.
func (s Set) Subtract(other Set) (Set, error) {
	out, ok := subtract(s.entries, other.entries, opSub)
	if !ok {
		return Set{}, ErrInsufficient
	}
	return fromEntries(out), nil
}

// subtract returns a minus b, splicing each type b holds with op, in one
// run sized for a. An exact subtraction fails when b holds more of a
// type than a, or a type a lacks; a saturating one clamps at zero and
// ignores the types a lacks.
func subtract(a, b []entry, op spliceOp) ([]entry, bool) {
	if len(a) == 0 {
		return nil, len(b) == 0 || op == opSubSaturate
	}
	out := make([]entry, 0, len(a))
	for _, e := range a {
		for len(b) > 0 && b[0].lt.less(e.lt) {
			if op == opSub {
				return nil, false
			}
			b = b[1:]
		}
		if len(b) == 0 || b[0].lt != e.lt {
			out = append(out, e)
			continue
		}
		p, ok := e.p.splice(b[0].p, op)
		if !ok {
			return nil, false
		}
		if b = b[1:]; !p.empty() {
			out = append(out, entry{lt: e.lt, p: p})
		}
	}
	return out, len(b) == 0 || op == opSubSaturate
}

// SubtractSaturating removes as much of other as is present, clamping at
// zero instead of failing — the removal semantics of a resource that
// reneges on its advertised availability: whatever overlap exists
// disappears, regardless of whether something was counting on it.
func (s Set) SubtractSaturating(other Set) Set {
	out, _ := subtract(s.entries, other.entries, opSubSaturate)
	return fromEntries(out)
}

// Consume removes rate×span of lt from the set in place. It returns
// ErrInsufficient (leaving the set unchanged) when coverage is lacking.
// This is the mutation the transition rules apply each Δt.
func (s *Set) Consume(lt LocatedType, span interval.Interval, rate Rate) error {
	if span.Empty() || rate <= 0 {
		return nil
	}
	return s.consume(lt, profile{segs: []segment{{span: span, rate: rate}}})
}

// consume splices q out of lt's profile in place, or returns
// ErrInsufficient and leaves the set unchanged.
func (s *Set) consume(lt LocatedType, q profile) error {
	at, found, p := s.locate(lt)
	p, ok := p.splice(q, opSub)
	if !ok {
		return ErrInsufficient
	}
	s.put(at, found, lt, p)
	return nil
}

// ConsumeTerms removes the terms — all of one located type, in time order
// and disjoint, as a planner's allocations for one phase are — from the
// set in place, in one splice. It returns ErrInsufficient (leaving the
// set unchanged) when coverage is lacking. Null terms are skipped.
func (s *Set) ConsumeTerms(terms []Term) error {
	var buf [8]segment
	segs := buf[:0]
	var lt LocatedType
	for _, t := range terms {
		if t.Null() {
			continue
		}
		if n := len(segs); n > 0 && (t.Type != lt || t.Span.Start < segs[n-1].span.End) {
			panic("resource: ConsumeTerms needs terms of one located type in time order")
		}
		lt = t.Type
		segs = append(segs, segment{span: t.Span, rate: t.Rate})
	}
	if len(segs) == 0 {
		return nil
	}
	return s.consume(lt, profile{segs: segs})
}

// TrimBefore discards all availability before tick t in place, modeling
// expiration of resources as the clock advances (the paper's resource
// expiration rules). It returns the expired portion as a new set.
func (s *Set) TrimBefore(t interval.Time) Set {
	expires, lasts := 0, 0
	for _, e := range s.entries {
		if e.p.first().span.Start < t {
			expires++
		}
		if e.p.last().span.End > t {
			lasts++
		}
	}
	past, future := interval.New(interval.NegInfinity, t), interval.New(t, interval.Infinity)
	var expired []entry
	if expires > 0 {
		expired = make([]entry, 0, expires)
	}
	kept := s.entries
	if lasts < len(s.entries) {
		kept = make([]entry, 0, lasts)
	}
	for i, e := range s.entries {
		if e.p.first().span.Start < t {
			expired = append(expired, entry{lt: e.lt, p: e.p.clamp(past)})
		}
		switch p := e.p.clamp(future); {
		case lasts == len(s.entries):
			kept[i].p = p
		case !p.empty():
			kept = append(kept, entry{lt: e.lt, p: p})
		}
	}
	*s = fromEntries(kept)
	return fromEntries(expired)
}

// Clamp returns the subset of availability inside the window.
func (s Set) Clamp(window interval.Interval) Set {
	if len(s.entries) == 0 {
		return Set{}
	}
	out := make([]entry, 0, len(s.entries))
	for _, e := range s.entries {
		if p := e.p.clamp(window); !p.empty() {
			out = append(out, entry{lt: e.lt, p: p})
		}
	}
	return fromEntries(out)
}

// Restrict returns the availability of the listed located types inside
// the window: the slice of Θ a search confined to those types and that
// window can ever read. Its size is that of the slice, not of s. The
// types may come in any order, and more than once: each is looked up
// and marked, and the marked entries are read in s's order.
func (s Set) Restrict(window interval.Interval, types ...LocatedType) Set {
	var small [1]uint64
	marked := small[:]
	if len(s.entries) > 64 {
		marked = make([]uint64, (len(s.entries)+63)/64)
	}
	for _, lt := range types {
		if at, found, _ := s.locate(lt); found {
			marked[at/64] |= 1 << (at % 64)
		}
	}
	n := 0
	for _, w := range marked {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return Set{}
	}
	out := make([]entry, 0, n)
	for i, e := range s.entries {
		if marked[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		if p := e.p.clamp(window); !p.empty() {
			out = append(out, entry{lt: e.lt, p: p})
		}
	}
	return fromEntries(out)
}

// EachSegment calls fn, in time order, for every stretch of constant
// positive availability of lt inside the window, until fn returns false.
// It allocates nothing: the read-side alternative to Clamp(window).Terms().
func (s Set) EachSegment(lt LocatedType, window interval.Interval, fn func(span interval.Interval, rate Rate) bool) {
	s.profileOf(lt).each(window, fn)
}

// Hull returns the smallest interval covering all availability of every
// type.
func (s Set) Hull() interval.Interval {
	var hull interval.Interval
	for _, e := range s.entries {
		hull = hull.Hull(e.p.hull())
	}
	return hull
}

// Equal reports point-wise equality of two sets. Neither run holds an
// empty profile, so equal sets hold the same types in the same order.
func (s Set) Equal(other Set) bool {
	if len(s.entries) != len(other.entries) {
		return false
	}
	for i, e := range s.entries {
		if f := other.entries[i]; e.lt != f.lt || !e.p.equal(f.p) {
			return false
		}
	}
	return true
}

// String renders the set as "{[5]⟨cpu,l1⟩(0,3), ...}" in deterministic
// order; the empty set renders as "{}".
func (s Set) String() string {
	terms := s.Terms()
	if len(terms) == 0 {
		return "{}"
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Compact renders the set in scenario-file syntax: comma-separated
// compact terms, in Terms order.
func (s Set) Compact() string {
	size := 0
	for _, e := range s.entries {
		size += e.p.len() * (len(e.lt.Kind) + len(e.lt.Loc) + len(e.lt.Dst) + termTextBytes)
	}
	var out strings.Builder
	out.Grow(size)
	var buf [96]byte
	for _, e := range s.entries {
		segs := e.p.all()
		for seg, ok := segs.next(); ok; seg, ok = segs.next() {
			if out.Len() > 0 {
				out.WriteByte(',')
			}
			out.Write(appendTerm(buf[:0], seg.rate, e.lt, seg.span))
		}
	}
	return out.String()
}

// termTextBytes is Compact's guess at what a term's text takes beyond
// its located type's names: separators, a rate and two ticks.
const termTextBytes = 24

// ParseSet parses the comma-separated compact syntax produced by Compact.
// An empty string yields the empty set.
//
// It reads the text in one pass into a list of terms and builds the set
// with SetOf, so text whose terms do not overlap, as Compact's output
// does not, costs O(terms) once they are sorted, however its types
// interleave.
func ParseSet(str string) (Set, error) {
	str = strings.TrimSpace(str)
	// A term has two colons and is at least as long as the shortest one.
	terms := make([]Term, 0, min(strings.Count(str, ":")/2, len(str)/len("1:k@l:(0,1)")))
	for rest := str; rest != ""; {
		var field string
		field, rest = cutTopLevel(rest)
		if field = strings.TrimSpace(field); field == "" {
			continue
		}
		t, err := ParseTerm(field)
		if err != nil {
			return Set{}, fmt.Errorf("resource: parse set: %w", err)
		}
		if !t.Null() {
			terms = append(terms, t)
		}
	}
	return SetOf(terms), nil
}

// byTypeThenStart orders terms as Compact writes them: by located type,
// then by start.
func byTypeThenStart(a, b Term) int {
	if c := a.Type.compare(b.Type); c != 0 {
		return c
	}
	return cmp.Compare(a.Span.Start, b.Span.Start)
}

// cutTopLevel splits s around its first comma that is not inside
// parentheses, so that interval notation "(0,3)" survives inside a term.
// Without such a comma, field is all of s.
func cutTopLevel(s string) (field, rest string) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				return s[:i], s[i+1:]
			}
		}
	}
	return s, ""
}

// Locations names n locations l1..ln.
func Locations(n int) []Location {
	locs := make([]Location, n)
	for i := range locs {
		locs[i] = Location(fmt.Sprintf("l%d", i+1))
	}
	return locs
}

// Mesh builds a uniform availability over (0, horizon): cpuRate cpu at
// every location plus a full mesh of linkRate links between them. A
// non-positive rate leaves that kind out.
func Mesh(locs []Location, cpuRate, linkRate int64, horizon interval.Time) Set {
	var theta Set
	window := interval.New(0, horizon)
	for _, loc := range locs {
		if cpuRate > 0 {
			theta.Add(NewTerm(FromUnits(cpuRate), CPUAt(loc), window))
		}
	}
	if linkRate > 0 {
		for _, src := range locs {
			for _, dst := range locs {
				if src != dst {
					theta.Add(NewTerm(FromUnits(linkRate), Link(src, dst), window))
				}
			}
		}
	}
	return theta
}
