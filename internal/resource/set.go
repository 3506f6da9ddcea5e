package resource

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// The zero value is the empty set, ready for use. Pure operations (Union,
// Subtract, Clamp, ...) return new sets; mutating operations (Add,
// Consume, TrimBefore) are documented as such. A mutating operation
// replaces a located type's whole profile and never writes into one, so
// sets derived from one another share the profiles they have in common
// (see patch.go for the contract).
type Set struct {
	profiles map[LocatedType]profile
}

// NewSet builds a normalized set from terms.
func NewSet(terms ...Term) Set {
	var s Set
	for _, t := range terms {
		s.Add(t)
	}
	return s
}

// Clone returns a copy the caller owns: mutating either set afterwards
// leaves the other unchanged. Profiles are immutable, so the copy costs
// one map, whatever the number of segments.
func (s Set) Clone() Set {
	if len(s.profiles) == 0 {
		return Set{}
	}
	out := Set{profiles: make(map[LocatedType]profile, len(s.profiles))}
	for lt, p := range s.profiles {
		out.profiles[lt] = p
	}
	return out
}

// put stores lt's profile in place, dropping the entry when the profile
// is zero everywhere.
func (s *Set) put(lt LocatedType, p profile) {
	if p.empty() {
		delete(s.profiles, lt)
		return
	}
	if s.profiles == nil {
		s.profiles = make(map[LocatedType]profile)
	}
	s.profiles[lt] = p
}

// Add merges a term into the set in place (Θ ∪ {t} with simplification).
// Null terms are ignored.
func (s *Set) Add(t Term) {
	if t.Null() {
		return
	}
	s.put(t.Type, s.profiles[t.Type].add(t.Span, t.Rate))
}

// Union returns Θ1 ∪ Θ2 as a new set.
func (s Set) Union(other Set) Set {
	out := s.Clone()
	out.AddSet(other)
	return out
}

// Empty reports whether the set provides no resource at all.
func (s Set) Empty() bool {
	for _, p := range s.profiles {
		if !p.empty() {
			return false
		}
	}
	return true
}

// Types returns the located types present, in deterministic order.
func (s Set) Types() []LocatedType {
	out := make([]LocatedType, 0, len(s.profiles))
	for lt, p := range s.profiles {
		if !p.empty() {
			out = append(out, lt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Locations returns the locations of the located types present, sorted
// and distinct. A directed link counts at its source, which is where the
// cost model charges it.
func (s Set) Locations() []Location {
	out := make([]Location, 0, len(s.profiles))
	for lt, p := range s.profiles {
		if !p.empty() {
			out = append(out, lt.Loc)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Terms returns the normalized terms of the set in deterministic order:
// by located type, then by interval start.
func (s Set) Terms() []Term {
	var out []Term
	for _, lt := range s.Types() {
		for _, seg := range s.profiles[lt].segs {
			out = append(out, Term{Rate: seg.rate, Type: lt, Span: seg.span})
		}
	}
	return out
}

// NumTerms returns the number of normalized terms.
func (s Set) NumTerms() int {
	n := 0
	for _, p := range s.profiles {
		n += len(p.segs)
	}
	return n
}

// RateAt returns the available rate of lt at tick t.
func (s Set) RateAt(lt LocatedType, t interval.Time) Rate {
	return s.profiles[lt].rateAt(t)
}

// MinRate returns the minimum rate of lt over the window (zero if any
// tick is uncovered).
func (s Set) MinRate(lt LocatedType, window interval.Interval) Rate {
	return s.profiles[lt].minRate(window)
}

// QuantityWithin integrates availability of lt over the window. This is
// the ∪ₛᵈ Θ aggregate used by the paper's satisfy function f.
func (s Set) QuantityWithin(lt LocatedType, window interval.Interval) Quantity {
	return s.profiles[lt].quantity(window)
}

// TotalQuantity integrates availability of every type over the window.
func (s Set) TotalQuantity(window interval.Interval) map[LocatedType]Quantity {
	out := make(map[LocatedType]Quantity, len(s.profiles))
	for lt, p := range s.profiles {
		if q := p.quantity(window); q > 0 {
			out[lt] = q
		}
	}
	return out
}

// Covers reports whether the set provides at least term.Rate of
// term.Type at every tick of term.Span — the set-level generalization of
// term dominance (a single dominating term implies coverage, but coverage
// may also be assembled from simplification of several terms).
func (s Set) Covers(term Term) bool {
	if term.Null() {
		return true
	}
	return s.profiles[term.Type].covers(term.Span, term.Rate)
}

// Dominates reports whether Θ1 \ Θ2 is defined: availability in s meets
// or exceeds other at every tick for every located type.
func (s Set) Dominates(other Set) bool {
	for lt, q := range other.profiles {
		p := s.profiles[lt]
		for _, seg := range q.segs {
			if !p.covers(seg.span, seg.rate) {
				return false
			}
		}
	}
	return true
}

// Subtract returns Θ1 \ Θ2 per §III, or ErrInsufficient when the
// complement is undefined. Each located type of other is removed in one
// splice, which also is the coverage check.
func (s Set) Subtract(other Set) (Set, error) {
	out := s.Clone()
	for lt, q := range other.profiles {
		p, ok := s.profiles[lt].splice(q.segs, opSub)
		if !ok {
			return Set{}, ErrInsufficient
		}
		out.put(lt, p)
	}
	return out, nil
}

// SubtractTerm returns Θ \ {t}.
func (s Set) SubtractTerm(t Term) (Set, error) {
	return s.Subtract(NewSet(t))
}

// SubtractSaturating removes as much of other as is present, clamping at
// zero instead of failing — the removal semantics of a resource that
// reneges on its advertised availability: whatever overlap exists
// disappears, regardless of whether something was counting on it.
func (s Set) SubtractSaturating(other Set) Set {
	out := s.Clone()
	for lt, q := range other.profiles {
		p, _ := s.profiles[lt].splice(q.segs, opSubSaturate)
		out.put(lt, p)
	}
	return out
}

// Consume removes rate×span of lt from the set in place. It returns
// ErrInsufficient (leaving the set unchanged) when coverage is lacking.
// This is the mutation the transition rules apply each Δt.
func (s *Set) Consume(lt LocatedType, span interval.Interval, rate Rate) error {
	if span.Empty() || rate <= 0 {
		return nil
	}
	p, ok := s.profiles[lt].splice([]segment{{span: span, rate: rate}}, opSub)
	if !ok {
		return ErrInsufficient
	}
	s.put(lt, p)
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
	p, ok := s.profiles[lt].splice(segs, opSub)
	if !ok {
		return ErrInsufficient
	}
	s.put(lt, p)
	return nil
}

// TrimBefore discards all availability before tick t in place, modeling
// expiration of resources as the clock advances (the paper's resource
// expiration rules). It returns the expired portion as a new set.
func (s *Set) TrimBefore(t interval.Time) Set {
	expired := Set{}
	for lt, p := range s.profiles {
		expired.put(lt, p.clamp(interval.New(interval.NegInfinity, t)))
		s.put(lt, p.clamp(interval.New(t, interval.Infinity)))
	}
	return expired
}

// Clamp returns the subset of availability inside the window.
func (s Set) Clamp(window interval.Interval) Set {
	if len(s.profiles) == 0 {
		return Set{}
	}
	out := Set{profiles: make(map[LocatedType]profile, len(s.profiles))}
	for lt, p := range s.profiles {
		out.put(lt, p.clamp(window))
	}
	return out
}

// Restrict returns the availability of the listed located types inside
// the window: the slice of Θ a search confined to those types and that
// window can ever read. Its size is that of the slice, not of s.
func (s Set) Restrict(window interval.Interval, types ...LocatedType) Set {
	out := Set{}
	for _, lt := range types {
		if _, done := out.profiles[lt]; !done {
			out.put(lt, s.profiles[lt].clamp(window))
		}
	}
	return out
}

// EachSegment calls fn, in time order, for every stretch of constant
// positive availability of lt inside the window, until fn returns false.
// It allocates nothing: the read-side alternative to Clamp(window).Terms().
func (s Set) EachSegment(lt LocatedType, window interval.Interval, fn func(span interval.Interval, rate Rate) bool) {
	s.profiles[lt].each(window, fn)
}

// EarliestWindow finds the earliest interval of the given duration,
// within the given bounds, throughout which lt is available at rate or
// better — the query a planner asks when placing a constant-rate
// reservation. It returns ok=false when no such window exists.
func (s Set) EarliestWindow(lt LocatedType, rate Rate, duration interval.Time, within interval.Interval) (interval.Interval, bool) {
	if duration <= 0 || rate <= 0 {
		return interval.New(within.Start, within.Start), !within.Empty()
	}
	p := s.profiles[lt].clamp(within)
	runStart := interval.Time(0)
	runEnd := interval.Time(0)
	inRun := false
	for _, seg := range p.segs {
		if seg.rate < rate {
			inRun = false
			continue
		}
		if inRun && seg.span.Start == runEnd {
			runEnd = seg.span.End
		} else {
			runStart, runEnd = seg.span.Start, seg.span.End
			inRun = true
		}
		if runEnd-runStart >= duration {
			return interval.New(runStart, runStart+duration), true
		}
	}
	return interval.Interval{}, false
}

// Support returns the ticks during which lt is available at all.
func (s Set) Support(lt LocatedType) interval.Set {
	return s.profiles[lt].support()
}

// Hull returns the smallest interval covering all availability of every
// type.
func (s Set) Hull() interval.Interval {
	var hull interval.Interval
	for _, p := range s.profiles {
		hull = hull.Hull(p.hull())
	}
	return hull
}

// Equal reports point-wise equality of two sets.
func (s Set) Equal(other Set) bool {
	for lt, p := range s.profiles {
		if !p.equal(other.profiles[lt]) {
			return false
		}
	}
	for lt, p := range other.profiles {
		if _, seen := s.profiles[lt]; !seen && !p.empty() {
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
	types := s.Types()
	size := 0
	for _, lt := range types {
		size += len(s.profiles[lt].segs) * (len(lt.Kind) + len(lt.Loc) + len(lt.Dst) + termTextBytes)
	}
	var out strings.Builder
	out.Grow(size)
	var buf [96]byte
	for _, lt := range types {
		for _, seg := range s.profiles[lt].segs {
			if out.Len() > 0 {
				out.WriteByte(',')
			}
			out.Write(appendTerm(buf[:0], seg.rate, lt, seg.span))
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
// It reads the text in one pass into a list of terms, sorts the list by
// located type and start unless it is in that order already, as
// Compact's output is, and builds each type's segments in one run at the
// tail of a single backing array. A term that starts after the last
// segment of its type, and does not abut it at an equal rate, is
// appended there, so text whose terms do not overlap costs O(terms)
// after the sort, however its types interleave. A term that overlaps the
// last segment or meets it at an equal rate is folded in by an add
// splice, exactly as NewSet would.
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
	if !slices.IsSortedFunc(terms, byTypeThenStart) {
		slices.SortFunc(terms, byTypeThenStart)
	}
	var (
		s     Set
		arena = make([]segment, 0, len(terms))
		run   int // the current type's segments are arena[run:]
	)
	for i, t := range terms {
		if i > 0 && t.Type != terms[i-1].Type {
			s.put(terms[i-1].Type, profile{segs: arena[run:len(arena):len(arena)]})
			run = len(arena)
		}
		seg := segment{span: t.Span, rate: t.Rate}
		if n := len(arena); n > run {
			if last := arena[n-1]; seg.span.Start < last.span.End ||
				seg.span.Start == last.span.End && seg.rate == last.rate {
				arena = append(arena[:run], profile{segs: arena[run:]}.add(seg.span, seg.rate).segs...)
				continue
			}
		}
		arena = append(arena, seg)
	}
	if len(terms) > 0 {
		s.put(terms[len(terms)-1].Type, profile{segs: arena[run:len(arena):len(arena)]})
	}
	return s, nil
}

// byTypeThenStart orders terms as Compact writes them: by located type,
// then by start.
func byTypeThenStart(a, b Term) int {
	switch {
	case a.Type.less(b.Type):
		return -1
	case b.Type.less(a.Type):
		return 1
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
