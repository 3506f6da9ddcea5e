package interval

import (
	"sort"
	"strings"
)

// Test helpers. No binary uses these: the relation-set builders and
// operations, interval subtraction and interval sets below are kept for
// the tests of the composition table and of the algebra's laws.

// NewRelSet builds a set from individual relations.
func NewRelSet(rs ...Relation) RelSet {
	var s RelSet
	for _, r := range rs {
		s = s.Add(r)
	}
	return s
}

// Intersect returns the relations common to both sets.
func (s RelSet) Intersect(other RelSet) RelSet {
	return s & other
}

// Union returns relations present in either set.
func (s RelSet) Union(other RelSet) RelSet {
	return s | other
}

// IsEmpty reports whether the set contains no relation.
func (s RelSet) IsEmpty() bool {
	return s&FullRelSet == 0
}

// Converse returns the set of converses of the members.
func (s RelSet) Converse() RelSet {
	var out RelSet
	for _, r := range AllRelations {
		if s.Has(r) {
			out = out.Add(r.Converse())
		}
	}
	return out
}

// ComposeSets lifts Compose to relation sets: the union of compositions of
// all member pairs.
func ComposeSets(s1, s2 RelSet) RelSet {
	var out RelSet
	for _, r1 := range AllRelations {
		if !s1.Has(r1) {
			continue
		}
		for _, r2 := range AllRelations {
			if s2.Has(r2) {
				out = out.Union(Compose(r1, r2))
			}
		}
	}
	return out
}

// Subtract returns iv \ other as up to two disjoint intervals, in
// ascending order. Empty pieces are omitted.
func (iv Interval) Subtract(other Interval) []Interval {
	if iv.Empty() {
		return nil
	}
	ov := iv.Intersect(other)
	if ov.Empty() {
		return []Interval{iv}
	}
	var out []Interval
	if left := (Interval{Start: iv.Start, End: ov.Start}); !left.Empty() {
		out = append(out, left)
	}
	if right := (Interval{Start: ov.End, End: iv.End}); !right.Empty() {
		out = append(out, right)
	}
	return out
}

// Set is a normalized union of disjoint, non-adjacent, non-empty intervals
// kept in ascending order. It supports the set operations the paper uses
// on time intervals: union (∪), intersection (∩) and relative complement
// (\).
//
// The zero value is the empty set, ready for use. Set values are treated
// as immutable: operations return new sets.
type Set struct {
	ivs []Interval
}

// NewSet builds a normalized set from arbitrary intervals (they may be
// empty, unordered or overlapping).
func NewSet(ivs ...Interval) Set {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			work = append(work, iv)
		}
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].Start != work[j].Start {
			return work[i].Start < work[j].Start
		}
		return work[i].End < work[j].End
	})
	var out []Interval
	for _, iv := range work {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return Set{ivs: out}
}

// Intervals returns a copy of the member intervals in ascending order.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Empty reports whether the set covers no ticks.
func (s Set) Empty() bool {
	return len(s.ivs) == 0
}

// Len returns the total number of ticks covered.
func (s Set) Len() Time {
	var total Time
	for _, iv := range s.ivs {
		total += iv.Len()
	}
	return total
}

// Contains reports whether tick t is covered.
func (s Set) Contains(t Time) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// ContainsInterval reports whether every tick of iv is covered. Because
// members are non-adjacent, iv must fit inside a single member.
func (s Set) ContainsInterval(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > iv.Start })
	return i < len(s.ivs) && s.ivs[i].ContainsInterval(iv)
}

// Hull returns the smallest single interval covering the set.
func (s Set) Hull() Interval {
	if len(s.ivs) == 0 {
		return Interval{}
	}
	return Interval{Start: s.ivs[0].Start, End: s.ivs[len(s.ivs)-1].End}
}

// Union returns s ∪ other.
func (s Set) Union(other Set) Set {
	return NewSet(append(s.Intervals(), other.ivs...)...)
}

// Intersect returns s ∩ other by sweeping both ordered lists.
func (s Set) Intersect(other Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		ov := s.ivs[i].Intersect(other.ivs[j])
		if !ov.Empty() {
			out = append(out, ov)
		}
		if s.ivs[i].End < other.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

// Subtract returns s \ other.
func (s Set) Subtract(other Set) Set {
	var out []Interval
	for _, iv := range s.ivs {
		rest := []Interval{iv}
		for _, sub := range other.ivs {
			if sub.Start >= iv.End {
				break
			}
			var next []Interval
			for _, piece := range rest {
				next = append(next, piece.Subtract(sub)...)
			}
			rest = next
		}
		out = append(out, rest...)
	}
	return Set{ivs: out}
}

// Equal reports whether both sets cover exactly the same ticks.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != other.ivs[i] {
			return false
		}
	}
	return true
}

// Clamp returns the subset of s lying within window.
func (s Set) Clamp(window Interval) Set {
	return s.Intersect(NewSet(window))
}

// String renders the set as "(a,b)∪(c,d)"; the empty set renders as "(∅)".
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "(∅)"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}
