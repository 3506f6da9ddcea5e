package interval

// Test helpers. No binary uses these: the relation-set builders and
// operations, interval subtraction and tick membership below are kept
// for the tests of the composition table and of the algebra's laws.

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

// Contains reports whether tick t lies inside the interval.
func (iv Interval) Contains(t Time) bool {
	return iv.Start <= t && t < iv.End
}

// Equal reports whether two intervals cover the same ticks. All empty
// intervals are equal to each other.
func (iv Interval) Equal(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return iv.Empty() && other.Empty()
	}
	return iv.Start == other.Start && iv.End == other.End
}
