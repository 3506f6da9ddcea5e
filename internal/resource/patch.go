package resource

import (
	"repro/internal/interval"
)

// Patch operations: the sharing counterparts of Union, Subtract and
// TrimBefore used on the admission hot path.
//
// The sharing contract has two levels. Profiles, and the chunks a long
// one is stored in, are immutable (see profile): every operation on a
// set leaves the segment storage of its operands alone and hands on,
// rather than copies, each profile it does not change — a type the other
// operand does not name, a union into a type the receiver lacks, a trim
// or clamp that cuts nothing — and, within a long profile it does
// change, each chunk it does not reach. That is what makes a reservation
// cost what it touches, a chunk list and a chunk or two per touched
// type, whatever the length of the type's history, and a snapshot of
// several shards' views cost one run of entries. It holds for every
// operation, and for chunks shared between goroutines, so it asks
// nothing of callers.
//
// A Patch* method additionally returns its receiver — run of entries
// and all — when there is nothing to do. A Set produced by a Patch*
// method (and the Set it was produced from) must therefore be treated as
// immutable by callers that hold both; the in-place mutators (Add,
// AddSet, Consume, ConsumeTerms, TrimBefore) may only be applied to sets
// the caller exclusively owns: a zero Set it filled, or the result of
// Clone, Union, Subtract, Clamp, TrimmedBefore or Restrict. A mutator
// that only replaces profiles writes them into the receiver's run; one
// that inserts or drops a type gives the receiver a new run.

// AddSet merges other into s in place (Θ ← Θ ∪ other with
// simplification). The receiver must be exclusively owned by the caller;
// other is not mutated. When s already holds every type of other, the
// merged profiles are written into its run; otherwise s gets one new
// run holding both.
func (s *Set) AddSet(other Set) {
	b := other.entries
	if len(b) == 0 {
		return
	}
	if unionLen(s.entries, b) > len(s.entries) {
		s.entries = union(s.entries, b)
		return
	}
	for i := range s.entries {
		if len(b) > 0 && s.entries[i].lt == b[0].lt {
			s.entries[i].p = s.entries[i].p.merge(b[0].p)
			b = b[1:]
		}
	}
}

// PatchUnion returns Θ ∪ other, or the receiver itself when other is
// empty. Neither input is mutated.
func (s Set) PatchUnion(other Set) Set {
	if len(other.entries) == 0 {
		return s
	}
	return s.Union(other)
}

// PatchSubtract returns Θ ∖ other — the receiver itself when other is
// empty — or ErrInsufficient when the complement is undefined. Neither
// input is mutated.
func (s Set) PatchSubtract(other Set) (Set, error) {
	if len(other.entries) == 0 {
		return s, nil
	}
	return s.Subtract(other)
}

// TrimmedBefore returns the availability at or after t as a new set.
// Unlike TrimBefore it does not mutate the receiver and does not report
// the expired portion.
func (s Set) TrimmedBefore(t interval.Time) Set {
	return s.Clamp(interval.New(t, interval.Infinity))
}

// Same reports whether s and other are one set: the same run of entries
// in the same memory, so that an in-place mutation of either would show
// in both. Two empty sets are the same. Same is identity, not equality
// (see Equal): a holder of a view derived from s uses it to tell that s
// has since been replaced.
func (s Set) Same(other Set) bool {
	return len(s.entries) == len(other.entries) &&
		(len(s.entries) == 0 || &s.entries[0] == &other.entries[0])
}
