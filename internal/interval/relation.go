package interval

import "fmt"

// Relation is one of the thirteen qualitative relations of Allen's
// interval algebra, reproduced as Table I in the ROTA paper (seven base
// relations plus their inverses; Equal is its own inverse).
//
// The paper's notation maps as follows:
//
//	τ1 <  τ2   Before       (τ1 >  τ2   After)
//	τ1 =  τ2   Equal
//	τ1 ∈  τ2   During       (inverse: Contains)
//	τ1 ∩→ τ2   Meets        (inverse: MetBy)
//	τ1 ∪  τ2   OverlapsWith (inverse: OverlappedBy)
//	τ1 ⊏  τ2   Starts       (inverse: StartedBy)
//	τ1 ⊐  τ2   Finishes     (inverse: FinishedBy)
type Relation uint8

// The thirteen Allen relations. Values start at one so the zero value is
// detectably invalid.
const (
	Before       Relation = iota + 1 // A ends strictly before B starts
	After                            // converse of Before
	Meets                            // A's end coincides with B's start
	MetBy                            // converse of Meets
	OverlapsWith                     // A starts first, they overlap, B ends last
	OverlappedBy                     // converse of OverlapsWith
	Starts                           // same start, A ends first
	StartedBy                        // converse of Starts
	During                           // A strictly inside B
	Contains                         // converse of During
	Finishes                         // same end, A starts later
	FinishedBy                       // converse of Finishes
	Equal                            // identical endpoints

	numRelations = 13
)

// AllRelations lists every relation in declaration order.
var AllRelations = [numRelations]Relation{
	Before, After, Meets, MetBy, OverlapsWith, OverlappedBy,
	Starts, StartedBy, During, Contains, Finishes, FinishedBy, Equal,
}

var relationNames = map[Relation]string{
	Before:       "before",
	After:        "after",
	Meets:        "meets",
	MetBy:        "met-by",
	OverlapsWith: "overlaps",
	OverlappedBy: "overlapped-by",
	Starts:       "starts",
	StartedBy:    "started-by",
	During:       "during",
	Contains:     "contains",
	Finishes:     "finishes",
	FinishedBy:   "finished-by",
	Equal:        "equal",
}

// relationSymbols uses the paper's Table I notation where one exists.
var relationSymbols = map[Relation]string{
	Before:       "<",
	After:        ">",
	Meets:        "∩→",
	MetBy:        "←∩",
	OverlapsWith: "∪",
	OverlappedBy: "∪⁻",
	Starts:       "⊏s",
	StartedBy:    "⊐s",
	During:       "∈",
	Contains:     "∋",
	Finishes:     "⊐f",
	FinishedBy:   "⊏f",
	Equal:        "=",
}

// String returns the lowercase English name of the relation.
func (r Relation) String() string {
	if s, ok := relationNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Symbol returns the paper's symbolic notation for the relation.
func (r Relation) Symbol() string {
	if s, ok := relationSymbols[r]; ok {
		return s
	}
	return "?"
}

// Valid reports whether r is one of the thirteen Allen relations.
func (r Relation) Valid() bool {
	return r >= Before && r <= Equal
}

// Converse returns the inverse relation: if RelationBetween(a, b) == r then
// RelationBetween(b, a) == r.Converse().
func (r Relation) Converse() Relation {
	switch r {
	case Before:
		return After
	case After:
		return Before
	case Meets:
		return MetBy
	case MetBy:
		return Meets
	case OverlapsWith:
		return OverlappedBy
	case OverlappedBy:
		return OverlapsWith
	case Starts:
		return StartedBy
	case StartedBy:
		return Starts
	case During:
		return Contains
	case Contains:
		return During
	case Finishes:
		return FinishedBy
	case FinishedBy:
		return Finishes
	case Equal:
		return Equal
	}
	return 0
}

// RelationBetween classifies the qualitative relation between two
// non-empty intervals. It panics if either interval is empty: the algebra
// is defined only for proper intervals (the paper defines resources only
// over non-empty intervals).
func RelationBetween(a, b Interval) Relation {
	if a.Empty() || b.Empty() {
		panic("interval: RelationBetween on empty interval")
	}
	switch {
	case a.End < b.Start:
		return Before
	case b.End < a.Start:
		return After
	case a.End == b.Start:
		return Meets
	case b.End == a.Start:
		return MetBy
	}
	// The intervals overlap in at least one tick.
	switch {
	case a.Start == b.Start && a.End == b.End:
		return Equal
	case a.Start == b.Start:
		if a.End < b.End {
			return Starts
		}
		return StartedBy
	case a.End == b.End:
		if a.Start > b.Start {
			return Finishes
		}
		return FinishedBy
	case a.Start > b.Start && a.End < b.End:
		return During
	case a.Start < b.Start && a.End > b.End:
		return Contains
	case a.Start < b.Start:
		return OverlapsWith
	default:
		return OverlappedBy
	}
}

// RelSet is a set of Allen relations, represented as a bitmask. It is the
// constraint label used in qualitative constraint networks: an edge labeled
// {Before, Meets} says the first interval ends no later than the second
// starts.
type RelSet uint16

// Common relation sets.
const (
	// EmptyRelSet is the inconsistent (unsatisfiable) constraint.
	EmptyRelSet RelSet = 0
	// FullRelSet permits any of the thirteen relations.
	FullRelSet RelSet = (1 << numRelations) - 1
)

func (s RelSet) bit(r Relation) RelSet {
	return 1 << (uint(r) - 1)
}

// Add returns s with r included.
func (s RelSet) Add(r Relation) RelSet {
	if !r.Valid() {
		return s
	}
	return s | s.bit(r)
}

// Has reports whether r is in the set.
func (s RelSet) Has(r Relation) bool {
	return r.Valid() && s&s.bit(r) != 0
}

// String renders the set as "{before,meets}".
func (s RelSet) String() string {
	out := "{"
	first := true
	for _, r := range AllRelations {
		if s.Has(r) {
			if !first {
				out += ","
			}
			out += r.String()
			first = false
		}
	}
	return out + "}"
}
