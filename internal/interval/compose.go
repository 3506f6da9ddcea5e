package interval

import "sync"

// Composition of Allen relations: given r1 = rel(A,B) and r2 = rel(B,C),
// Compose(r1, r2) is the set of relations possible between A and C.
//
// Rather than transcribing the classic 13×13 composition table by hand
// (and risking transcription errors in 169 entries), the table is derived
// once, exactly, by exhaustive enumeration. The qualitative relation
// pattern among three intervals is fully determined by the ordering of
// their six endpoints, and every ordering of six endpoints is realizable
// with integer coordinates in [0, 5]. Enumerating all 6^6 coordinate
// assignments therefore visits every qualitative configuration of
// (A, B, C), making the derived table provably identical to Allen's.
var (
	composeOnce  sync.Once
	composeTable [numRelations + 1][numRelations + 1]RelSet
)

func buildComposeTable() {
	const lo, hi = 0, 5
	for as := Time(lo); as <= hi; as++ {
		for ae := as + 1; ae <= hi+1; ae++ {
			a := Interval{Start: as, End: ae}
			for bs := Time(lo); bs <= hi; bs++ {
				for be := bs + 1; be <= hi+1; be++ {
					b := Interval{Start: bs, End: be}
					rab := RelationBetween(a, b)
					for cs := Time(lo); cs <= hi; cs++ {
						for ce := cs + 1; ce <= hi+1; ce++ {
							c := Interval{Start: cs, End: ce}
							rbc := RelationBetween(b, c)
							rac := RelationBetween(a, c)
							composeTable[rab][rbc] = composeTable[rab][rbc].Add(rac)
						}
					}
				}
			}
		}
	}
}

// Compose returns the set of relations possible between A and C given
// rel(A,B) = r1 and rel(B,C) = r2. It returns the empty set if either
// argument is invalid.
func Compose(r1, r2 Relation) RelSet {
	if !r1.Valid() || !r2.Valid() {
		return EmptyRelSet
	}
	composeOnce.Do(buildComposeTable)
	return composeTable[r1][r2]
}
