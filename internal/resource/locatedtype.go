// Package resource implements ROTA's resource representation (§III of the
// paper): located resource types, resource terms [r]_ξ^τ pairing a rate of
// availability with a located type and a time interval, and resource sets
// with the union, simplification and relative-complement operations the
// logic's transition rules are built on.
//
// Resource sets are kept normalized as per-located-type step functions:
// for each located type, a sorted list of disjoint (interval, rate)
// segments. Normalization realizes the paper's "simplification" process
// canonically — identical located types available simultaneously have
// their rates added — and makes dominance checks and quantity integrals
// linear in the number of segments.
package resource

import (
	"fmt"
	"strings"
)

// Kind is the kind of computational resource (the "type" half of the
// paper's located type ξ).
type Kind string

// The kinds used throughout the paper. Custom kinds (e.g. "disk", "gpu")
// are equally valid: the algebra is kind-agnostic.
const (
	CPU     Kind = "cpu"
	Network Kind = "network"
	Memory  Kind = "memory"
	Disk    Kind = "disk"
)

// Location names a node in the distributed system.
type Location string

// LocatedType is the paper's ξ: a resource kind plus the spatial
// information identifying where it resides. For node-local resources only
// Loc is set; for network resources the pair (Loc, Dst) identifies the
// directed link, as in ⟨network, l1 → l2⟩.
type LocatedType struct {
	Kind Kind
	Loc  Location
	Dst  Location // set only for link resources
}

// CPUAt returns the located type ⟨cpu, loc⟩.
func CPUAt(loc Location) LocatedType {
	return LocatedType{Kind: CPU, Loc: loc}
}

// Link returns the located type ⟨network, src → dst⟩.
func Link(src, dst Location) LocatedType {
	return LocatedType{Kind: Network, Loc: src, Dst: dst}
}

// At returns an arbitrary-kind node-local located type.
func At(kind Kind, loc Location) LocatedType {
	return LocatedType{Kind: kind, Loc: loc}
}

// IsLink reports whether the type identifies a directed link.
func (lt LocatedType) IsLink() bool {
	return lt.Dst != ""
}

// Zero reports whether lt is the zero value.
func (lt LocatedType) Zero() bool {
	return lt == LocatedType{}
}

// String renders the located type in the paper's ⟨type, location⟩
// notation.
func (lt LocatedType) String() string {
	if lt.IsLink() {
		return fmt.Sprintf("⟨%s,%s→%s⟩", lt.Kind, lt.Loc, lt.Dst)
	}
	return fmt.Sprintf("⟨%s,%s⟩", lt.Kind, lt.Loc)
}

// compact renders the located type for the scenario-file syntax:
// "cpu@l1" or "network@l1>l2".
func (lt LocatedType) compact() string {
	var buf [64]byte
	return string(lt.appendCompact(buf[:0]))
}

// appendCompact appends the compact rendering of lt to b.
func (lt LocatedType) appendCompact(b []byte) []byte {
	b = append(append(append(b, lt.Kind...), '@'), lt.Loc...)
	if lt.IsLink() {
		b = append(append(b, '>'), lt.Dst...)
	}
	return b
}

// ParseLocatedType parses the compact "kind@loc" / "kind@src>dst" syntax.
// Parentheses and commas are refused in names: they delimit intervals
// and terms in a set's text, which would not read back.
func ParseLocatedType(s string) (LocatedType, error) {
	kindPart, locPart, ok := strings.Cut(s, "@")
	if !ok || kindPart == "" || locPart == "" {
		return LocatedType{}, fmt.Errorf("resource: malformed located type %q (want kind@loc)", s)
	}
	if strings.ContainsAny(s, "(),") {
		return LocatedType{}, fmt.Errorf("resource: malformed located type %q (parentheses and commas are reserved)", s)
	}
	src, dst, isLink := strings.Cut(locPart, ">")
	if src == "" {
		return LocatedType{}, fmt.Errorf("resource: malformed located type %q (empty location)", s)
	}
	lt := LocatedType{Kind: Kind(kindPart), Loc: Location(src)}
	if isLink {
		if dst == "" {
			return LocatedType{}, fmt.Errorf("resource: malformed located type %q (empty link destination)", s)
		}
		lt.Dst = Location(dst)
	}
	return lt, nil
}

// compare gives a stable total order over located types — by kind, then
// location, then link destination — the order a Set keeps its entries
// in and renders them in.
func (lt LocatedType) compare(other LocatedType) int {
	switch {
	case lt.Kind != other.Kind:
		return strings.Compare(string(lt.Kind), string(other.Kind))
	case lt.Loc != other.Loc:
		return strings.Compare(string(lt.Loc), string(other.Loc))
	}
	return strings.Compare(string(lt.Dst), string(other.Dst))
}

// less reports whether lt comes before other in compare's order.
func (lt LocatedType) less(other LocatedType) bool {
	return lt.compare(other) < 0
}
