// Package membership is the cluster's runtime registry: who the members
// are, which member owns each ledger location, and how ownership moves
// when nodes join, leave, or crash.
//
// The unit of truth is the epoch-versioned Table. A Table is immutable
// once published: every change (join, leave, failover) derives a new
// Table with Epoch+1 via Joined/Left and installs it in the Registry
// with an epoch compare-and-swap, so stale tables can never overwrite
// newer ones no matter how broadcasts race.
//
// Ownership placement uses rendezvous (highest-random-weight) hashing:
// each (member, location) pair gets a deterministic score and the
// highest-scoring member wins the location. Rendezvous hashing is the
// *policy* that decides which locations move; the Table's Owners map is
// the *record* of where each location actually lives, which only changes
// after the corresponding ledger handoff completed (make-before-break —
// see the cluster layer). Explicit pins override the hash: a pinned
// location stays with its pinned owner through any churn until the
// owner itself departs.
//
// The runner-up of the same hash is the location's warm standby: the
// node that receives gossip-shipped ledger shadows and is promoted when
// the primary crashes. Because removing the top-scoring member makes
// the runner-up the new winner, a crash promotes exactly the node that
// has been warming.
package membership

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/resource"
)

// Member is one cluster node as the registry sees it.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Move is one ownership transfer the policy decided: location Loc moves
// from member From to member To. From is empty when the location was
// previously unowned (a pin for a brand-new location).
type Move struct {
	Loc  resource.Location `json:"loc"`
	From string            `json:"from"`
	To   string            `json:"to"`
}

// Table is one epoch of the cluster's membership and ownership state.
// Treat a published Table as immutable; derive changes with Joined/Left
// (or Clone for tests).
type Table struct {
	// Epoch increases by exactly one per published change.
	Epoch uint64
	// Members is the roster, sorted by ID.
	Members []Member
	// Owners records which member currently serves each location. This
	// reflects completed handoffs, not the hash's current preference.
	Owners map[resource.Location]string
	// Pins overrides the hash: a pinned location never moves to a
	// better-scoring joiner. The pin dies with its owner.
	Pins map[resource.Location]string
}

// NewTable builds the epoch-1 seed table from a static roster.
// Ownership starts exactly as configured; nothing is pinned, so later
// joins may rebalance any location.
func NewTable(members []Member, owners map[resource.Location]string) *Table {
	t := &Table{
		Epoch:   1,
		Members: append([]Member(nil), members...),
		Owners:  make(map[resource.Location]string, len(owners)),
		Pins:    map[resource.Location]string{},
	}
	sort.Slice(t.Members, func(i, j int) bool { return t.Members[i].ID < t.Members[j].ID })
	for loc, id := range owners {
		t.Owners[loc] = id
	}
	return t
}

// Clone returns a deep copy with the same epoch.
func (t *Table) Clone() *Table {
	c := &Table{
		Epoch:   t.Epoch,
		Members: append([]Member(nil), t.Members...),
		Owners:  make(map[resource.Location]string, len(t.Owners)),
		Pins:    make(map[resource.Location]string, len(t.Pins)),
	}
	for loc, id := range t.Owners {
		c.Owners[loc] = id
	}
	for loc, id := range t.Pins {
		c.Pins[loc] = id
	}
	return c
}

// Member returns the roster entry for id.
func (t *Table) Member(id string) (Member, bool) {
	for _, m := range t.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// OwnerOf returns the member currently serving loc.
func (t *Table) OwnerOf(loc resource.Location) (string, bool) {
	id, ok := t.Owners[loc]
	return id, ok
}

// Locations returns the sorted locations currently served by id.
func (t *Table) Locations(id string) []resource.Location {
	var locs []resource.Location
	for loc, owner := range t.Owners {
		if owner == id {
			locs = append(locs, loc)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// score is the rendezvous weight of placing loc on member id: FNV-1a
// over the pair, deterministic across nodes and runs. The raw FNV sum
// has weak avalanche in its high bits for short keys — neighboring IDs
// ("n1", "n2") produce correlated sums and one member ends up winning
// nearly every location — so a splitmix64-style finalizer diffuses the
// sum before the rendezvous comparison.
func score(id string, loc resource.Location) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(loc))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// rendezvous returns the highest-scoring candidate for loc, breaking
// score ties by smaller ID. exclude removes one candidate (the current
// owner when computing a standby, the departing member when computing
// failover targets); empty string excludes nobody.
func rendezvous(members []Member, loc resource.Location, exclude string) string {
	best := ""
	var bestScore uint64
	for _, m := range members {
		if m.ID == exclude {
			continue
		}
		s := score(m.ID, loc)
		if best == "" || s > bestScore || (s == bestScore && m.ID < best) {
			best, bestScore = m.ID, s
		}
	}
	return best
}

// StandbyOf returns the member that should hold loc's warm shadow: the
// best-scoring member other than the current owner. Empty when the
// roster has no second member or loc is unowned.
func (t *Table) StandbyOf(loc resource.Location) string {
	owner, ok := t.Owners[loc]
	if !ok {
		return ""
	}
	return rendezvous(t.Members, loc, owner)
}

// JoinMoves plans the ownership transfers caused by m joining: every
// location the joiner explicitly pins, plus every unpinned location
// whose rendezvous winner over the grown roster is the joiner. The
// current table is not modified; commit the moves that actually
// completed with Joined.
func (t *Table) JoinMoves(m Member, pins []resource.Location) []Move {
	grown := append(append([]Member(nil), t.Members...), m)
	pinned := make(map[resource.Location]bool, len(pins))
	for _, loc := range pins {
		pinned[loc] = true
	}
	var moves []Move
	for loc, owner := range t.Owners {
		if owner == m.ID {
			continue
		}
		if pinned[loc] {
			moves = append(moves, Move{Loc: loc, From: owner, To: m.ID})
			continue
		}
		if _, isPinned := t.Pins[loc]; isPinned {
			continue
		}
		if rendezvous(grown, loc, "") == m.ID {
			moves = append(moves, Move{Loc: loc, From: owner, To: m.ID})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Loc < moves[j].Loc })
	return moves
}

// LeaveMoves plans the transfers caused by id departing (gracefully or
// by crash): every location it owns goes to the rendezvous winner among
// the survivors — which is exactly the location's standby, so a crash
// promotes the node that has been receiving its shadows. To is empty
// when no survivor exists.
func (t *Table) LeaveMoves(id string) []Move {
	var moves []Move
	for loc, owner := range t.Owners {
		if owner != id {
			continue
		}
		moves = append(moves, Move{Loc: loc, From: id, To: rendezvous(t.Members, loc, id)})
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Loc < moves[j].Loc })
	return moves
}

// Joined derives the next table: m added to the roster, the completed
// moves applied, the listed locations pinned to m, epoch bumped. Moves
// that did not complete are simply omitted by the caller, so the table
// keeps recording where the data actually lives.
func (t *Table) Joined(m Member, moves []Move, pins []resource.Location) *Table {
	next := t.Clone()
	next.Epoch++
	if _, ok := next.Member(m.ID); !ok {
		next.Members = append(next.Members, m)
		sort.Slice(next.Members, func(i, j int) bool { return next.Members[i].ID < next.Members[j].ID })
	} else {
		for i := range next.Members {
			if next.Members[i].ID == m.ID {
				next.Members[i] = m
			}
		}
	}
	for _, mv := range moves {
		next.Owners[mv.Loc] = mv.To
	}
	for _, loc := range pins {
		next.Owners[loc] = m.ID
		next.Pins[loc] = m.ID
	}
	return next
}

// Left derives the next table: id removed from the roster, the
// completed moves applied, its pins dropped, epoch bumped. Locations
// whose move had no target (empty To: the roster emptied) are dropped
// from the ownership map.
func (t *Table) Left(id string, moves []Move) *Table {
	next := t.Clone()
	next.Epoch++
	kept := next.Members[:0]
	for _, m := range next.Members {
		if m.ID != id {
			kept = append(kept, m)
		}
	}
	next.Members = kept
	for _, mv := range moves {
		if mv.To == "" {
			delete(next.Owners, mv.Loc)
			continue
		}
		next.Owners[mv.Loc] = mv.To
	}
	for loc, pinned := range next.Pins {
		if pinned == id {
			delete(next.Pins, loc)
		}
	}
	return next
}

// Validate checks the table's internal consistency: a positive epoch, a
// sorted unique roster with IDs and URLs, and owners/pins that refer to
// roster members (pins must match the recorded owner).
func (t *Table) Validate() error {
	if t.Epoch == 0 {
		return fmt.Errorf("membership: table epoch must be positive")
	}
	if len(t.Members) == 0 {
		return fmt.Errorf("membership: table has no members")
	}
	seen := make(map[string]bool, len(t.Members))
	for i, m := range t.Members {
		if m.ID == "" || len(m.ID) > maxIDLen {
			return fmt.Errorf("membership: member %d has a bad id", i)
		}
		if m.URL == "" || len(m.URL) > maxURLLen {
			return fmt.Errorf("membership: member %s has a bad url", m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("membership: duplicate member %s", m.ID)
		}
		seen[m.ID] = true
	}
	for loc, id := range t.Owners {
		if loc == "" || len(loc) > maxIDLen {
			return fmt.Errorf("membership: bad owned location %q", loc)
		}
		if !seen[id] {
			return fmt.Errorf("membership: location %s owned by unknown member %q", loc, id)
		}
	}
	for loc, id := range t.Pins {
		if owner, ok := t.Owners[loc]; !ok || owner != id {
			return fmt.Errorf("membership: pin of %s to %s does not match its owner", loc, id)
		}
	}
	return nil
}
