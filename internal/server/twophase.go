package server

import (
	"fmt"
	"sort"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// Two-phase cross-node reservation. A federated admission splits one
// witness plan across the nodes owning its footprint: the coordinator
// sends each owner a Prepare holding that node's sub-plan under a TTL
// lease, then Commit promotes the hold to a commitment or Abort (or
// lease expiry, when the coordinator crashed) releases it. Because
// Prepare re-checks the shard invariant under the shard locks, the
// Theorem-4 no-overcommitment property holds per node at every step of
// the protocol, whatever the coordinator does afterwards.

// hold is one prepared-but-uncommitted reservation: a per-node slice of
// a federated admission's witness plan, held under a lease that expires
// at 'expiry' on the ledger clock.
type hold struct {
	key      string
	name     string
	demand   resource.Set
	locs     []resource.Location // sorted demand footprint
	finish   interval.Time
	deadline interval.Time
	expiry   interval.Time
	pending  bool // claimed but mid-reservation
}

// planFromSet reconstructs a witness plan from a demand set received
// over the wire: one allocation per term, finishing at finish. Demand()
// of the result is exactly the input set, which is all the ledger needs
// to reserve, release, and audit it.
func planFromSet(name string, demand resource.Set, finish interval.Time) schedule.Plan {
	plan := schedule.Plan{Finish: finish}
	for _, t := range demand.Terms() {
		plan.Allocs = append(plan.Allocs, schedule.Allocation{
			Actor: compute.ActorName(name),
			Term:  t,
		})
	}
	return plan
}

// demandFootprint returns the sorted locations a demand set touches.
func demandFootprint(demand resource.Set) []resource.Location {
	seen := make(map[resource.Location]bool)
	for _, t := range demand.Terms() {
		seen[shardOf(t.Type)] = true
	}
	locs := make([]resource.Location, 0, len(seen))
	for loc := range seen {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// Prepare places a leased hold for the named job's local sub-plan.
// Idempotent on key: re-preparing a held or already-committed key
// succeeds without reserving twice, so a coordinator may safely retry.
// Returns ErrNotOwned for demand outside this node's locations,
// ErrDuplicate when the name is already admitted or held under a
// different key, and ErrOvercommit when the demand does not fit the free
// availability (a capacity rejection, not a fault).
func (l *Ledger) Prepare(key, name string, demand resource.Set, finish, deadline, expiry interval.Time) error {
	now := l.Now()
	if expiry <= now {
		return fmt.Errorf("%w: lease expiry t=%d is not after now t=%d", ErrLeaseExpired, expiry, now)
	}
	trimmed := demand.Clone()
	trimmed.TrimBefore(now)
	if trimmed.Empty() {
		return fmt.Errorf("server: prepare %s for %s has no demand at or after t=%d", key, name, now)
	}
	locs := demandFootprint(trimmed)
	if err := l.checkOwned(locs); err != nil {
		return fmt.Errorf("prepare %s for %s: %w", key, name, err)
	}

	// Claim the key (and implicitly the name) before touching shards, so
	// a racing duplicate cannot double-reserve.
	h := &hold{key: key, name: name, demand: trimmed, locs: locs,
		finish: finish, deadline: deadline, expiry: expiry, pending: true}
	l.mu.Lock()
	if _, done := l.committedKeys[key]; done {
		l.mu.Unlock()
		return nil // retried after a successful commit
	}
	if prev, held := l.holds[key]; held {
		l.mu.Unlock()
		if prev.pending {
			return fmt.Errorf("server: prepare %s still in flight", key)
		}
		return nil // retried after a successful prepare
	}
	if _, exists := l.commits[name]; exists {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if otherKey, held := l.heldNames[name]; held {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s (held by prepare %s)", ErrDuplicate, name, otherKey)
	}
	l.holds[key] = h
	l.heldNames[name] = key
	l.mu.Unlock()
	abandon := func() {
		l.mu.Lock()
		delete(l.holds, key)
		if l.heldNames[name] == key {
			delete(l.heldNames, name)
		}
		l.mu.Unlock()
	}

	shards, unlock := l.lockedShards(locs)
	// Re-check ownership under the shard locks: a concurrent handoff may
	// have dropped a location since the first check, and a hold placed on
	// a dropped shard would never be committed or swept here.
	if err := l.checkOwned(locs); err != nil {
		unlock()
		abandon()
		return fmt.Errorf("prepare %s for %s: %w", key, name, err)
	}
	parts := splitByShard(trimmed)
	// Check every shard before touching any, so a rejection leaves the
	// ledger exactly as it was. The fit check runs against the cached
	// free view (free dominates part ⟺ θ dominates reserved ∪ part), so
	// a loaded shard pays an incremental patch, not a full recompute.
	for _, sh := range shards {
		part, ok := parts[sh.loc]
		if !ok {
			continue
		}
		free, err := sh.freeView()
		if err != nil {
			unlock()
			abandon()
			return fmt.Errorf("server: shard %s invariant broken: %w", sh.loc, err)
		}
		if !free.Dominates(part) {
			unlock()
			abandon()
			return fmt.Errorf("%w: shard %s cannot hold prepare %s for %s", ErrOvercommit, sh.loc, key, name)
		}
	}
	for _, sh := range shards {
		if part, ok := parts[sh.loc]; ok {
			sh.applyReserve(part)
		}
	}
	unlock()

	l.mu.Lock()
	h.pending = false
	l.mu.Unlock()
	l.prepares.Add(1)
	l.bumpEpoch("prepare")
	return nil
}

// Commit promotes a prepared hold into a live commitment. Idempotent on
// key. Returns ErrUnknownHold for a key never prepared (or already
// swept) and ErrLeaseExpired when the lease ran out first — in either
// case the coordinator must treat the admission as failed and abort the
// other participants.
func (l *Ledger) Commit(key string) error {
	now := l.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, done := l.committedKeys[key]; done {
		return nil
	}
	h, ok := l.holds[key]
	if !ok || h.pending {
		return fmt.Errorf("%w: %s", ErrUnknownHold, key)
	}
	if h.expiry <= now {
		return fmt.Errorf("%w: %s expired at t=%d, now t=%d", ErrLeaseExpired, key, h.expiry, now)
	}
	delete(l.holds, key)
	if l.heldNames[h.name] == key {
		delete(l.heldNames, h.name)
	}
	// A handoff may already have imported another slice of this job as a
	// commitment (its old owner committed first): the hold joins it, or
	// the imported slice's reservation would be left with no commitment.
	c := l.absorbLocked(h.name, h.demand, h.finish)
	if c == nil {
		c = &commitment{
			name:     h.name,
			locs:     h.locs,
			plan:     planFromSet(h.name, h.demand, h.finish),
			deadline: h.deadline,
			admitted: now,
		}
		l.commits[h.name] = c
	}
	c.key = key
	l.committedKeys[key] = h.name
	l.commitCount.Add(1)
	// The hold's demand stays reserved, but feasible/Allen atoms can now
	// resolve the commitment by name: still a verdict-relevant change.
	l.bumpEpoch("commit")
	// The promise is adopted, not reserved: for a coordinated admission
	// this participant holds its share of a promise made cluster-wide,
	// and for a migration commit the promise predates this node entirely.
	l.assure.Adopt(h.name, now, c.plan.Finish, h.deadline, l.epoch.Load(), c.locs)
	return nil
}

// Abort releases a prepared hold — or rolls back an already-committed
// one, which is how a coordinator undoes partial commits after a lease
// expired elsewhere. Unknown keys are a success: abort is the idempotent
// "make sure nothing is held" operation, safe to retry and safe to send
// after a sweep already reclaimed the lease.
func (l *Ledger) Abort(key string) error {
	l.mu.Lock()
	if name, done := l.committedKeys[key]; done {
		l.mu.Unlock()
		// Rolling back a committed key unwinds the admission itself: the
		// promise is dropped, not kept — the job never really ran here.
		l.assure.Drop(name)
		if err := l.Release(name); err != nil {
			return fmt.Errorf("server: abort %s rolling back commitment %s: %w", key, name, err)
		}
		l.aborts.Add(1)
		return nil
	}
	h, ok := l.holds[key]
	if !ok || h.pending {
		// Never prepared here, already swept, or the prepare is still in
		// flight (its lease will reclaim it): nothing to release.
		l.mu.Unlock()
		return nil
	}
	delete(l.holds, key)
	if l.heldNames[h.name] == key {
		delete(l.heldNames, h.name)
	}
	l.mu.Unlock()
	if err := l.releaseDemand(h.locs, h.demand); err != nil {
		return fmt.Errorf("server: aborting %s: %w", key, err)
	}
	l.aborts.Add(1)
	l.bumpEpoch("abort")
	return nil
}

// FreeView returns the merged free availability (Θ minus reservations
// and holds) of the given owned locations, together with the ledger
// clock the view was taken at. Coordinators plan against this view; the
// subsequent Prepare re-checks, so staleness costs a rejection, never an
// overcommit.
// The returned set must be treated as read-only: single-location
// requests (the common case) return the shard's cached free view
// directly — no clone, no allocation on the warm path — and multi-
// location requests share the untouched shards' profiles.
func (l *Ledger) FreeView(locs []resource.Location) (resource.Set, interval.Time, error) {
	if err := l.checkOwned(locs); err != nil {
		return resource.Set{}, 0, err
	}
	free, err := l.snapshotFree(locs, nil)
	if err != nil {
		return resource.Set{}, 0, err
	}
	return free, l.Now(), nil
}

// RemainingDemand returns a live commitment's not-yet-consumed demand
// and its info — the portion a migration re-homes elsewhere.
func (l *Ledger) RemainingDemand(name string) (resource.Set, CommitmentInfo, error) {
	now := l.Now()
	l.mu.Lock()
	c, ok := l.commits[name]
	if !ok || c.pending {
		l.mu.Unlock()
		return resource.Set{}, CommitmentInfo{}, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	demand := c.plan.Demand().Clamp(interval.New(now, interval.Infinity))
	locs := make([]string, len(c.locs))
	for i, loc := range c.locs {
		locs[i] = string(loc)
	}
	info := CommitmentInfo{Name: c.name, Admitted: c.admitted, Deadline: c.deadline,
		Finish: c.plan.Finish, Locations: locs, Demand: demand.Compact()}
	l.mu.Unlock()
	return demand, info, nil
}

// NumHolds returns the number of live (non-pending) leased holds.
func (l *Ledger) NumHolds() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, h := range l.holds {
		if !h.pending {
			n++
		}
	}
	return n
}

// TwoPhaseCounters is the ledger's federation traffic digest.
type TwoPhaseCounters struct {
	Prepares        uint64 `json:"prepares"`
	Commits         uint64 `json:"commits"`
	Aborts          uint64 `json:"aborts"`
	LeasesExpired   uint64 `json:"leases_expired"`
	NotOwnedRejects uint64 `json:"not_owned_rejects"`
}

// TwoPhase returns the federation traffic counters.
func (l *Ledger) TwoPhase() TwoPhaseCounters {
	return TwoPhaseCounters{
		Prepares:        l.prepares.Load(),
		Commits:         l.commitCount.Load(),
		Aborts:          l.aborts.Load(),
		LeasesExpired:   l.leasesExpired.Load(),
		NotOwnedRejects: l.notOwned.Load(),
	}
}
