package server

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/resource"
)

// Two-phase cross-node reservation. A federated admission splits one
// witness plan across the nodes owning its footprint: the coordinator
// sends each owner a Prepare placing that node's slice as a reservation
// under a TTL lease, then Commit clears the lease or Abort (or lease
// expiry, when the coordinator crashed) releases the slice. Because
// Prepare re-checks the shard invariant under the shard locks, the
// Theorem-4 no-overcommitment property holds per node at every step of
// the protocol, whatever the coordinator does afterwards.

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
	slice := splitByShard(demand.TrimmedBefore(now))
	if len(slice) == 0 {
		return fmt.Errorf("server: prepare %s for %s has no demand at or after t=%d", key, name, now)
	}
	h := &reservation{name: name, key: key, parts: slice,
		finish: finish, deadline: deadline, lease: expiry, pending: true}
	locs := h.locs()
	o := op{kind: opPrepare, rec: *h, locs: locs}
	o.rec.pending = false
	// Refused before the claim and the locks, so a refusal creates no
	// shard.
	if err := l.checkOwned(locs); err != nil {
		return fmt.Errorf("prepare %s for %s: %w", key, name, err)
	}

	l.mu.Lock()
	if prev, seen := l.byKey[key]; seen {
		l.mu.Unlock()
		if prev.pending {
			return fmt.Errorf("server: prepare %s still in flight", key)
		}
		return nil // retried after a successful prepare, or commit
	}
	err := l.claimLocked(h)
	l.mu.Unlock()
	if err != nil {
		return err
	}

	var buf lockBuf
	shards, err := l.lockOwned(&buf, locs)
	if err != nil {
		l.unindex(h)
		return fmt.Errorf("prepare %s for %s: %w", key, name, err)
	}
	// Check every shard before touching any, so a rejection leaves the
	// ledger exactly as it was.
	if tight := misfit(shards, slice); tight != nil {
		err = &admission.Overcommit{Shard: tight.loc, Key: key, Name: name}
	} else {
		err = reserve(shards, slice)
	}
	shards.unlock()
	if err != nil {
		l.unindex(h)
		return err
	}
	l.land(o, h)
	return nil
}

// Commit turns a leased hold into a live commitment by clearing its
// lease. Idempotent on key. Returns ErrUnknownHold for a key never
// prepared (or already swept) and ErrLeaseExpired when the lease ran out
// first — in either case the coordinator must treat the admission as
// failed and abort the other participants.
func (l *Ledger) Commit(key string) error {
	now := l.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byKey[key]
	if !ok || r.pending {
		return fmt.Errorf("%w: %s", ErrUnknownHold, key)
	}
	if r.lease == 0 {
		return nil // retried, or a hand-off already merged a committed slice in
	}
	if r.lease <= now {
		return fmt.Errorf("%w: %s expired at t=%d, now t=%d", ErrLeaseExpired, key, r.lease, now)
	}
	l.commitLocked(op{kind: opCommit, at: now}, r)
	return nil
}

// commitLocked is a commit op's effect — r's lease cleared, admitted at
// o.at — and its apply, inside the caller's hold of l.mu. The demand
// stays reserved, but feasible/Allen atoms can now resolve the
// commitment by name: still a verdict-relevant change.
func (l *Ledger) commitLocked(o op, r *reservation) {
	r.lease, r.admitted = 0, o.at
	o.rec, o.locs = *r, r.locs()
	l.apply(o)
}

// Abort releases a prepared hold — or rolls back an already-committed
// one, which is how a coordinator undoes partial commits after a lease
// expired elsewhere. Unknown keys are a success: abort is the idempotent
// "make sure nothing is held" operation, safe to retry and safe to send
// after a sweep already reclaimed the lease.
func (l *Ledger) Abort(key string) error {
	l.mu.Lock()
	r, ok := l.byKey[key]
	if !ok || r.pending {
		// Never prepared here, already swept, or the prepare is still in
		// flight (its lease will reclaim it): nothing to release.
		l.mu.Unlock()
		return nil
	}
	l.unindexLocked(r)
	l.mu.Unlock()
	// Rolling back a committed key unwinds the admission itself.
	return l.free(op{kind: opAbort, unwind: r.lease == 0}, r)
}

// Finish commits (verb "commit") or aborts (verb "abort") key. moved,
// when the caller found some of the locations the slice was prepared on
// owned elsewhere, is all of them: a commit that finds no hold is then
// no failure if none of them is owned here any more. The whole hold left
// with a handoff, and the coordinator's finish follows it to its new
// owner.
func (l *Ledger) Finish(verb, key string, moved []resource.Location) error {
	if verb == "abort" {
		return l.Abort(key)
	}
	err := l.Commit(key)
	if errors.Is(err, ErrUnknownHold) && len(moved) > 0 && !slices.ContainsFunc(moved, l.Owned) {
		return nil
	}
	return err
}

// FreeView returns the merged free availability (Θ minus reservations
// and holds) of the given owned locations, together with the ledger
// clock the view was taken at. Coordinators plan against this view; the
// subsequent Prepare re-checks, so staleness costs a rejection, never an
// overcommit.
// The returned set must be treated as read-only: single-location
// requests (the common case) return the shard's free view directly — no clone, no allocation on the warm path — and multi-
// location requests share the untouched shards' profiles.
func (l *Ledger) FreeView(locs []resource.Location) (resource.Set, interval.Time, error) {
	if err := l.checkOwned(locs); err != nil {
		return resource.Set{}, 0, err
	}
	return l.snapshotFree(locs, nil), l.Now(), nil
}

// TwoPhaseCounters is the ledger's federation traffic digest.
type TwoPhaseCounters struct {
	Prepares        uint64 `json:"prepares" metric:"rota_twophase_total,op=prepare" help:"Two-phase participant operations served, by op."`
	Commits         uint64 `json:"commits" metric:"rota_twophase_total,op=commit"`
	Aborts          uint64 `json:"aborts" metric:"rota_twophase_total,op=abort"`
	LeasesExpired   uint64 `json:"leases_expired" metric:"rota_leases_expired_total" help:"Prepared holds reclaimed by the lease-expiry sweep."`
	NotOwnedRejects uint64 `json:"not_owned_rejects" metric:"rota_not_owned_rejects_total" help:"Requests naming locations this node does not own."`
}

// TwoPhase returns the federation traffic counters.
func (l *Ledger) TwoPhase() TwoPhaseCounters {
	return TwoPhaseCounters{
		Prepares:        l.ops[opPrepare].Load(),
		Commits:         l.ops[opCommit].Load(),
		Aborts:          l.ops[opAbort].Load(),
		LeasesExpired:   l.leasesExpired.Load(),
		NotOwnedRejects: l.notOwned.Load(),
	}
}
