package server

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
)

// Ledger export/import: the state-shipping half of ownership handoff
// and warm-standby failover. ExportLocations serializes everything one
// location's shard implies (its availability, clock, and each
// reservation's slice of demand on it); ImportLocations installs such an
// export on a new owner, merging each slice into the record the receiver
// already has for the same job (a spanning job's other slice);
// DropLocations atomically strips the exported locations from the old
// owner. The cluster layer sequences these make-before-break — install
// on the new owner completes before the old owner drops — which is the
// paper's migrate rule applied to a whole shard instead of a single
// computation.
//
// On the wire a reservation's slice travels in one of two lists,
// commitments or holds, by whether it is leased; the ledger on either
// side keeps one record per job.

// ExportCommitment is one commitment's slice of demand on an exported
// location. A commitment made through two-phase keeps its key, so a
// coordinator's Abort after a partial commit, sent on to the new owner
// by the old one's redirect, still finds the slice there.
type ExportCommitment struct {
	Name     string        `json:"name"`
	Key      string        `json:"key,omitempty"`
	Demand   string        `json:"demand"`
	Finish   interval.Time `json:"finish"`
	Deadline interval.Time `json:"deadline"`
	Admitted interval.Time `json:"admitted"`
}

// ExportHold is one leased two-phase hold's slice of demand on an
// exported location. The original key and expiry travel with it so the
// coordinator's commit/abort, redirected by the old owner, still
// resolves, and an orphaned lease still expires on schedule.
type ExportHold struct {
	Key      string        `json:"key"`
	Name     string        `json:"name"`
	Demand   string        `json:"demand"`
	Finish   interval.Time `json:"finish"`
	Deadline interval.Time `json:"deadline"`
	Expiry   interval.Time `json:"lease_expiry"`
}

// LocationExport is one location's complete ledger state, ready to ship
// to a new owner.
type LocationExport struct {
	Loc         resource.Location  `json:"loc"`
	Now         interval.Time      `json:"now"`
	Theta       string             `json:"theta,omitempty"`
	Commitments []ExportCommitment `json:"commitments,omitempty"`
	Holds       []ExportHold       `json:"holds,omitempty"`
}

// ExportLocations serializes the given locations' shards. Read-only;
// the caller (the cluster layer's handoff or shadow shipping) is
// responsible for freezing admissions if it needs the export and a
// subsequent drop to be atomic.
func (l *Ledger) ExportLocations(locs []resource.Location) []LocationExport {
	out := make([]LocationExport, len(locs))
	for i, loc := range locs {
		out[i] = LocationExport{Loc: loc, Now: l.Now()}
		l.mu.Lock()
		sh, ok := l.shards[loc]
		l.mu.Unlock()
		if ok {
			sh.mu.Lock()
			out[i].Now = sh.now
			out[i].Theta = sh.theta.Compact()
			sh.mu.Unlock()
		}
	}
	l.mu.Lock()
	for _, r := range l.byName {
		if r.pending {
			continue
		}
		for i := range out {
			exp := &out[i]
			part, _ := r.parts.on(exp.Loc)
			if part = part.TrimmedBefore(exp.Now); part.Empty() {
				continue
			}
			if r.lease == 0 {
				exp.Commitments = append(exp.Commitments, ExportCommitment{Name: r.name, Key: r.key,
					Demand: part.Compact(), Finish: r.finish, Deadline: r.deadline, Admitted: r.admitted})
			} else {
				exp.Holds = append(exp.Holds, ExportHold{Key: r.key, Name: r.name,
					Demand: part.Compact(), Finish: r.finish, Deadline: r.deadline, Expiry: r.lease})
			}
		}
	}
	l.mu.Unlock()
	for _, exp := range out {
		sort.Slice(exp.Commitments, func(i, j int) bool { return exp.Commitments[i].Name < exp.Commitments[j].Name })
		sort.Slice(exp.Holds, func(i, j int) bool { return exp.Holds[i].Key < exp.Holds[j].Key })
	}
	return out
}

// DropLocations atomically strips the given locations from this ledger:
// their shards disappear, every reservation loses its slice of demand on
// them (records left empty are removed entirely), and the locations
// leave the owned set so later requests get ErrNotOwned. A two-phase
// key keeps its record for the slices that stayed; the coordinator's
// commit or abort of the slices that left goes to their locations' new
// owner. It validates nothing: it is a drop op's effect and its apply,
// under the locks that make the drop atomic.
func (l *Ledger) DropLocations(locs []resource.Location) {
	// Shard locks first (the canonical order: l.mu is never held while a
	// shard lock is acquired), then l.mu for the maps. Holding both
	// serializes the drop against in-flight admissions and prepares,
	// whose post-lock ownership re-check sees the shrunken owned set.
	var buf lockBuf
	defer l.lockedShards(&buf, locs).unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, loc := range locs {
		delete(l.shards, loc)
		if l.owned != nil {
			delete(l.owned, loc)
		}
	}
	o := op{kind: opDrop, moved: locs}
	for _, r := range l.byName {
		if r.pending {
			continue
		}
		before := len(r.parts)
		r.parts = slices.DeleteFunc(r.parts, func(p part) bool { return slices.Contains(locs, p.loc) })
		if len(r.parts) == before {
			continue
		}
		if len(r.parts) == 0 {
			l.unindexLocked(r)
			if r.lease == 0 {
				// The whole commitment left with the handoff: its promise
				// moves too. Partial drops keep the promise active here —
				// some of the footprint is still this node's to honor.
				o.jobs = append(o.jobs, r.name)
			}
		}
	}
	l.apply(o)
}

// ImportLocations installs exported location state on this ledger: the
// shard appears with the exporter's clock and availability, and each
// shipped slice lands by mergeLocked — joining the record this node
// already carries for the same job, when it does. The shard's free view
// is computed once, free′ = free ∪ θ_in ∖ r_in (θ_in the shipped
// availability, r_in the shipped slices). An import for which that
// subtraction is undefined would overcommit the shard, and it installs
// nothing, as does one that does not decode. The caller should extend
// the owned set (AddOwned) first so concurrent requests for the
// location are accepted; the install op carries the same locations into
// the owned set.
func (l *Ledger) ImportLocations(exports []LocationExport) error {
	o := op{kind: opInstall, exports: exports, moved: make([]resource.Location, len(exports))}
	for i, exp := range exports {
		o.moved[i] = exp.Loc
	}
	// An import is an install op's effect and its apply, under the locks
	// of every shard it lands on: every export is decoded and checked
	// against its shard before any is touched.
	var buf lockBuf
	shards := l.lockedShards(&buf, o.moved)
	defer shards.unlock()
	if len(shards) != len(exports) {
		return fmt.Errorf("server: import names a location twice")
	}
	type landing struct {
		sh          *shard
		now         interval.Time
		theta, free resource.Set
		incoming    []*reservation
	}
	lands := make([]landing, len(exports))
	for i, exp := range exports {
		theta, err := resource.ParseSet(exp.Theta)
		if err != nil {
			return fmt.Errorf("server: import %s: bad theta: %w", exp.Loc, err)
		}
		sh := shards[slices.IndexFunc(shards, func(sh *shard) bool { return sh.loc == exp.Loc })]
		ld := landing{sh: sh, now: max(sh.now, exp.Now)}
		theta = theta.TrimmedBefore(ld.now)
		ld.theta = sh.theta.TrimmedBefore(ld.now).Union(theta)
		// Both wire lists decode into the one record type; a hold is the
		// slice that carries a lease.
		var shipped resource.Set
		decode := func(in reservation, demand string) error {
			d, err := resource.ParseSet(demand)
			if err != nil {
				return fmt.Errorf("server: import %s: %s demand: %w", exp.Loc, in.name, err)
			}
			in.parts = parts{{loc: exp.Loc, set: d.TrimmedBefore(ld.now)}}
			shipped.AddSet(in.parts[0].set)
			ld.incoming = append(ld.incoming, &in)
			return nil
		}
		for _, c := range exp.Commitments {
			if err := decode(reservation{name: c.Name, key: c.Key, finish: c.Finish,
				deadline: c.Deadline, admitted: c.Admitted}, c.Demand); err != nil {
				return err
			}
		}
		for _, h := range exp.Holds {
			if h.Expiry <= 0 {
				return fmt.Errorf("server: import %s: hold %s carries no lease", exp.Loc, h.Key)
			}
			if err := decode(reservation{name: h.Name, key: h.Key, finish: h.Finish,
				deadline: h.Deadline, lease: h.Expiry}, h.Demand); err != nil {
				return err
			}
		}
		if ld.free, err = sh.free.TrimmedBefore(ld.now).Union(theta).PatchSubtract(shipped); err != nil {
			return fmt.Errorf("server: import %s would overcommit the shard", exp.Loc)
		}
		lands[i] = ld
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ld := range lands {
		ld.sh.now, ld.sh.theta, ld.sh.free = ld.now, ld.theta, ld.free
		ld.sh.ver++
		l.hot.freeRecomputes.Add(1)
		for _, in := range ld.incoming {
			if in.parts[0].set.Empty() {
				continue
			}
			r := l.mergeLocked(in)
			if in.lease == 0 {
				// The promise crosses the wire with the commitment: a handoff
				// import or standby promotion adopts the original deadline
				// window, so outcomes keep being counted after the owner died.
				o.adopted = append(o.adopted, assure.Promise{Job: in.name, Admitted: in.admitted,
					Finish: r.finish, Deadline: in.deadline, Locations: r.locs()})
			}
		}
	}
	l.addOwnedLocked(o.moved)
	l.apply(o)
	return nil
}
