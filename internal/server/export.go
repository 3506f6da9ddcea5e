package server

import (
	"fmt"
	"sort"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Ledger export/import: the state-shipping half of ownership handoff
// and warm-standby failover. ExportLocations serializes everything one
// location's shard implies (its availability, clock, and each
// commitment's and hold's slice of demand on it); ImportLocations
// installs such an export on a new owner, merging with what the
// receiver already has (a spanning job may already be committed there
// under the same name or 2PC key); DropLocations atomically strips the
// exported locations from the old owner. The cluster layer sequences
// these make-before-break — install on the new owner completes before
// the old owner drops — which is the paper's migrate rule applied to a
// whole shard instead of a single computation.

// ExportCommitment is one commitment's slice of demand on an exported
// location.
type ExportCommitment struct {
	Name     string        `json:"name"`
	Demand   string        `json:"demand"`
	Finish   interval.Time `json:"finish"`
	Deadline interval.Time `json:"deadline"`
	Admitted interval.Time `json:"admitted"`
}

// ExportHold is one leased two-phase hold's slice of demand on an
// exported location. The original key and expiry travel with it so the
// coordinator's commit/abort (forwarded by the old owner) still
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

// restrictToLoc filters a demand set to the terms one location's shard
// owns, clamped to the not-yet-consumed window.
func restrictToLoc(demand resource.Set, loc resource.Location, now interval.Time) resource.Set {
	var out resource.Set
	for _, t := range demand.Terms() {
		if shardOf(t.Type) == loc {
			out.Add(t)
		}
	}
	return out.Clamp(interval.New(now, interval.Infinity))
}

// ExportLocations serializes the given locations' shards. Read-only;
// the caller (the cluster layer's handoff or shadow shipping) is
// responsible for freezing admissions if it needs the export and a
// subsequent drop to be atomic.
func (l *Ledger) ExportLocations(locs []resource.Location) []LocationExport {
	l.mu.Lock()
	commits := make([]*commitment, 0, len(l.commits))
	for _, c := range l.commits {
		if !c.pending {
			commits = append(commits, c)
		}
	}
	holds := make([]*hold, 0, len(l.holds))
	for _, h := range l.holds {
		if !h.pending {
			holds = append(holds, h)
		}
	}
	shardsByLoc := make(map[resource.Location]*shard, len(locs))
	for _, loc := range locs {
		if sh, ok := l.shards[loc]; ok {
			shardsByLoc[loc] = sh
		}
	}
	l.mu.Unlock()

	out := make([]LocationExport, 0, len(locs))
	for _, loc := range locs {
		exp := LocationExport{Loc: loc, Now: l.Now()}
		if sh, ok := shardsByLoc[loc]; ok {
			sh.mu.Lock()
			exp.Now = sh.now
			exp.Theta = sh.theta.Compact()
			sh.mu.Unlock()
		}
		for _, c := range commits {
			part := restrictToLoc(c.plan.Demand(), loc, exp.Now)
			if part.Empty() {
				continue
			}
			exp.Commitments = append(exp.Commitments, ExportCommitment{
				Name:     c.name,
				Demand:   part.Compact(),
				Finish:   c.plan.Finish,
				Deadline: c.deadline,
				Admitted: c.admitted,
			})
		}
		for _, h := range holds {
			part := restrictToLoc(h.demand, loc, exp.Now)
			if part.Empty() {
				continue
			}
			exp.Holds = append(exp.Holds, ExportHold{
				Key:      h.key,
				Name:     h.name,
				Demand:   part.Compact(),
				Finish:   h.finish,
				Deadline: h.deadline,
				Expiry:   h.expiry,
			})
		}
		sort.Slice(exp.Commitments, func(i, j int) bool { return exp.Commitments[i].Name < exp.Commitments[j].Name })
		sort.Slice(exp.Holds, func(i, j int) bool { return exp.Holds[i].Key < exp.Holds[j].Key })
		out = append(out, exp)
	}
	return out
}

// subtractLoc removes every term owned by loc from a demand set.
func subtractLoc(demand resource.Set, loc resource.Location) resource.Set {
	var out resource.Set
	for _, t := range demand.Terms() {
		if shardOf(t.Type) != loc {
			out.Add(t)
		}
	}
	return out
}

// DropLocations atomically strips the given locations from this ledger:
// their shards disappear, every commitment and hold loses its slice of
// demand on them (entries left empty are removed entirely), and the
// locations leave the owned set so later requests get ErrNotOwned. It
// returns the keys of live holds that lost demand — the cluster layer
// must forward their eventual commit/abort to the new owner.
func (l *Ledger) DropLocations(locs []resource.Location) []string {
	// Shard locks first (the canonical order: l.mu is never held while a
	// shard lock is acquired), then l.mu for the maps. Holding both
	// serializes the drop against in-flight admissions and prepares,
	// whose post-lock ownership re-check sees the shrunken owned set.
	_, unlock := l.lockedShards(locs)
	defer unlock()
	dropped := make(map[resource.Location]bool, len(locs))
	for _, loc := range locs {
		dropped[loc] = true
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for _, loc := range locs {
		delete(l.shards, loc)
		if l.owned != nil {
			delete(l.owned, loc)
		}
	}
	for name, c := range l.commits {
		if c.pending {
			continue
		}
		touched := false
		for _, loc := range c.locs {
			if dropped[loc] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		remaining := c.plan.Demand()
		var keptLocs []resource.Location
		for _, loc := range c.locs {
			if dropped[loc] {
				remaining = subtractLoc(remaining, loc)
			} else {
				keptLocs = append(keptLocs, loc)
			}
		}
		if remaining.Empty() {
			delete(l.commits, name)
			// The whole commitment left with the handoff: the receiving
			// node adopts the promise on import, this node stops counting
			// it. Partial drops keep the promise active here — some of the
			// footprint is still this node's to honor.
			l.assure.Transfer(name)
			continue
		}
		c.locs = keptLocs
		c.plan = planFromSet(c.name, remaining, c.plan.Finish)
	}
	var movedKeys []string
	for key, h := range l.holds {
		if h.pending {
			continue
		}
		touched := false
		for _, loc := range h.locs {
			if dropped[loc] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		movedKeys = append(movedKeys, key)
		remaining := h.demand
		var keptLocs []resource.Location
		for _, loc := range h.locs {
			if dropped[loc] {
				remaining = subtractLoc(remaining, loc)
			} else {
				keptLocs = append(keptLocs, loc)
			}
		}
		if remaining.Empty() {
			delete(l.holds, key)
			if l.heldNames[h.name] == key {
				delete(l.heldNames, h.name)
			}
			continue
		}
		h.demand = remaining
		h.locs = keptLocs
	}
	sort.Strings(movedKeys)
	// bumpEpoch takes no locks and the notifier is non-blocking, so the
	// bump is safe under l.mu and the drop publishes atomically with it.
	l.bumpEpoch("handoff")
	return movedKeys
}

// absorbLocked folds one more slice of a federated job's demand into the
// live commitment this node already carries under the same name, and
// returns that commitment — nil when there is none to merge into. The
// caller holds l.mu.
func (l *Ledger) absorbLocked(name string, demand resource.Set, finish interval.Time) *commitment {
	prev, ok := l.commits[name]
	if !ok || prev.pending {
		return nil
	}
	merged := prev.plan.Demand().Union(demand)
	if prev.plan.Finish > finish {
		finish = prev.plan.Finish
	}
	prev.plan = planFromSet(prev.name, merged, finish)
	prev.locs = demandFootprint(merged)
	return prev
}

// ImportLocations installs exported location state on this ledger: the
// shard appears with the exporter's clock and availability, and each
// shipped commitment and hold lands — merged into an existing entry of
// the same name/key when this node already carried another slice of the
// same federated job. The caller should extend the owned set (AddOwned)
// first so concurrent requests for the location are accepted.
func (l *Ledger) ImportLocations(exports []LocationExport) error {
	for _, exp := range exports {
		theta, err := resource.ParseSet(exp.Theta)
		if err != nil {
			return fmt.Errorf("server: import %s: bad theta: %w", exp.Loc, err)
		}
		type impCommit struct {
			ExportCommitment
			demand resource.Set
		}
		type impHold struct {
			ExportHold
			demand resource.Set
		}
		commits := make([]impCommit, 0, len(exp.Commitments))
		for _, c := range exp.Commitments {
			d, err := resource.ParseSet(c.Demand)
			if err != nil {
				return fmt.Errorf("server: import %s: commitment %s demand: %w", exp.Loc, c.Name, err)
			}
			commits = append(commits, impCommit{c, d})
		}
		holds := make([]impHold, 0, len(exp.Holds))
		for _, h := range exp.Holds {
			d, err := resource.ParseSet(h.Demand)
			if err != nil {
				return fmt.Errorf("server: import %s: hold %s demand: %w", exp.Loc, h.Key, err)
			}
			holds = append(holds, impHold{h, d})
		}

		shards, unlock := l.lockedShards([]resource.Location{exp.Loc})
		sh := shards[0]
		if exp.Now > sh.now {
			sh.now = exp.Now
			sh.theta.TrimBefore(sh.now)
			sh.reserved.TrimBefore(sh.now)
		}
		window := interval.New(sh.now, interval.Infinity)
		sh.theta = sh.theta.Union(theta.Clamp(window))
		var reserved resource.Set
		for _, c := range commits {
			reserved = reserved.Union(c.demand.Clamp(window))
		}
		for _, h := range holds {
			reserved = reserved.Union(h.demand.Clamp(window))
		}
		sh.reserved = sh.reserved.Union(reserved)
		sh.dirty()
		dominated := sh.theta.Dominates(sh.reserved)
		shNow := sh.now
		unlock()
		if !dominated {
			return fmt.Errorf("server: import %s would overcommit the shard", exp.Loc)
		}

		l.mu.Lock()
		for _, c := range commits {
			demand := c.demand.Clamp(interval.New(shNow, interval.Infinity))
			if demand.Empty() {
				continue
			}
			if prev := l.absorbLocked(c.Name, demand, c.Finish); prev != nil {
				l.assure.Adopt(c.Name, c.Admitted, prev.plan.Finish, c.Deadline,
					l.epoch.Load(), prev.locs)
				continue
			}
			newC := &commitment{
				name:     c.Name,
				locs:     demandFootprint(demand),
				plan:     planFromSet(c.Name, demand, c.Finish),
				deadline: c.Deadline,
				admitted: c.Admitted,
			}
			l.commits[c.Name] = newC
			// The promise crosses the wire with the commitment: a handoff
			// import or standby promotion adopts the original deadline
			// window, so outcomes keep being counted after the owner died.
			l.assure.Adopt(c.Name, c.Admitted, c.Finish, c.Deadline,
				l.epoch.Load(), newC.locs)
		}
		for _, h := range holds {
			demand := h.demand.Clamp(interval.New(shNow, interval.Infinity))
			if demand.Empty() {
				continue
			}
			// When the coordinator's commit already landed here for the
			// slice this node held, the moved slice joins that commitment:
			// a hold recreated under a committed key would never be
			// promoted (Commit is a no-op on it) and the lease sweep would
			// take the job's reservation away.
			if name, done := l.committedKeys[h.Key]; done && l.absorbLocked(name, demand, h.Finish) != nil {
				continue
			}
			if prev, ok := l.holds[h.Key]; ok && !prev.pending {
				merged := prev.demand.Union(demand)
				prev.demand = merged
				prev.locs = demandFootprint(merged)
				if h.Expiry < prev.expiry {
					prev.expiry = h.Expiry
				}
				if h.Finish > prev.finish {
					prev.finish = h.Finish
				}
				continue
			}
			l.holds[h.Key] = &hold{
				key:      h.Key,
				name:     h.Name,
				demand:   demand,
				locs:     demandFootprint(demand),
				finish:   h.Finish,
				deadline: h.Deadline,
				expiry:   h.Expiry,
			}
			l.heldNames[h.Name] = h.Key
		}
		l.mu.Unlock()
	}
	l.bumpEpoch("handoff")
	return nil
}
