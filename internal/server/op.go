package server

import (
	"context"
	"strings"

	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
)

// A ledger mutation is one op: the effect of a state change, not the
// request that caused it. The alphabet follows the paper's labelled
// transition rules — a reserve or a prepare accommodates, an acquire
// acquires, an advance ticks, a release or an abort leaves, and a drop
// and an install move shards between nodes — and every op ends in one
// apply, which numbers it with the next epoch. The numbered stream is
// the ledger's history: availability as a commit history, not a flag.
// A fresh ledger fed only that stream, through the same effect steps,
// reaches the same state (TestReservationModel replays every run).

type opKind uint8

const (
	opReserve opKind = iota // a local admission's witness plan lands
	opRelease               // a commitment leaves, released or moved away
	opPrepare               // a leased two-phase hold lands
	opCommit                // a hold's lease is cleared
	opAbort                 // a hold, or a commitment rolled back, leaves
	opAcquire               // availability joins Θ
	opAdvance               // the clock ticks: completions and lapsed leases leave
	opDrop                  // a hand-off strips locations from this node
	opInstall               // a hand-off installs exported locations here
)

// op is one mutation's effect. Each kind fills the fields it needs.
type op struct {
	kind opKind
	// rec is the reservation a reserve or prepare lands, or the one a
	// release, commit or abort resolves, as the op leaves it. An
	// acquire's rec.parts is the availability it merges in.
	rec reservation
	// locs are the shards the op wrote (a reserve's: the job's
	// footprint), where it may have flipped a standing query's verdict.
	// Nil means it may reach any verdict: a clock advance moves every
	// window's start, and a hand-off moves names between nodes.
	locs []resource.Location
	// moved are the locations a drop strips or an install lands.
	moved []resource.Location
	// at is the clock an advance moves to, or the one a release
	// resolves its promise at.
	at interval.Time
	// unwind marks a release whose promise moved with the job to another
	// node, or an abort that rolls back a commitment.
	unwind  bool
	exports []LocationExport // what an install lands

	// Set by the effect for apply: the commitments an advance completed
	// or a drop moved away whole, the jobs an advance left standing, the
	// holds whose lease it reclaimed, and the promises an install adopts.
	jobs    []string
	live    map[string]bool
	lapsed  []*reservation
	adopted []assure.Promise
}

// opReasons are the epoch reasons /v1/watch reports, by kind: both
// halves of a hand-off report "handoff".
var opReasons = [...]string{"reserve", "release", "prepare", "commit", "abort", "acquire", "advance", "handoff", "handoff"}

// reason is the epoch reason o reports: an abort that rolls back a
// commitment is, to the free view, a release.
func (o *op) reason() string {
	if o.kind == opAbort && o.unwind {
		return "release"
	}
	return opReasons[o.kind]
}

// flow returns the sets o took from the free view of the shards it wrote
// and the sets it gave to it: a reserve or a prepare takes its demand, a
// release or an abort gives it back, and an acquire gives availability.
// Any other kind passes its sets as both, so a standing query reading
// them wakes whichever way its margin lies.
func (o *op) flow() (took, gave []resource.Set) {
	sets := o.rec.parts.sets()
	switch o.kind {
	case opReserve, opPrepare:
		return sets, nil
	case opRelease, opAbort, opAcquire:
		return nil, sets
	}
	return sets, sets
}

// apply makes o, whose effect is already on the ledger, a numbered
// change: it takes the next epoch — o's sequence number in the stream —
// and hands o to notify, moves the deadline promises o touched, stamped
// with that epoch, reports any promise o found broken, and counts o by
// kind (the two-phase traffic counters). Every mutation ends here.
// Commit, drop and install apply inside their critical section, holding
// l.mu: their promise transitions report no outcome, so nothing here
// reads the ledger back.
func (l *Ledger) apply(o op) {
	e := l.epoch.Add(1)
	if l.notify != nil {
		l.notify(e, o)
	}
	l.ops[o.kind].Add(1)
	var violated, orphaned []string
	switch o.kind {
	case opReserve:
		l.assure.Reserve(o.rec.name, o.rec.admitted, o.rec.finish, o.rec.deadline, e, o.locs)
	case opRelease:
		if o.unwind {
			l.assure.Transfer(o.rec.name)
		} else if l.assure.Release(o.rec.name, o.at) == assure.StateViolated {
			violated = []string{o.rec.name}
		}
	case opCommit:
		// The promise is adopted, not reserved: for a coordinated
		// admission this participant holds its share of a promise made
		// cluster-wide, and for a migration commit the promise predates
		// this node entirely.
		l.assure.Adopt(o.rec.name, o.rec.admitted, o.rec.finish, o.rec.deadline, e, o.locs)
	case opAbort:
		if o.unwind {
			// The job never really ran here: its promise is forgotten,
			// neither kept nor broken.
			l.assure.Drop(o.rec.name)
		}
	case opAdvance:
		for _, h := range o.lapsed {
			l.leasesExpired.Add(1)
			l.obs.Log("ledger.lease_expired", "key", h.key, "job", h.name, "expiry", h.lease, "now", o.at)
		}
		// Completions first — a commitment finishing inside this advance
		// kept its promise even if its deadline is also behind the clock.
		// Of the rest, a promise whose deadline passed is violated when
		// its job still stands and orphaned when nobody holds it.
		for _, name := range o.jobs {
			l.assure.Complete(name, o.at)
		}
		live := o.live
		violated, orphaned = l.assure.Sweep(o.at, func(job string) bool { return live[job] })
	case opDrop:
		// The receiving node adopts these promises on install.
		for _, name := range o.jobs {
			l.assure.Transfer(name)
		}
	case opInstall:
		for _, p := range o.adopted {
			l.assure.Adopt(p.Job, p.Admitted, p.Finish, p.Deadline, e, p.Locations)
		}
	}
	l.report(assure.StateOrphaned, orphaned, o.at)
	l.report(assure.StateViolated, violated, o.at)
}

// report leaves the forensic trail of promises an op resolved as
// orphaned or violated: a KindAssure span on the timeline, a log line
// and, for a violation, a flight-recorder freeze. Healthy paths cannot
// violate (admission bounds every plan finish by its deadline), so a
// violation always marks a bug or an unmodeled failure.
func (l *Ledger) report(state string, jobs []string, now interval.Time) {
	if len(jobs) == 0 {
		return
	}
	_, sp := l.spans.Start(context.Background(), span.KindAssure)
	sp.Attr(state, len(jobs))
	if len(jobs) == 1 {
		sp.Attr("job", jobs[0])
	}
	sp.SetStatus(state)
	sp.End()
	list := strings.Join(jobs, ",")
	l.obs.Log("assure."+state, "jobs", list, "now", now)
	if state == assure.StateViolated {
		l.flight.Trigger(flightrec.TriggerViolation, list)
	}
}
