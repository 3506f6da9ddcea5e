// Package assure closes the loop on deadline assurance: it records,
// per admitted job, the promise the admission controller made (the
// witness plan finishes by Finish, Finish ≤ Deadline) and tracks that
// promise through the job's whole lifecycle — reserve, 2PC commit,
// migration, handoff, standby promotion — until a terminal outcome is
// known. Every promise ends in exactly one of:
//
//	kept              the work completed (or was released) inside its window
//	violated          the deadline passed while the job was still live here
//	orphaned          the deadline passed with nobody holding the job
//	evicted-with-job  this node was fenced out of the cluster while holding it
//
// plus the non-terminal disposition `transferred` (the promise moved to
// another node, which now reports it). Transferred promises are excluded
// from attainment denominators so cluster-wide totals are a plain sum of
// per-node reports.
//
// In the paper's temporal terms: admission proves ◇(done ∧ now ≤ d)
// under the witness plan; the ledger here checks, after the fact, that
// □(admitted → ◇≤d done) actually held for every admitted job. Healthy
// code paths cannot produce `violated` — Advance completes every
// commitment at its plan finish, which admission bounded by the
// deadline — so a nonzero violation count always indicates a bug or an
// unmodeled failure, which is exactly what makes it worth alerting on.
package assure

import (
	"sort"
	"sync"
	"time"

	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/resource"
)

// Promise states. Terminal states are counted toward attainment;
// StateTransferred is a disposition (another node now owns the
// promise); StateActive means the window is still open here.
const (
	StateActive      = "active"
	StateKept        = "kept"
	StateViolated    = "violated"
	StateOrphaned    = "orphaned"
	StateEvicted     = "evicted-with-job"
	StateTransferred = "transferred"
)

// Promise is one deadline-assurance record: what was promised at
// admission and, once known, how it turned out.
type Promise struct {
	Job      string        `json:"job"`
	Node     string        `json:"node,omitempty"`
	Admitted interval.Time `json:"admitted"`
	// Finish is the witness plan's completion time at admission (or the
	// latest finish merged in across adoptions).
	Finish   interval.Time `json:"finish"`
	Deadline interval.Time `json:"deadline"`
	// SlackAtAdmit = Deadline - Finish: how much margin the admission
	// proof left. Zero-slack admits are the first to go wrong.
	SlackAtAdmit interval.Time       `json:"slack_at_admit"`
	Epoch        uint64              `json:"epoch"`
	Locations    []resource.Location `json:"locations,omitempty"`
	State        string              `json:"state"`
	// ResolvedAt and SlackAtCompletion are set on terminal outcomes:
	// SlackAtCompletion = Deadline - completion time (negative when
	// violated).
	ResolvedAt        interval.Time `json:"resolved_at,omitempty"`
	SlackAtCompletion interval.Time `json:"slack_at_completion,omitempty"`
	// Adopted marks promises that arrived via 2PC commit, handoff import
	// or standby promotion rather than local admission.
	Adopted bool `json:"adopted,omitempty"`
}

// Stats is the counter block surfaced under /v1/stats "assure" and, via
// its metric tags, on /metrics.
type Stats struct {
	Active         uint64 `json:"promises_active" metric:"rota_assure_active_promises" help:"Admitted jobs whose deadline window is still open here."`
	Kept           uint64 `json:"promises_kept" metric:"rota_assure_promises_total,state=kept" help:"Promise dispositions reached, by terminal state."`
	Violated       uint64 `json:"promises_violated" metric:"rota_assure_promises_total,state=violated"`
	Orphaned       uint64 `json:"promises_orphaned" metric:"rota_assure_promises_total,state=orphaned"`
	EvictedWithJob uint64 `json:"promises_evicted_with_job" metric:"rota_assure_promises_total,state=evicted-with-job"`
	Transferred    uint64 `json:"promises_transferred" metric:"rota_assure_promises_total,state=transferred"`
	// Attainment = kept / terminal outcomes (1.0 while nothing terminal
	// has happened). Transferred promises are someone else's to report.
	Attainment float64 `json:"slo_attainment" metric:"rota_assure_attainment" help:"Kept promises over terminal outcomes (1.0 before any outcome)."`
	// BurnRate is violations per minute over the trailing 60 seconds of
	// wall time.
	BurnRate        float64                  `json:"violation_burn_rate" metric:"rota_assure_burn_rate" help:"Promise violations per minute over the trailing 60s."`
	SlackAdmit      metrics.HistogramSummary `json:"slack_at_admit_ticks" metric:"rota_assure_slack_at_admit_ticks" help:"Deadline minus witness-plan finish at admission, in ticks."`
	SlackCompletion metrics.HistogramSummary `json:"slack_at_completion_ticks" metric:"rota_assure_slack_at_completion_ticks" help:"Deadline minus completion time at resolution, in ticks."`
}

// LocationOutcomes is per-location SLO attainment: a promise whose
// footprint touched a location counts its outcome there.
type LocationOutcomes struct {
	Kept       uint64  `json:"kept"`
	Violated   uint64  `json:"violated"`
	Other      uint64  `json:"other"`
	Attainment float64 `json:"attainment"`
}

// Report is the GET /v1/assure payload for one node.
type Report struct {
	Node      string                      `json:"node,omitempty"`
	Stats     Stats                       `json:"stats"`
	Locations map[string]LocationOutcomes `json:"locations,omitempty"`
	// Recent holds the newest resolved promises, newest first.
	Recent []Promise `json:"recent,omitempty"`
	// Anomalies holds recent violated/orphaned promises, newest first.
	Anomalies []Promise `json:"anomalies,omitempty"`
}

const (
	recentCap    = 256
	burnBuckets  = 60
	reportRecent = 32
)

type locCounts struct {
	kept, violated, other uint64
}

// activeEntry is the in-ledger form of an open promise. It deliberately
// drops every field derivable from context — Job (the map key), Node
// (the ledger's own), State (open promises are active by definition),
// SlackAtAdmit (Deadline − Finish) — so the only pointer the GC has to
// trace per live promise is the footprint slice. A loaded node holds
// one of these per live commitment; see the comment on Ledger.active.
type activeEntry struct {
	Admitted, Finish, Deadline interval.Time
	Epoch                      uint64
	Locations                  []resource.Location
	Adopted                    bool
}

// Ledger is the promise ledger. All methods are safe on a nil receiver
// (tracking disabled) and safe for concurrent use.
type Ledger struct {
	node  string
	nowFn func() time.Time

	slackAdmit *metrics.Histogram
	slackDone  *metrics.Histogram

	mu sync.Mutex
	// active stores compact entries by value: a loaded node carries one
	// live promise per live commitment, and individually boxed promises
	// would make the GC chase that many extra objects on every mark
	// cycle — measurably slowing the admit hot path, whose allocation
	// rate keeps the collector busy. As inline values they cost one
	// bucket scan, and the key strings share their backing arrays with
	// the commitment names the server ledger already keeps live.
	active map[string]activeEntry
	recent []Promise // ring, newest at (head-1+cap)%cap
	head   int
	full   bool

	kept, violated, orphaned, evicted, transferred uint64

	perLoc map[resource.Location]*locCounts

	// burn[i] counts violations during unix second burnAt[i].
	burn   [burnBuckets]uint64
	burnAt [burnBuckets]int64
}

// New builds a promise ledger reporting as node.
func New(node string) *Ledger {
	return &Ledger{
		node:       node,
		nowFn:      time.Now,
		slackAdmit: metrics.NewHistogram(),
		slackDone:  metrics.NewHistogram(),
		active:     make(map[string]activeEntry),
		recent:     make([]Promise, recentCap),
		perLoc:     make(map[resource.Location]*locCounts),
	}
}

// Reserve records the promise made by a local admission: the witness
// plan finishes at finish ≤ deadline, reserved at ledger epoch `epoch`
// across locs. Overwrites any stale active promise for the same job.
func (l *Ledger) Reserve(job string, admitted, finish, deadline interval.Time, epoch uint64, locs []resource.Location) {
	if l == nil {
		return
	}
	l.slackAdmit.Observe(float64(deadline - finish))
	e := activeEntry{
		Admitted: admitted, Finish: finish, Deadline: deadline,
		Epoch: epoch, Locations: locs,
	}
	l.mu.Lock()
	l.active[job] = e
	l.mu.Unlock()
}

// Adopt records a promise that arrived from elsewhere: a 2PC commit on
// a participant, a handoff import, or a standby promotion. The promise
// must survive the job changing owners, so adopting an already-active
// job merges footprints and keeps the wider window instead of
// double-counting. Adoption does not re-observe slack-at-admit — the
// promise was made once, where the job was admitted.
func (l *Ledger) Adopt(job string, admitted, finish, deadline interval.Time, epoch uint64, locs []resource.Location) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.active[job]; ok {
		if finish > e.Finish {
			e.Finish = finish
		}
		if deadline > e.Deadline {
			e.Deadline = deadline
		}
		e.Locations = mergeLocs(e.Locations, locs)
		l.active[job] = e
		return
	}
	l.active[job] = activeEntry{
		Admitted: admitted, Finish: finish, Deadline: deadline,
		Epoch: epoch, Locations: locs, Adopted: true,
	}
}

// promiseOf materializes the full Promise record for an open entry.
func (l *Ledger) promiseOf(job string, e activeEntry) Promise {
	return Promise{
		Job: job, Node: l.node,
		Admitted: e.Admitted, Finish: e.Finish, Deadline: e.Deadline,
		SlackAtAdmit: e.Deadline - e.Finish,
		Epoch:        e.Epoch, Locations: e.Locations, State: StateActive,
		Adopted: e.Adopted,
	}
}

func mergeLocs(a, b []resource.Location) []resource.Location {
	out := append([]resource.Location(nil), a...)
	for _, loc := range b {
		seen := false
		for _, have := range out {
			if have == loc {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, loc)
		}
	}
	return out
}

// Release resolves a promise because the job was explicitly released at
// tick now: kept when the deadline had not yet passed, violated when it
// had. Returns the terminal state, or "" when no promise was active.
func (l *Ledger) Release(job string, now interval.Time) string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	e, ok := l.active[job]
	if !ok {
		l.mu.Unlock()
		return ""
	}
	state := StateKept
	if now > e.Deadline {
		state = StateViolated
	}
	l.resolveLocked(job, e, state, now)
	l.mu.Unlock()
	l.slackDone.Observe(float64(e.Deadline - now))
	return state
}

// Complete resolves a promise kept because the ledger clock advanced
// past the plan's finish — the reservation ran its promised course.
// Slack at completion is measured at the plan finish, not the sweep
// tick, so a late Advance doesn't understate margins.
func (l *Ledger) Complete(job string, now interval.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e, ok := l.active[job]
	if !ok {
		l.mu.Unlock()
		return
	}
	done := e.Finish
	if now < done {
		done = now
	}
	l.resolveLocked(job, e, StateKept, done)
	l.mu.Unlock()
	l.slackDone.Observe(float64(e.Deadline - done))
}

// Transfer marks a promise as handed to another node (migration or
// handoff drained this node's share of the footprint). The receiving
// node Adopts it; this node stops counting it toward attainment.
func (l *Ledger) Transfer(job string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.active[job]
	if !ok {
		return
	}
	l.resolveLocked(job, e, StateTransferred, e.Deadline)
}

// Drop forgets an active promise without classifying it — for the
// rollback path (a 2PC abort of a just-committed key) where the
// admission itself is being unwound.
func (l *Ledger) Drop(job string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	delete(l.active, job)
	l.mu.Unlock()
}

// Sweep resolves every active promise whose deadline has passed at tick
// now: violated when the job is still live (the system failed the
// window while holding the work), orphaned when nobody holds it any
// more. Returns the violated and orphaned job names for alerting.
func (l *Ledger) Sweep(now interval.Time, live func(job string) bool) (violated, orphaned []string) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	for job, e := range l.active {
		if e.Deadline >= now {
			continue
		}
		if live != nil && live(job) {
			l.resolveLocked(job, e, StateViolated, now)
			violated = append(violated, job)
		} else {
			l.resolveLocked(job, e, StateOrphaned, now)
			orphaned = append(orphaned, job)
		}
	}
	l.mu.Unlock()
	sort.Strings(violated)
	sort.Strings(orphaned)
	return violated, orphaned
}

// EvictAll resolves every active promise as evicted-with-job — this
// node was fenced out of the cluster while holding work. The standbys'
// shadow copies become the authoritative promises via Adopt.
func (l *Ledger) EvictAll(now interval.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.active)
	for job, e := range l.active {
		l.resolveLocked(job, e, StateEvicted, now)
	}
	return n
}

// resolveLocked moves job's entry out of active into the resolved ring
// and bumps the outcome counters. Caller holds l.mu.
func (l *Ledger) resolveLocked(job string, e activeEntry, state string, at interval.Time) {
	delete(l.active, job)
	p := l.promiseOf(job, e)
	p.State = state
	p.ResolvedAt = at
	p.SlackAtCompletion = p.Deadline - at
	switch state {
	case StateKept:
		l.kept++
	case StateViolated:
		l.violated++
		l.burnLocked()
	case StateOrphaned:
		l.orphaned++
	case StateEvicted:
		l.evicted++
	case StateTransferred:
		l.transferred++
	}
	if state != StateTransferred {
		for _, loc := range p.Locations {
			lc := l.perLoc[loc]
			if lc == nil {
				lc = &locCounts{}
				l.perLoc[loc] = lc
			}
			switch state {
			case StateKept:
				lc.kept++
			case StateViolated:
				lc.violated++
			default:
				lc.other++
			}
		}
	}
	l.recent[l.head] = p
	l.head = (l.head + 1) % recentCap
	if l.head == 0 {
		l.full = true
	}
}

func (l *Ledger) burnLocked() {
	sec := l.nowFn().Unix()
	i := int(sec % burnBuckets)
	if l.burnAt[i] != sec {
		l.burnAt[i] = sec
		l.burn[i] = 0
	}
	l.burn[i]++
}

func (l *Ledger) burnRateLocked() float64 {
	sec := l.nowFn().Unix()
	var total uint64
	for i := range l.burn {
		if sec-l.burnAt[i] < burnBuckets {
			total += l.burn[i]
		}
	}
	return float64(total)
}

// Lookup returns the current view of one job's promise: the active one
// if the window is still open, else the newest resolved record.
func (l *Ledger) Lookup(job string) (Promise, bool) {
	if l == nil {
		return Promise{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.active[job]; ok {
		return l.promiseOf(job, e), true
	}
	n := recentCap
	if !l.full {
		n = l.head
	}
	for k := 1; k <= n; k++ {
		i := (l.head - k + recentCap) % recentCap
		if l.recent[i].Job == job {
			return l.recent[i], true
		}
	}
	return Promise{}, false
}

// Stats digests the counters.
func (l *Ledger) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	st := Stats{
		Active:         uint64(len(l.active)),
		Kept:           l.kept,
		Violated:       l.violated,
		Orphaned:       l.orphaned,
		EvictedWithJob: l.evicted,
		Transferred:    l.transferred,
		BurnRate:       l.burnRateLocked(),
	}
	l.mu.Unlock()
	st.Attainment = attainment(st)
	st.SlackAdmit = l.slackAdmit.Summary()
	st.SlackCompletion = l.slackDone.Summary()
	return st
}

func attainment(st Stats) float64 {
	terminal := st.Kept + st.Violated + st.Orphaned + st.EvictedWithJob
	if terminal == 0 {
		return 1
	}
	return float64(st.Kept) / float64(terminal)
}

// MergeStats sums per-node stats into a cluster total. Slack digests
// are not mergeable and stay zero; attainment and burn rate are
// recomputed over the summed counts.
func MergeStats(parts []Stats) Stats {
	var out Stats
	for _, st := range parts {
		out.Active += st.Active
		out.Kept += st.Kept
		out.Violated += st.Violated
		out.Orphaned += st.Orphaned
		out.EvictedWithJob += st.EvictedWithJob
		out.Transferred += st.Transferred
		out.BurnRate += st.BurnRate
	}
	out.Attainment = attainment(out)
	return out
}

// stateRank orders per-job views across nodes: the most authoritative
// account of a promise wins. A violation anywhere is the headline; a
// kept outcome beats the stale transferred/orphaned records left on
// previous owners; an open window beats a node that gave the job away.
var stateRank = map[string]int{
	StateViolated:    5,
	StateKept:        4,
	StateEvicted:     3,
	StateActive:      2,
	StateOrphaned:    1,
	StateTransferred: 0,
}

// Merge picks the authoritative view of one job from several nodes'
// records (cluster fan-out of GET /v1/assure?job=...).
func Merge(views []Promise) (Promise, bool) {
	best := -1
	for i, v := range views {
		if best < 0 || stateRank[v.State] > stateRank[views[best].State] {
			best = i
		}
	}
	if best < 0 {
		return Promise{}, false
	}
	return views[best], true
}

// Locations returns the per-location outcome table.
func (l *Ledger) Locations() map[string]LocationOutcomes {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.perLoc) == 0 {
		return nil
	}
	out := make(map[string]LocationOutcomes, len(l.perLoc))
	for loc, lc := range l.perLoc {
		lo := LocationOutcomes{Kept: lc.kept, Violated: lc.violated, Other: lc.other}
		if total := lc.kept + lc.violated + lc.other; total > 0 {
			lo.Attainment = float64(lc.kept) / float64(total)
		}
		out[string(loc)] = lo
	}
	return out
}

// Report assembles the GET /v1/assure payload.
func (l *Ledger) Report() Report {
	if l == nil {
		return Report{}
	}
	rep := Report{Node: l.node, Stats: l.Stats(), Locations: l.Locations()}
	l.mu.Lock()
	n := recentCap
	if !l.full {
		n = l.head
	}
	for k := 1; k <= n; k++ {
		p := l.recent[(l.head-k+recentCap)%recentCap]
		if len(rep.Recent) < reportRecent {
			rep.Recent = append(rep.Recent, p)
		}
		if (p.State == StateViolated || p.State == StateOrphaned) && len(rep.Anomalies) < reportRecent {
			rep.Anomalies = append(rep.Anomalies, p)
		}
		if len(rep.Recent) == reportRecent && len(rep.Anomalies) == reportRecent {
			break
		}
	}
	l.mu.Unlock()
	return rep
}
