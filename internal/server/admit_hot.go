package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/workload"
)

// The admission hot path: optimistic epoch-validated planning plus
// per-footprint batching of the reserve phase.
//
// Running the Theorem-4 witness-plan search while holding every
// footprint shard's lock would serialize concurrent admits to one
// location on the (expensive) search. Instead each admission:
//
//  1. snapshots — locks the footprint shards just long enough to read
//     the cached free view and each shard's mutation version;
//  2. plans — runs admission.Decide against the snapshot outside any
//     lock, so plan searches for the same shard proceed in parallel;
//  3. validates and reserves — re-locks the shards and applies the plan
//     if the snapshot versions are unchanged (the plan fits by
//     construction: the planner only emits plans that fit the view it
//     searched) or, when a concurrent mutation moved the versions, if
//     the plan's demand still fits the current free view. A miss
//     replans from a fresh snapshot, bounded by defaultAdmitRetries,
//     before a final attempt that plans under the locks (runLocked,
//     which cannot conflict).
//
// Soundness is unchanged from the lock-holding path: a reservation is
// only ever applied after a fit check (version-unchanged or explicit
// dominance) made under the shard locks, so Θ dominates reserved at
// every step — Theorem 4's no-overcommitment invariant is enforced at
// reserve time exactly as before; optimism only moves the *search*
// outside the critical section, and a stale plan costs a retry, never
// an overcommit.
//
// Batching: concurrent admissions whose footprints name the same
// location set combine their validate-and-reserve phases — the first
// becomes the batch leader, drains the group queue, and validates the
// whole batch under one lock acquisition with one epoch bump, handing
// leadership to the oldest waiter when it finishes. Decisions stay
// per-job; members whose plans no longer fit are conflicted out
// individually and replan.
//
// Deadlines: the requester's ctx is checked before each attempt's
// snapshot and, under the shard locks, just before a plan is reserved;
// the plan search itself is bounded and runs to completion. A plan found
// after the ctx is done is refused with errLate and nothing is reserved,
// so every reservation is one a requester was told about — a verdict is
// applied inside its time window or not at all.

// defaultAdmitRetries bounds the optimistic attempts before the
// plan-under-locks fallback.
const defaultAdmitRetries = 3

// errLate marks an admission whose witness plan was found after its ctx
// was done: it was refused at reserve, with nothing reserved. It is
// always wrapped together with the ctx error (see settleLate).
var errLate = errors.New("server: plan found after the decision deadline; nothing reserved")

// hotCounters counts admission hot-path events. All fields are atomic;
// the struct lives on the Ledger and is shared with every shard.
type hotCounters struct {
	batches        atomic.Uint64 // validate-and-reserve batches executed
	batchedJobs    atomic.Uint64 // jobs decided through the hot path
	planRetries    atomic.Uint64 // plans re-run after a validation conflict
	planFallbacks  atomic.Uint64 // jobs that fell back to planning under locks
	freePatches    atomic.Uint64 // incremental free-view patches applied
	freeRecomputes atomic.Uint64 // full θ∖reserved recomputes
}

// AdmitHotCounters is the JSON shape of the hot-path counters for
// /v1/stats.
type AdmitHotCounters struct {
	Batches        uint64 `json:"batches" metric:"rota_admit_batches_total" help:"Admission batches executed on the hot path."`
	BatchedJobs    uint64 `json:"batched_jobs" metric:"rota_admit_batched_jobs_total" help:"Jobs decided through the admission batch path."`
	PlanRetries    uint64 `json:"plan_retries" metric:"rota_admit_plan_retries_total" help:"Optimistic plans re-run after a validation conflict."`
	PlanFallbacks  uint64 `json:"plan_fallbacks" metric:"rota_admit_plan_fallbacks_total" help:"Jobs that exhausted optimistic retries and planned under the shard locks."`
	FreePatches    uint64 `json:"free_patches" metric:"rota_free_view_patches_total" help:"Incremental free-view cache patches applied."`
	FreeRecomputes uint64 `json:"free_recomputes" metric:"rota_free_view_recomputes_total" help:"Full free-view recomputes (theta minus reserved)."`
}

// AdmitHot returns the admission hot-path counters.
func (l *Ledger) AdmitHot() AdmitHotCounters {
	return AdmitHotCounters{
		Batches:        l.hot.batches.Load(),
		BatchedJobs:    l.hot.batchedJobs.Load(),
		PlanRetries:    l.hot.planRetries.Load(),
		PlanFallbacks:  l.hot.planFallbacks.Load(),
		FreePatches:    l.hot.freePatches.Load(),
		FreeRecomputes: l.hot.freeRecomputes.Load(),
	}
}

// admitOutcome is one admission's result from a validate batch: a
// terminal decision/error, or retry — the member's plan no longer fits
// and it must replan.
type admitOutcome struct {
	dec   admission.Decision
	err   error
	retry bool
}

// admitWork is one admission in flight through the hot path. The claim
// was indexed by AdmitCtx before the work entered the pipeline; whoever
// reaches a terminal outcome either finalizes or abandons it. ctx is the
// requester's: once it is done the work is refused at its next check.
type admitWork struct {
	ctx    context.Context
	policy admission.Policy
	job    workload.Job
	now    interval.Time
	claim  *reservation
	done   chan admitOutcome // buffered(1); one write per validate round
	lead   chan struct{}     // buffered(1); leadership handoff signal

	// Plan state for the current attempt, set by planOne before the
	// work enters a validate batch.
	dec   admission.Decision
	parts parts    // the plan's demand, shard by shard
	vers  []uint64 // shard versions the plan was decided against
}

// admitGroup is the combining queue for one footprint signature: works
// with a plan in hand waiting for a validate-and-reserve batch.
type admitGroup struct {
	locs    []resource.Location
	members []*admitWork // waiting, not yet drained into a batch
	leading bool         // a leader is validating (or handing off)
}

// locsKey builds the footprint signature grouping concurrent admits.
// Footprints are sorted, so equal location sets map to equal keys.
func locsKey(locs []resource.Location) string {
	if len(locs) == 1 {
		return string(locs[0])
	}
	var b strings.Builder
	for i, loc := range locs {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(string(loc))
	}
	return b.String()
}

// admitHot routes one claimed admission through the hot path and blocks
// until its outcome is decided; a done ctx ends it with nothing
// reserved (see Deadlines above).
func (l *Ledger) admitHot(ctx context.Context, policy admission.Policy, job workload.Job, now interval.Time, locs []resource.Location, claim *reservation) (admission.Decision, error) {
	w := &admitWork{
		ctx:    ctx,
		policy: policy,
		job:    job,
		now:    now,
		claim:  claim,
		done:   make(chan admitOutcome, 1),
		lead:   make(chan struct{}, 1),
	}
	l.hot.batchedJobs.Add(1)

	for attempt := 0; attempt <= defaultAdmitRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			l.settle(w, admission.Decision{}, err)
			return admission.Decision{}, err
		}
		vers := make([]uint64, len(locs))
		free, err := l.snapshotFree(locs, vers)
		if err != nil {
			l.settle(w, admission.Decision{}, err)
			return admission.Decision{}, err
		}
		if !l.planOne(w, locs, free, vers, attempt) {
			// Rejected (or plan-less): settled against the snapshot, a
			// legitimate linearization point — admission control promises
			// no-overcommit, not admit-whenever-possible.
			out := <-w.done
			return out.dec, out.err
		}
		if l.testPostPlanHook != nil {
			l.testPostPlanHook()
		}
		out := l.submitToGroup(locs, w, attempt)
		if !out.retry {
			return out.dec, out.err
		}
		l.hot.planRetries.Add(1)
	}

	// Bounded optimism exhausted: decide under the shard locks, which
	// cannot conflict. Persistent exhaustion is the replan-livelock smell
	// the flight recorder wants evidence of.
	l.hot.planFallbacks.Add(1)
	l.flight.Trigger(flightrec.TriggerReplan, w.job.Dist.Name)
	l.runLocked(locs, w)
	out := <-w.done
	return out.dec, out.err
}

// submitToGroup enqueues a planned work into its footprint's combining
// group and blocks until a validate batch decides it. The first work to
// find the group idle leads: it drains the queue, validates the batch,
// then hands leadership to the oldest waiter (or retires). Followers
// just wait — their plan is validated by whichever leader drains them.
func (l *Ledger) submitToGroup(locs []resource.Location, w *admitWork, attempt int) admitOutcome {
	sig := locsKey(locs)
	l.batchMu.Lock()
	g := l.groups[sig]
	if g == nil {
		g = &admitGroup{locs: locs}
		l.groups[sig] = g
	}
	g.members = append(g.members, w)
	if g.leading {
		l.batchMu.Unlock()
		select {
		case out := <-w.done:
			return out
		case <-w.lead: // inherit leadership
		}
		l.batchMu.Lock()
	} else {
		g.leading = true
	}

	// Leader: drain everything queued (including w), validate as one
	// batch, then pass the baton or retire.
	batch := g.members
	g.members = nil
	l.batchMu.Unlock()
	l.validateBatch(g.locs, batch, attempt)
	l.batchMu.Lock()
	if len(g.members) > 0 {
		g.members[0].lead <- struct{}{}
	} else {
		g.leading = false
		delete(l.groups, sig)
	}
	l.batchMu.Unlock()
	return <-w.done
}

// snapshotFree reads the merged free view of the footprint, holding
// the shard locks only for the reads. With vers non-nil (one slot per
// location; locs sorted and distinct) it also records each shard's
// mutation version. The returned set shares the shards' cached profiles
// and must be treated as read-only (admission.Decide and
// schedule.Concurrent never write to the view they search).
// Single-location footprints return the cached set directly — no clone,
// no allocation.
func (l *Ledger) snapshotFree(locs []resource.Location, vers []uint64) (resource.Set, error) {
	if len(locs) == 1 {
		sh := l.shardFor(locs[0])
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return mergedFree([]*shard{sh}, vers)
	}
	shards, unlock := l.lockedShards(locs)
	defer unlock()
	return mergedFree(shards, vers)
}

// mergedFree merges the free views of shards whose locks the caller
// holds, recording their mutation versions into vers when non-nil. A
// lone shard's cached view is returned as is, shared read-only. Shards
// own disjoint located types, so the union of several is one map holding
// the shards' own profiles: its cost does not grow with their segments.
func mergedFree(shards []*shard, vers []uint64) (resource.Set, error) {
	var free resource.Set
	for i, sh := range shards {
		part, err := sh.freeView()
		if err != nil {
			return resource.Set{}, fmt.Errorf("server: shard %s invariant broken: %w", sh.loc, err)
		}
		if vers != nil {
			vers[i] = sh.ver
		}
		if len(shards) == 1 {
			return part, nil
		}
		free.AddSet(part)
	}
	return free, nil
}

// DecideOnFree runs policy for job against a free view at now, under a
// plan span; a rejection marks the span with its reason and provenance.
// The coordinator decides a federated admission the same way, against
// the merged free views of its owners.
func DecideOnFree(ctx context.Context, spans *span.Store, policy admission.Policy, free resource.Set, now interval.Time, job workload.Job, attempt int) admission.Decision {
	_, sp := spans.Start(ctx, span.KindPlan)
	defer sp.End()
	sp.Attr("job", job.Dist.Name)
	sp.Attr("actors", len(job.Dist.Actors))
	if attempt > 0 {
		sp.Attr("attempt", attempt)
	}
	// The transient state presents the free view as Θ with no
	// commitments, so State.FreeResources sees exactly the free
	// capacity; reservations are already subtracted out.
	state := core.State{Theta: free, Now: now}
	dec := admission.Decide(policy, admission.View{Now: now, Theta: free, State: &state}, job.Dist)
	if !dec.Admit {
		sp.SetStatus(span.StatusReject)
		sp.Attr("error", dec.Reason)
		sp.SetProvenance(admission.Explain(dec.Refusal))
	}
	return dec
}

// planOne runs the witness-plan search for one work against a free-view
// snapshot, outside any lock. Returns true when the work holds an
// accepted plan ready for validation; rejections and internal errors
// are settled (claim abandoned, outcome delivered) and return false.
func (l *Ledger) planOne(w *admitWork, locs []resource.Location, free resource.Set, vers []uint64, attempt int) bool {
	dec := DecideOnFree(w.ctx, l.spans, w.policy, free, w.now, w.job, attempt)
	if !dec.Admit {
		l.settle(w, dec, nil)
		return false
	}
	if dec.Plan == nil {
		l.settle(w, admission.Decision{}, ErrPlanless)
		return false
	}
	// The plan's demand, shard by shard; it must stay inside the
	// footprint it was decided against.
	demand := splitAllocs(dec.Plan.Allocs)
	for _, p := range demand {
		if !slices.Contains(locs, p.loc) {
			l.settle(w, admission.Decision{}, fmt.Errorf("server: plan for %s consumes outside its footprint (shard %s)", w.job.Dist.Name, p.loc))
			return false
		}
	}
	w.dec = dec
	w.parts = demand
	w.vers = vers
	return true
}

// validateBatch re-locks the footprint once for a whole batch of
// planned works and applies each plan that is still valid: either no
// shard's version moved since that work's snapshot (the plan fits by
// construction), or its demand still fits the current free view. Works
// whose plans no longer fit receive a retry outcome and replan; works
// whose ctx is done are refused with errLate (whoever leads the batch);
// the rest are reserved and finalized under one epoch bump.
func (l *Ledger) validateBatch(locs []resource.Location, batch []*admitWork, attempt int) {
	l.hot.batches.Add(1)
	spans := l.startReserveSpans(batch, len(locs), attempt)
	shards, unlock, err := l.lockOwned(locs)
	if err != nil {
		l.endReserveSpans(spans, span.StatusError)
		for _, w := range batch {
			l.settle(w, admission.Decision{}, err)
		}
		return
	}
	admitted := batch[:0:0]
	var conflicted, late []*admitWork
	for i, w := range batch {
		if w.ctx.Err() != nil {
			spans[i].SetStatus(span.StatusError)
			late = append(late, w)
			continue
		}
		tight, err := fitsLocked(shards, w)
		if err != nil {
			unlock()
			l.endReserveSpans(spans[i:], span.StatusError)
			l.endReserveSpans(spans[:i], "")
			for _, cw := range conflicted {
				cw.done <- admitOutcome{retry: true}
			}
			l.settleLate(late)
			l.finalizeBatch(locs, admitted)
			l.settle(w, admission.Decision{}, err)
			for _, rest := range batch[i+1:] {
				rest.done <- admitOutcome{retry: true}
			}
			return
		}
		if tight != nil {
			// The attempt is refused for capacity — its plan no longer
			// fits the tight shard's free view — and like every reject
			// span says so.
			spans[i].SetStatus(span.StatusReject)
			spans[i].SetProvenance(admission.Explain(&admission.Overcommit{Shard: tight.loc, Name: w.job.Dist.Name}))
			conflicted = append(conflicted, w)
			continue
		}
		reserve(shards, w.parts)
		admitted = append(admitted, w)
	}
	unlock()
	l.endReserveSpans(spans, "")
	for _, w := range conflicted {
		w.done <- admitOutcome{retry: true}
	}
	l.settleLate(late)
	l.finalizeBatch(locs, admitted)
}

// fitsLocked returns the first shard a planned work no longer fits, or
// nil when it still fits. Fast path: if no shard's version moved since
// the work's snapshot, the plan fits by construction (the planner only
// emits plans fitting the view it was given) — no dominance check
// needed. Otherwise every touched shard's current free view must
// dominate the work's demand part. The caller holds the shard locks;
// shards is in lockedShards order, matching the order snapshotFree
// recorded versions in.
func fitsLocked(shards []*shard, w *admitWork) (*shard, error) {
	unchanged := len(w.vers) == len(shards)
	if unchanged {
		for i, sh := range shards {
			if sh.ver != w.vers[i] {
				unchanged = false
				break
			}
		}
	}
	if unchanged {
		return nil, nil
	}
	return misfit(shards, w.parts)
}

// startReserveSpans opens one KindReserve span per work, covering the
// validate-and-reserve critical section.
func (l *Ledger) startReserveSpans(batch []*admitWork, shards, attempt int) []*span.Span {
	out := make([]*span.Span, len(batch))
	for i, w := range batch {
		_, rs := l.spans.Start(w.ctx, span.KindReserve)
		rs.Attr("job", w.job.Dist.Name)
		rs.Attr("shards", shards)
		if len(batch) > 1 {
			rs.Attr("batch", len(batch))
		}
		if attempt > 0 {
			rs.Attr("attempt", attempt)
		}
		out[i] = rs
	}
	return out
}

// endReserveSpans closes the reserve spans; a non-empty status
// overrides per-span statuses already set (reject = conflict, retried).
func (l *Ledger) endReserveSpans(spans []*span.Span, status string) {
	for _, rs := range spans {
		if status != "" {
			rs.SetStatus(status)
		}
		rs.End()
	}
}

// runLocked plans while holding the shard locks. It decides the work
// unconditionally — the view cannot move under the locks, so there is
// nothing to conflict with — which is why it is the fallback once the
// bounded optimistic attempts are spent.
func (l *Ledger) runLocked(locs []resource.Location, w *admitWork) {
	l.hot.batches.Add(1)
	shards, unlock, err := l.lockOwned(locs)
	if err != nil {
		l.settle(w, admission.Decision{}, err)
		return
	}
	free, err := mergedFree(shards, nil)
	if err != nil {
		unlock()
		l.settle(w, admission.Decision{}, err)
		return
	}
	if !l.planOne(w, locs, free, nil, 0) {
		unlock()
		return
	}
	if w.ctx.Err() != nil {
		unlock()
		l.settleLate([]*admitWork{w})
		return
	}
	spans := l.startReserveSpans([]*admitWork{w}, len(shards), 0)
	reserve(shards, w.parts)
	unlock()
	l.endReserveSpans(spans, "")
	l.finalizeBatch(locs, []*admitWork{w})
}

// finalizeBatch promotes the admitted claims to live commitments under
// one l.mu hold, bumps the epoch once for the whole batch, and delivers
// the verdicts.
func (l *Ledger) finalizeBatch(locs []resource.Location, admitted []*admitWork) {
	if len(admitted) == 0 {
		return
	}
	l.mu.Lock()
	for _, w := range admitted {
		w.claim.parts = w.parts
		w.claim.finish = w.dec.Plan.Finish
		w.claim.deadline = w.job.Dist.Deadline
		w.claim.admitted = w.now
		w.claim.pending = false
	}
	l.mu.Unlock()
	l.bumpEpoch("reserve")
	if l.assure != nil {
		// Every admission path (optimistic batch and locked fallback) ends
		// here, so this is the single point where the deadline promise is
		// made: the witness plan finishes at dec.Plan.Finish ≤ deadline.
		epoch := l.epoch.Load()
		for _, w := range admitted {
			l.assure.Reserve(w.job.Dist.Name, w.now, w.dec.Plan.Finish,
				w.job.Dist.Deadline, epoch, locs)
		}
	}
	for _, w := range admitted {
		w.done <- admitOutcome{dec: w.dec}
	}
}

// settle abandons a work's claim and delivers its terminal outcome
// (rejection or error).
func (l *Ledger) settle(w *admitWork, dec admission.Decision, err error) {
	l.unindex(w.claim)
	w.done <- admitOutcome{dec: dec, err: err}
}

// settleLate refuses works whose plan was found after their ctx was
// done: each claim is abandoned and nothing was reserved.
func (l *Ledger) settleLate(late []*admitWork) {
	for _, w := range late {
		l.settle(w, admission.Decision{}, fmt.Errorf("%w: %s: %w", errLate, w.job.Dist.Name, w.ctx.Err()))
	}
}
