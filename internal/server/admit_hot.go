package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/workload"
)

// The admission hot path: optimistic epoch-validated planning, one
// admission at a time on its requester's goroutine.
//
// Running the Theorem-4 witness-plan search while holding every
// footprint shard's lock would serialize concurrent admits to one
// location on the (expensive) search. Instead each admission:
//
//  1. snapshots — locks the footprint shards just long enough to read
//     each shard's free view and mutation version;
//  2. plans — runs admission.Decide against the snapshot outside any
//     lock, so plan searches for the same shard proceed in parallel;
//  3. reserves — re-locks the shards and applies the plan if the
//     snapshot versions are unchanged (the plan fits by construction:
//     the planner only emits plans that fit the view it searched) or,
//     when a concurrent mutation moved the versions, if the plan's
//     demand still fits the current free view. A miss replans from a
//     fresh snapshot, bounded by defaultAdmitRetries, before a final
//     attempt that plans under the locks (decideLocked, which cannot
//     conflict);
//  4. lands — promotes the claim to the record the reserve op carries
//     and applies the op, which takes its epoch and makes the deadline
//     promise stamped with it.
//
// Soundness is unchanged from the lock-holding path: a reservation is
// only ever applied after a fit check (version-unchanged or explicit
// dominance) made under the shard locks, so Θ dominates reserved at
// every step — Theorem 4's no-overcommitment invariant is enforced at
// reserve time exactly as before; optimism only moves the *search*
// outside the critical section, and a stale plan costs a retry, never
// an overcommit. Nothing combines admissions: the server's decision
// slots bound how many decide at once, and each reserve round holds the
// locks for one plan's fit check and reservation.
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
// always wrapped together with the ctx error (see reserveLive).
var errLate = errors.New("server: plan found after the decision deadline; nothing reserved")

// hotCounters counts admission hot-path events. All fields are atomic;
// the struct lives on the Ledger and is shared with every shard.
type hotCounters struct {
	batches        atomic.Uint64 // reserve rounds: accepted plans taken under the shard locks
	batchedJobs    atomic.Uint64 // jobs decided through the hot path
	planRetries    atomic.Uint64 // plans re-run after a validation conflict
	planFallbacks  atomic.Uint64 // jobs that fell back to planning under locks
	freePatches    atomic.Uint64 // free-view writes: one per shard a reserve, release, acquire or trim reaches
	freeRecomputes atomic.Uint64 // free views computed on import
}

// AdmitHotCounters is the JSON shape of the hot-path counters for
// /v1/stats.
type AdmitHotCounters struct {
	Batches        uint64 `json:"batches" metric:"rota_admit_batches_total" help:"Reserve rounds on the admission hot path: one per accepted plan taken under the shard locks, conflicted or not."`
	BatchedJobs    uint64 `json:"batched_jobs" metric:"rota_admit_batched_jobs_total" help:"Jobs decided on the admission hot path, whatever their verdict."`
	PlanRetries    uint64 `json:"plan_retries" metric:"rota_admit_plan_retries_total" help:"Optimistic plans re-run after a validation conflict."`
	PlanFallbacks  uint64 `json:"plan_fallbacks" metric:"rota_admit_plan_fallbacks_total" help:"Jobs that exhausted optimistic retries and planned under the shard locks."`
	FreePatches    uint64 `json:"free_patches" metric:"rota_free_view_patches_total" help:"Free-view patches applied: one per shard a reserve, release, acquire or clock advance writes."`
	FreeRecomputes uint64 `json:"free_recomputes" metric:"rota_free_view_recomputes_total" help:"Free views computed on import: one per location a hand-off or standby promotion installs."`
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

// admitWork is one admission deciding on the hot path: the request, its
// claim on the name and, once an attempt has planned, that attempt's
// accepted decision and the reserve op it would apply.
type admitWork struct {
	ctx    context.Context
	policy *admission.Rota
	job    workload.Job
	now    interval.Time
	locs   []resource.Location
	claim  *reservation

	dec admission.Decision
	op  op
}

// decideHot runs the bounded optimistic attempts, then the
// plan-under-locks fallback, and returns once w is rejected, refused
// with an error, or reserved.
func (l *Ledger) decideHot(w *admitWork) (admission.Decision, error) {
	for attempt := 0; attempt <= defaultAdmitRetries; attempt++ {
		if err := w.ctx.Err(); err != nil {
			return admission.Decision{}, err
		}
		vers := make([]uint64, len(w.locs))
		free := l.snapshotFree(w.locs, vers)
		if dec, err := l.plan(w, free, attempt); err != nil || !dec.Admit {
			// Rejected against the snapshot: a legitimate linearization
			// point — admission control promises no-overcommit, not
			// admit-whenever-possible.
			return dec, err
		}
		if l.testPostPlanHook != nil {
			l.testPostPlanHook()
		}
		fit, err := l.reserveIfFits(w, vers, attempt)
		if err != nil {
			return admission.Decision{}, err
		}
		if fit {
			return w.dec, nil
		}
		l.hot.planRetries.Add(1)
	}

	// Bounded optimism exhausted: decide under the shard locks, which
	// cannot conflict. Persistent exhaustion is the replan-livelock smell
	// the flight recorder wants evidence of.
	l.hot.planFallbacks.Add(1)
	l.flight.Trigger(flightrec.TriggerReplan, w.job.Dist.Name)
	return l.decideLocked(w)
}

// snapshotFree reads the merged free view of the footprint, holding
// the shard locks only for the reads. With vers non-nil (one slot per
// location; locs sorted and distinct) it also records each shard's
// mutation version. The returned set shares the shards' profiles and
// must be treated as read-only (admission.Decide and schedule.Concurrent
// never write to the view they search). Single-location footprints
// return the shard's free view directly — no clone, no allocation.
func (l *Ledger) snapshotFree(locs []resource.Location, vers []uint64) resource.Set {
	var buf lockBuf
	shards := l.lockedShards(&buf, locs)
	defer shards.unlock()
	return mergedFree(shards, vers)
}

// mergedFree merges the free views of shards whose locks the caller
// holds, recording their mutation versions into vers when non-nil. A
// lone shard's view is returned as is, shared read-only. Shards own
// disjoint located types, so the union of several is their entries
// interleaved in one run (resource.UnionOf), holding the shards' own
// profiles: one allocation, whatever the number of shards or segments.
func mergedFree(shards []*shard, vers []uint64) resource.Set {
	if vers != nil {
		for i, sh := range shards {
			vers[i] = sh.ver
		}
	}
	if len(shards) == 1 {
		return shards[0].free
	}
	var buf [4]resource.Set
	views := buf[:0]
	for _, sh := range shards {
		views = append(views, sh.free)
	}
	return resource.UnionOf(views)
}

// DecideOnFree runs policy for job against a free view at now, under a
// plan span; a rejection marks the span with its reason and provenance.
// The coordinator decides a federated admission the same way, against
// the merged free views of its owners.
func DecideOnFree(ctx context.Context, spans *span.Store, policy *admission.Rota, free resource.Set, now interval.Time, job workload.Job, attempt int) admission.Decision {
	_, sp := spans.Start(ctx, span.KindPlan)
	defer sp.End()
	sp.Str("job", job.Dist.Name)
	sp.Int("actors", int64(len(job.Dist.Actors)))
	if attempt > 0 {
		sp.Int("attempt", int64(attempt))
	}
	// The transient state presents the free view as Θ with no
	// commitments, so State.FreeResources sees exactly the free
	// capacity; reservations are already subtracted out.
	state := core.State{Theta: free, Now: now}
	dec := admission.Decide(policy, admission.View{Now: now, Theta: free, State: &state}, job.Dist)
	if !dec.Admit {
		sp.SetStatus(span.StatusReject)
		sp.Str("error", dec.Reason)
		sp.SetProvenance(admission.Explain(dec.Refusal))
	}
	return dec
}

// plan runs the witness-plan search for w against a free view and
// records an accepted plan as the reserve op that would land it: its
// demand split by shard, its finish, the job's deadline and the
// admission time. A rejection is returned as the decision; a plan
// consuming outside the footprint is an error.
func (l *Ledger) plan(w *admitWork, free resource.Set, attempt int) (admission.Decision, error) {
	dec := DecideOnFree(w.ctx, l.spans, w.policy, free, w.now, w.job, attempt)
	if !dec.Admit {
		return dec, nil
	}
	demand := splitAllocs(dec.Plan.Allocs)
	for _, p := range demand {
		if !slices.Contains(w.locs, p.loc) {
			return admission.Decision{}, fmt.Errorf("server: plan for %s consumes outside its footprint (shard %s)", w.job.Dist.Name, p.loc)
		}
	}
	w.dec = dec
	w.op = op{kind: opReserve, locs: w.locs, rec: reservation{name: w.claim.name, parts: demand,
		finish: dec.Plan.Finish, deadline: w.job.Dist.Deadline, admitted: w.now}}
	return dec, nil
}

// reserveIfFits is an optimistic attempt's reserve round: it locks the
// footprint and reserves w's plan if the plan still fits, reporting
// false — nothing reserved, replan — when it does not. The fit is
// checked first: a plan that no longer fits is never reserved, so a
// conflicted attempt replans whether or not its ctx is done, and the
// next attempt's check ends it.
func (l *Ledger) reserveIfFits(w *admitWork, vers []uint64, attempt int) (bool, error) {
	rs := l.startReserve(w, attempt)
	defer rs.End()
	var buf lockBuf
	shards, err := l.lockOwned(&buf, w.locs)
	if err != nil {
		rs.SetStatus(span.StatusError)
		return false, err
	}
	defer shards.unlock()
	if tight := fitsLocked(shards, vers, w.op.rec.parts); tight != nil {
		// The attempt is refused for capacity — its plan no longer fits
		// the tight shard's free view — and like every reject span says
		// so.
		rs.SetStatus(span.StatusReject)
		rs.SetProvenance(admission.Explain(&admission.Overcommit{Shard: tight.loc, Name: w.job.Dist.Name}))
		return false, nil
	}
	return true, reserveLive(w, shards, rs)
}

// fitsLocked returns the first shard a plan's demand no longer fits, or
// nil when it still fits. Fast path: if no shard's version moved since
// the snapshot that recorded vers, the plan fits by construction (the
// planner only emits plans fitting the view it was given) — no dominance
// check needed. Otherwise every touched shard's current free view must
// dominate its part of the demand. The caller holds the shard locks;
// shards is in lockedShards order, matching the order snapshotFree
// recorded versions in.
func fitsLocked(shards []*shard, vers []uint64, demand parts) *shard {
	unchanged := len(vers) == len(shards)
	if unchanged {
		for i, sh := range shards {
			if sh.ver != vers[i] {
				unchanged = false
				break
			}
		}
	}
	if unchanged {
		return nil
	}
	return misfit(shards, demand)
}

// decideLocked plans w while holding the footprint's shard locks and
// reserves the plan in the same hold. Nothing can conflict with it — the
// view cannot move under the locks — which is why it is the fallback
// once the bounded optimistic attempts are spent.
func (l *Ledger) decideLocked(w *admitWork) (admission.Decision, error) {
	var buf lockBuf
	shards, err := l.lockOwned(&buf, w.locs)
	if err != nil {
		return admission.Decision{}, err
	}
	defer shards.unlock()
	if dec, err := l.plan(w, mergedFree(shards, nil), 0); err != nil || !dec.Admit {
		return dec, err
	}
	rs := l.startReserve(w, 0)
	defer rs.End()
	if err := reserveLive(w, shards, rs); err != nil {
		return admission.Decision{}, err
	}
	return w.dec, nil
}

// startReserve counts a reserve round and opens its span, which covers
// the round's critical section.
func (l *Ledger) startReserve(w *admitWork, attempt int) *span.Span {
	l.hot.batches.Add(1)
	_, rs := l.spans.Start(w.ctx, span.KindReserve)
	rs.Str("job", w.job.Dist.Name)
	rs.Int("shards", int64(len(w.locs)))
	if attempt > 0 {
		rs.Int("attempt", int64(attempt))
	}
	return rs
}

// reserveLive reserves w's fitted plan on shards whose locks the caller
// holds — unless w's ctx window has closed (Expired), in which case the
// plan is refused with errLate, wrapping the ctx error, and nothing is
// reserved: a reservation is made inside its requester's window or not
// at all.
func reserveLive(w *admitWork, shards []*shard, rs *span.Span) error {
	if err := Expired(w.ctx); err != nil {
		rs.SetStatus(span.StatusError)
		return fmt.Errorf("%w: %s: %w", errLate, w.job.Dist.Name, err)
	}
	if err := reserve(shards, w.op.rec.parts); err != nil {
		rs.SetStatus(span.StatusError)
		return err
	}
	return nil
}

// land is the index step of a reserve or a prepare op, and its apply:
// the claim r, whose demand the op's shard step has reserved, becomes
// the live record o carries. Every local admission, optimistic or
// locked, and every prepared hold ends here.
func (l *Ledger) land(o op, r *reservation) {
	l.mu.Lock()
	*r = o.rec
	l.mu.Unlock()
	l.apply(o)
}
