package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// triJob builds a job with one evaluating actor per location — a
// footprint spanning len(locs) shards (sends only touch their source
// shard, so multi-shard coverage needs multiple evaluation sites).
func triJob(tb testing.TB, name string, locs []resource.Location, start, deadline interval.Time) workload.Job {
	tb.Helper()
	cs := make([]compute.Computation, 0, len(locs))
	for i, loc := range locs {
		actor := compute.ActorName(fmt.Sprintf("%s.a%d", name, i))
		c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, loc, 1))
		if err != nil {
			tb.Fatal(err)
		}
		cs = append(cs, c)
	}
	d, err := compute.NewDistributed(name, start, deadline, cs...)
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Job{Dist: d, Arrival: start}
}

// Two admits racing a 2PC hold on the same name must both lose — the
// held-name guard is a map lookup now, and the -race run proves the
// index is maintained consistently. (Satellite: the old guard scanned
// l.holds linearly under the global mutex.)
func TestAdmitRacingHeldNameBothLose(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 1000, "l1")}, nil)
	var demand resource.Set
	demand.Add(resource.NewTerm(u(1), resource.CPUAt("l1"), interval.New(0, 8)))
	if err := l.Prepare("k1", "contested", demand, 8, 100, 50); err != nil {
		t.Fatal(err)
	}

	policy := &admission.Rota{}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Admit(policy, cpuJob(t, "contested", "l1", 0, 100))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrDuplicate) {
			t.Errorf("racing admit %d of a held name: err = %v, want ErrDuplicate", i, err)
		}
	}
	mustAudit(t, l)

	// After the hold is aborted the name is free again.
	if err := l.Abort("k1"); err != nil {
		t.Fatal(err)
	}
	if dec, err := l.Admit(policy, cpuJob(t, "contested", "l1", 0, 100)); err != nil || !dec.Admit {
		t.Fatalf("admit after abort: %v %+v", err, dec)
	}
	mustAudit(t, l)
}

// Two racing admits of the same (new) name: exactly one wins.
func TestAdmitRacingSameNameOneWins(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 1000, "l1")}, nil)
	policy := &admission.Rota{}
	var wg sync.WaitGroup
	var admitted, dup atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec, err := l.Admit(policy, cpuJob(t, "solo", "l1", 0, 100))
			switch {
			case err == nil && dec.Admit:
				admitted.Add(1)
			case errors.Is(err, ErrDuplicate):
				dup.Add(1)
			default:
				t.Errorf("unexpected outcome: %v %+v", err, dec)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 || dup.Load() != 7 {
		t.Fatalf("admitted=%d dup=%d, want 1/7", admitted.Load(), dup.Load())
	}
	mustAudit(t, l)
}

// 64-way concurrent admits to one shard with capacity for exactly 8:
// admission must admit exactly 8 and keep the no-overcommit invariant
// (Audit clean). Run under -race in CI.
func TestAdmitNoOvercommit(t *testing.T) {
	// 64 cpu units on one shard; each job needs 8 → capacity for 8.
	l := NewLedger(Config{Theta: cpuTheta(1, 64, "l1")}, nil)
	policy := &admission.Rota{}
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dec, err := l.Admit(policy, cpuJob(t, fmt.Sprintf("j%d", i), "l1", 0, 64))
			if err != nil {
				t.Errorf("j%d: %v", i, err)
				return
			}
			if dec.Admit {
				admitted.Add(1)
			} else {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if admitted.Load() != 8 || rejected.Load() != 56 {
		t.Fatalf("admitted=%d rejected=%d, want 8/56", admitted.Load(), rejected.Load())
	}
	mustAudit(t, l)
	hot := l.AdmitHot()
	if hot.BatchedJobs != 64 {
		t.Errorf("batched jobs = %d, want 64", hot.BatchedJobs)
	}
	// Every reserve round either reserved (an admission) or conflicted (a
	// retry); nothing here is late or faulted. A fallback adds a round
	// only when its plan under the locks admits, and each one follows
	// defaultAdmitRetries+1 conflicted rounds.
	if hot.Batches != uint64(admitted.Load())+hot.PlanRetries {
		t.Errorf("batches = %d, want admitted (%d) + plan retries (%d)", hot.Batches, admitted.Load(), hot.PlanRetries)
	}
	if hot.PlanRetries < (defaultAdmitRetries+1)*hot.PlanFallbacks {
		t.Errorf("plan retries = %d, want at least %d per fallback (%d fallbacks)", hot.PlanRetries, defaultAdmitRetries+1, hot.PlanFallbacks)
	}
}

// A snapshot conflict — capacity mutated between plan and validate so
// the plan no longer fits — must retry and replan, not overcommit and
// not spuriously reject. The hook reserves the window the first plan
// was placed in; the replan lands the job later in its deadline window.
func TestOptimisticConflictRetriesAndReplans(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(1, 100, "l1")}, nil)
	policy := &admission.Rota{}

	var synthetic resource.Set
	synthetic.Add(resource.NewTerm(u(1), resource.CPUAt("l1"), interval.New(0, 16)))
	var fired atomic.Bool
	l.testPostPlanHook = func() {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		reserveOn(t, l, "l1", synthetic)
	}

	dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 40))
	if err != nil || !dec.Admit {
		t.Fatalf("admit after conflict: %v %+v", err, dec)
	}
	if !fired.Load() {
		t.Fatal("test hook never fired")
	}
	hot := l.AdmitHot()
	if hot.PlanRetries == 0 {
		t.Errorf("plan retries = 0, want >= 1 (the snapshot was invalidated)")
	}
	if dec.Plan.Finish <= 16 {
		t.Errorf("replanned finish = %d, want > 16 (the first window was taken)", dec.Plan.Finish)
	}

	// Return the synthetic reservation so the audit's commitment
	// accounting balances, then verify the ledger is consistent.
	l.testPostPlanHook = nil
	if err := releaseOn(l, "l1", synthetic); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
}

// When every optimistic attempt is invalidated — the hook reserves the
// window each fresh plan landed in, round after round — the admission
// must still be decided: the bounded retries run out, the job falls back
// to planning under the shard locks (which nothing can conflict with),
// the exhaustion reaches the flight recorder, and no step overcommits.
func TestReplanExhaustionFallsBackToLockedPlan(t *testing.T) {
	rec := flightrec.New("n1", 0, 0, nil)
	spans := span.NewStore(64, "n1")
	l := NewLedger(Config{Theta: cpuTheta(1, 100, "l1"), FlightRec: rec, Spans: spans}, nil)
	policy := &admission.Rota{}

	// The job needs 8 cpu at rate 1, so each plan lands at the head of the
	// earliest free 16-tick block; taking that whole block invalidates it.
	var synthetic resource.Set
	rounds := 0
	l.testPostPlanHook = func() {
		block := interval.Time(16 * rounds)
		rounds++
		var taken resource.Set
		taken.Add(resource.NewTerm(u(1), resource.CPUAt("l1"), interval.New(block, block+16)))
		synthetic.AddSet(taken)
		reserveOn(t, l, "l1", taken)
	}

	dec, err := l.Admit(policy, cpuJob(t, "j1", "l1", 0, 100))
	if err != nil || !dec.Admit {
		t.Fatalf("admit through the fallback: %v %+v", err, dec)
	}
	if rounds != defaultAdmitRetries+1 {
		t.Fatalf("hook ran %d times, want one per optimistic attempt (%d)", rounds, defaultAdmitRetries+1)
	}
	hot := l.AdmitHot()
	if hot.PlanFallbacks != 1 {
		t.Errorf("plan fallbacks = %d, want 1", hot.PlanFallbacks)
	}
	if hot.PlanRetries != defaultAdmitRetries+1 {
		t.Errorf("plan retries = %d, want %d", hot.PlanRetries, defaultAdmitRetries+1)
	}
	if taken := interval.Time(16 * rounds); dec.Plan.Finish <= taken {
		t.Errorf("fallback plan finishes at %d, inside the taken windows (0,%d)", dec.Plan.Finish, taken)
	}
	// Each invalidated attempt left a reserve span marked reject; the
	// selftests require every reject span to say why, naming the shard
	// the plan no longer fit.
	conflicts := 0
	for _, sr := range spans.Snapshot() {
		if sr.Status != span.StatusReject {
			continue
		}
		conflicts++
		if sr.Kind != span.KindReserve || sr.Provenance == nil || sr.Provenance.Term != "l1" {
			t.Errorf("reject span %+v: want a reserve span carrying provenance for shard l1", sr)
		}
	}
	if conflicts != defaultAdmitRetries+1 {
		t.Errorf("%d reject spans, want one per invalidated attempt (%d)", conflicts, defaultAdmitRetries+1)
	}
	// Every span the conflicted and fallback rounds recorded keeps to its
	// kind's documented schema.
	for _, sr := range spans.Snapshot() {
		ks, ok := span.LookupKind(sr.Kind)
		if !ok {
			t.Errorf("span uses unregistered kind %q", sr.Kind)
			continue
		}
		for key := range sr.Attrs {
			if _, ok := ks.Attrs[key]; !ok {
				t.Errorf("span kind %q carries undocumented attribute %q", sr.Kind, key)
			}
		}
	}
	snaps := rec.Snapshots()
	if len(snaps) != 1 || snaps[0].Trigger != flightrec.TriggerReplan || snaps[0].Detail != "j1" {
		t.Errorf("flight recorder snapshots = %+v, want one %s for j1", snaps, flightrec.TriggerReplan)
	}

	// The plan was reserved beside every synthetic block without
	// overcommitting the shard: θ dominates the records and the blocks
	// together, and the free view is what they leave of it.
	l.testPostPlanHook = nil
	if want, got, err := recordedFree(l, "l1", synthetic); err != nil || !got.Equal(want) {
		t.Errorf("after the fallback reserve: free %s, θ minus records and blocks %s (%v)", got, want, err)
	}
	if err := releaseOn(l, "l1", synthetic); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
}

// reserveOn takes a synthetic block on loc's shard, outside any record:
// the write a test hook makes between a plan and its reserve round.
func reserveOn(tb testing.TB, l *Ledger, loc resource.Location, block resource.Set) {
	tb.Helper()
	var buf lockBuf
	shards := l.lockedShards(&buf, []resource.Location{loc})
	err := reserve(shards, parts{{loc: loc, set: block}})
	shards.unlock()
	if err != nil {
		tb.Error(err)
	}
}

// releaseOn gives a synthetic block back to loc's shard.
func releaseOn(l *Ledger, loc resource.Location, block resource.Set) error {
	var buf lockBuf
	shards := l.lockedShards(&buf, []resource.Location{loc})
	defer shards.unlock()
	return patchFree(shards, parts{{loc: loc, set: block}}, (*shard).giving)
}

// recordedFree returns the from-scratch free view of loc's shard — θ
// minus the remaining demand of every record on it and of extra, blocks
// reserved outside any record — and the free view the shard holds. The
// error is the subtraction's: θ does not dominate what is held.
func recordedFree(l *Ledger, loc resource.Location, extra resource.Set) (want, got resource.Set, err error) {
	held := extra
	l.mu.Lock()
	for _, r := range l.byName {
		if p, ok := r.parts.on(loc); ok && !r.pending {
			held = held.Union(p)
		}
	}
	sh := l.shards[loc]
	l.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	want, err = sh.theta.Subtract(held.TrimmedBefore(sh.now))
	return want, sh.free, err
}

// checkPatchedFreeViews verifies, on every shard, that the patched free
// view equals a from-scratch θ ∖ Σ records subtraction. Returns how many
// shards were checked.
func checkPatchedFreeViews(t *testing.T, l *Ledger) int {
	t.Helper()
	l.mu.Lock()
	locs := make([]resource.Location, 0, len(l.shards))
	for loc := range l.shards {
		locs = append(locs, loc)
	}
	l.mu.Unlock()
	for _, loc := range locs {
		want, got, err := recordedFree(l, loc, resource.Set{})
		if err != nil {
			t.Fatalf("shard %s: θ does not dominate the records: %v", loc, err)
		}
		if !got.Equal(want) {
			t.Fatalf("shard %s: patched free view %s != θ minus records %s", loc, got, want.Compact())
		}
	}
	return len(locs)
}

// A release of a part a shard does not hold — a record released twice,
// or a part no reservation placed — is refused as an inconsistency and
// writes nothing: every shard keeps its free view, the very run it held,
// and its version, and Audit stays clean. A release spanning a shard
// that holds its part and one that does not writes neither.
func TestReleaseBeyondReservationRefused(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 100, "l1", "l2")}, nil)
	policy := &admission.Rota{}
	for _, name := range []string{"j1", "j2"} {
		if dec, err := l.Admit(policy, cpuJob(t, name, "l1", 0, 100)); err != nil || !dec.Admit {
			t.Fatalf("admit %s: %v %+v", name, err, dec)
		}
	}
	l.mu.Lock()
	j1, j2 := *l.byName["j1"], *l.byName["j2"]
	l.mu.Unlock()
	if err := l.Release("j1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Release("j1"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("second Release of j1: %v, want ErrUnknown", err)
	}
	mustAudit(t, l)

	block := func(lt resource.LocatedType, start, end interval.Time) resource.Set {
		return resource.NewSet(resource.NewTerm(u(1), lt, interval.New(start, end)))
	}
	j2l1, _ := j2.parts.on("l1")
	for _, c := range []struct {
		name  string
		parts parts
	}{
		{"double release", j1.parts},
		{"beyond theta's rate", parts{{loc: "l1", set: block(resource.CPUAt("l1"), 10, 20)}}},
		{"a type theta lacks", parts{{loc: "l1", set: block(resource.At(resource.Memory, "l1"), 10, 20)}}},
		{"past theta's horizon", parts{{loc: "l1", set: block(resource.CPUAt("l1"), 100, 110)}}},
		{"one shard held, one not", parts{{loc: "l1", set: j2l1}, {loc: "l2", set: block(resource.CPUAt("l2"), 0, 10)}}},
	} {
		type state struct {
			free resource.Set
			text string
			ver  uint64
		}
		read := func() map[resource.Location]state {
			out := map[resource.Location]state{}
			var buf lockBuf
			shards := l.lockedShards(&buf, []resource.Location{"l1", "l2"})
			for _, sh := range shards {
				out[sh.loc] = state{sh.free, sh.free.Compact(), sh.ver}
			}
			shards.unlock()
			return out
		}
		before := read()
		_, err := l.releaseParts(&reservation{name: c.name, parts: c.parts})
		if err == nil || !errors.Is(err, resource.ErrInsufficient) || !strings.Contains(err.Error(), "reservation inconsistent") {
			t.Errorf("%s: release = %v, want a reservation-inconsistent error", c.name, err)
		}
		for loc, after := range read() {
			if b := before[loc]; !after.free.Same(b.free) || after.text != b.text || after.ver != b.ver {
				t.Errorf("%s: shard %s written: free %s (ver %d) → %s (ver %d)", c.name, loc, b.text, b.ver, after.text, after.ver)
			}
		}
		mustAudit(t, l)
	}
	if err := l.Release("j2"); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, l)
}

// Seeded property test: after randomized admit / release / prepare /
// abort / acquire / advance (incl. lease-expiry sweeps), the patched
// free views must agree with a from-scratch subtraction of the records
// from θ, and the full ledger audit must stay clean at every step.
func TestFreeViewPatchingMatchesRecompute(t *testing.T) {
	locs := []resource.Location{"l1", "l2"}
	for _, seed := range []int64{1, 7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := NewLedger(Config{Theta: cpuTheta(3, 4096, locs...)}, nil)
			policy := &admission.Rota{}
			live := []string{}
			keys := []string{}
			names, preps := 0, 0
			checked := 0

			for step := 0; step < 300; step++ {
				now := l.Now()
				switch rng.Intn(7) {
				case 0, 1: // admit (the most common mutation)
					names++
					name := fmt.Sprintf("job%d", names)
					var job workload.Job
					if rng.Intn(3) == 0 {
						job = triJob(t, name, locs, now, now+16+interval.Time(rng.Intn(32)))
					} else {
						job = cpuJob(t, name, locs[rng.Intn(len(locs))], now, now+16+interval.Time(rng.Intn(32)))
					}
					if dec, err := l.Admit(policy, job); err == nil && dec.Admit {
						live = append(live, name)
					}
				case 2: // release a live commitment
					if len(live) > 0 {
						i := rng.Intn(len(live))
						if err := l.Release(live[i]); err != nil && !errors.Is(err, ErrUnknown) {
							t.Fatalf("release %s: %v", live[i], err)
						}
						live = append(live[:i], live[i+1:]...)
					}
				case 3: // prepare a leased hold
					preps++
					var demand resource.Set
					loc := locs[rng.Intn(len(locs))]
					demand.Add(resource.NewTerm(u(1), resource.CPUAt(loc),
						interval.New(now+1, now+5+interval.Time(rng.Intn(8)))))
					key := fmt.Sprintf("key%d", preps)
					err := l.Prepare(key, fmt.Sprintf("held%d", preps), demand,
						now+16, now+32, now+2+interval.Time(rng.Intn(8)))
					if err == nil {
						keys = append(keys, key)
					} else if !errors.Is(err, ErrOvercommit) {
						t.Fatalf("prepare %s: %v", key, err)
					}
				case 4: // abort a hold (possibly already swept: a no-op)
					if len(keys) > 0 {
						i := rng.Intn(len(keys))
						if err := l.Abort(keys[i]); err != nil {
							t.Fatalf("abort %s: %v", keys[i], err)
						}
						keys = append(keys[:i], keys[i+1:]...)
					}
				case 5: // acquire fresh availability
					var extra resource.Set
					extra.Add(resource.NewTerm(u(1), resource.CPUAt(locs[rng.Intn(len(locs))]),
						interval.New(now, now+32)))
					l.Acquire(extra)
				case 6: // advance the clock (trims + sweeps expired leases)
					done, err := l.Advance(now + interval.Time(rng.Intn(4)))
					if err != nil {
						t.Fatalf("advance: %v", err)
					}
					for _, name := range done {
						for i, n := range live {
							if n == name {
								live = append(live[:i], live[i+1:]...)
								break
							}
						}
					}
				}
				checked += checkPatchedFreeViews(t, l)
				mustAudit(t, l)
			}
			if checked == 0 {
				t.Fatal("no free view was ever checked; the test exercised nothing")
			}
		})
	}
}

// The single-location free-view fetch must not allocate once the cache
// is warm — the common-case admission footprint reads the cached set
// directly instead of cloning it through Union. (Satellite bugfix +
// acceptance criterion.)
func TestFreeViewSingleLocationZeroAlloc(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(4, 1000, "l1", "l2")}, nil)
	policy := &admission.Rota{}
	if dec, err := l.Admit(policy, cpuJob(t, "warm", "l1", 0, 100)); err != nil || !dec.Admit {
		t.Fatalf("warm-up admit: %v %+v", err, dec)
	}
	locs := []resource.Location{"l1"}
	if _, _, err := l.FreeView(locs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := l.FreeView(locs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("single-location FreeView allocates %.1f per call, want 0", allocs)
	}
}

// allocBytes returns the bytes one call of fn allocates, averaged over
// runs calls on this goroutine with nothing else running.
func allocBytes(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A multi-location snapshot is the shards' own profiles in one new map:
// shards own disjoint located types, so nothing is merged, copied or
// sorted, and what a snapshot allocates does not depend on how fragmented
// the views are. (It used to push every shard's whole view through a
// clone and an event sort: 27 µs per snapshot on a loaded ledger against
// 0.2 µs for one location.)
func TestFreeViewMultiLocationAllocatesOnlyTheMap(t *testing.T) {
	measure := func(commits int) (allocs, bytes float64, segments int) {
		l, locs := benchAdmitLedger(t, 3, commits, nil)
		free, _, err := l.FreeView(locs)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := func() {
			if _, _, err := l.FreeView(locs); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, snapshot), allocBytes(200, snapshot), free.NumTerms()
	}
	fewAllocs, fewBytes, fewSegs := measure(30)
	manyAllocs, manyBytes, manySegs := measure(900)
	if manySegs < 10*fewSegs {
		t.Fatalf("fixture: %d segments against %d; the loaded ledger should be ≥ 10× as fragmented", manySegs, fewSegs)
	}
	if manyAllocs != fewAllocs || manyBytes > fewBytes+64 {
		t.Errorf("3-shard snapshot of %d segments: %.0f allocations, %.0f bytes; of %d segments: %.0f allocations, %.0f bytes — it must not grow with the segments",
			manySegs, manyAllocs, manyBytes, fewSegs, fewAllocs, fewBytes)
	}
	if manyBytes > 2048 {
		t.Errorf("3-shard snapshot allocates %.0f bytes, want the lock bookkeeping and one small map (≤ 2048)", manyBytes)
	}
}

// ringView returns a loaded 3-shard ledger whose shards also carry
// fragmented links l1→l2, l2→l3 and l3→l1, so that the shards' views
// interleave in a set's type order, and its locations.
func ringView(t *testing.T) (*Ledger, []resource.Location) {
	t.Helper()
	l, locs := benchAdmitLedger(t, 3, 300, nil)
	var links resource.Set
	for i, src := range locs {
		for k := 0; k < 64; k++ {
			at := interval.Time(3 * k)
			links.Add(resource.NewTerm(u(int64(1+k%2)), resource.Link(src, locs[(i+1)%3]), interval.New(at, at+2)))
		}
	}
	if err := l.Acquire(links); err != nil {
		t.Fatal(err)
	}
	return l, locs
}

// A multi-shard snapshot is one allocation: shards own disjoint located
// types, so the union of their views is their entries interleaved in
// one run, every profile shared.
func TestMergedFreeOneAllocation(t *testing.T) {
	l, locs := ringView(t)
	var buf lockBuf
	shards := l.lockedShards(&buf, locs)
	defer shards.unlock()
	var want resource.Set
	for _, sh := range shards {
		want = want.Union(sh.free)
	}
	vers := make([]uint64, len(shards))
	if got := mergedFree(shards, vers); !got.Equal(want) {
		t.Fatalf("mergedFree = %v, want the union of the views %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = mergedFree(shards, vers) }); allocs != 1 {
		t.Errorf("3-shard mergedFree: %.0f allocations, want 1", allocs)
	}
}

// A plan's demand splits by shard in one sort of its terms: the parts
// run, then per shard its set's run of entries and per located type its
// run of segments — at most one allocation per shard plus one per type,
// besides the parts themselves — and each shard's part is the set its
// terms make.
func TestSplitAllocsAllocationBudget(t *testing.T) {
	l, locs := ringView(t)
	free, _, err := l.FreeView(locs)
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]compute.Computation, len(locs))
	for i, loc := range locs {
		actor := compute.ActorName(fmt.Sprintf("ring.a%d", i))
		if cs[i], err = cost.Realize(cost.Paper(), actor,
			compute.Evaluate(actor, loc, 1),
			compute.Send(actor, loc, "peer", locs[(i+1)%3], 1),
			compute.Evaluate(actor, loc, 1),
		); err != nil {
			t.Fatal(err)
		}
	}
	d, err := compute.NewDistributed("ring", 0, 4096, cs...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := schedule.Concurrent(free, core.ConcurrentAt(d, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[resource.Location]*resource.Set{}
	for _, a := range plan.Allocs {
		if byShard[a.Term.Type.Loc] == nil {
			byShard[a.Term.Type.Loc] = &resource.Set{}
		}
		byShard[a.Term.Type.Loc].Add(a.Term)
	}
	got := splitAllocs(plan.Allocs)
	if len(got) != 3 || len(plan.Allocs) <= 6 {
		t.Fatalf("fixture: %d allocations on %d shards; want 3 shards, more allocations than types", len(plan.Allocs), len(got))
	}
	types := 0
	for i, p := range got {
		if i > 0 && p.loc <= got[i-1].loc {
			t.Fatalf("parts out of location order: %s after %s", p.loc, got[i-1].loc)
		}
		if want := byShard[p.loc]; want == nil || !p.set.Equal(*want) {
			t.Fatalf("part on %s = %v, want %v", p.loc, p.set, want)
		}
		p.set.EachType(func(resource.LocatedType, interval.Interval) { types++ })
	}
	budget := float64(1 + len(got) + types)
	if allocs := testing.AllocsPerRun(100, func() { _ = splitAllocs(plan.Allocs) }); allocs > budget {
		t.Errorf("splitAllocs of %d allocations on %d shards and %d types: %.0f allocations, budget %.0f", len(plan.Allocs), len(got), types, allocs, budget)
	}
}

// An admit+release pair costs a fixed part plus a few patches of the
// profiles it touches: the planner's one splice into its overlay, and one
// patch of the shard's free view on the way in and one on the way out —
// three. A profile longer than the resource
// package's chunk size K (32 segments) is chunked, and a patch rebuilds
// only the chunks it touches: it copies a new chunk list, one entry per
// chunk, and at most two chunks' worth of segments, and shares the rest.
// So what depth adds is the chunk lists alone: 1000 residents may add
// depthBytes over 10, however small the fixed part gets. (With every
// profile flat, copied whole at 24 bytes a segment, depth adds 72 KB;
// before the splice kernels, the event sweep cost the equivalent of 36
// whole-profile copies at 1000 residents.)
func TestAdmitReleaseBytesFollowTouchedProfiles(t *testing.T) {
	const (
		k           = 32 // resource's chunk size
		segBytes    = 24 // one segment
		chunkBytes  = 16 // one chunk list entry
		tableBytes  = 32 // a chunk list's header and count
		fixedBytes  = 12288
		patches     = 3
		sizeClasses = 1.125 // the allocator's rounding up, at most one eighth
		// Three patches' chunk lists over the 1000-resident free view of
		// 1024 segments, in chunks between half and wholly full: 1 920
		// bytes measured on x86-64 with Go 1.24.
		depthBytes = 2464
	)
	policy := &admission.Rota{}
	measure := func(commits int) (bytes float64, segments int) {
		l, locs := benchAdmitLedger(t, 1, commits, nil)
		job := cpuJob(t, "probe", locs[0], 0, 1<<20)
		pair := func() {
			if dec, err := l.Admit(policy, job); err != nil || !dec.Admit {
				t.Fatalf("admit: %v %+v", err, dec)
			}
			if err := l.Release(job.Dist.Name); err != nil {
				t.Fatal(err)
			}
		}
		pair()
		free, _, err := l.FreeView(locs)
		if err != nil {
			t.Fatal(err)
		}
		bytes = allocBytes(200, pair)
		mustAudit(t, l)
		return bytes, free.NumTerms()
	}
	at10, segs10 := measure(10)
	at100, segs100 := measure(100)
	at1000, segs1000 := measure(1000)
	for _, c := range []struct {
		bytes float64
		segs  int
	}{{at10, segs10}, {at100, segs100}, {at1000, segs1000}} {
		// A patch of a chunked profile: a new table with at most
		// 2·segs/K + 2 entries, since splices keep chunks at least half
		// full, and a rebuilt run of at most 2·K segments plus seams.
		patch := tableBytes + chunkBytes*float64(2*c.segs/k+2) + segBytes*float64(2*k+4)
		if budget := fixedBytes + patches*sizeClasses*patch; c.bytes > budget {
			t.Errorf("admit+release over a %d-segment free view: %.0f bytes, budget %.0f", c.segs, c.bytes, budget)
		}
	}
	if segs1000 < 4*k {
		t.Fatalf("fixture: %d segments at 1000 residents; the free view should span several chunks", segs1000)
	}
	if d := at1000 - at10; d > depthBytes {
		t.Errorf("admit+release: %.0f bytes at 1000 residents, %.0f at 10: depth adds %.0f, want ≤ %d",
			at1000, at10, d, depthBytes)
	}
	t.Logf("admit+release: %.0f B at 10 residents (%d segments), %.0f B at 100 (%d), %.0f B at 1000 (%d); depth adds %.0f B",
		at10, segs10, at100, segs100, at1000, segs1000, at1000-at10)
}

// Rejections decided against a snapshot are delivered immediately; the
// decision must carry the infeasibility reason exactly as before.
func TestRejectKeepsReason(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(1, 8, "l1")}, nil) // 8 units: one job fills it
	policy := &admission.Rota{}
	if dec, err := l.Admit(policy, cpuJob(t, "fits", "l1", 0, 8)); err != nil || !dec.Admit {
		t.Fatalf("first admit: %v %+v", err, dec)
	}
	dec, err := l.Admit(policy, cpuJob(t, "squeezed", "l1", 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admit || dec.Reason == "" {
		t.Fatalf("second admit = %+v, want a reasoned rejection", dec)
	}
	// The rejected name is free for a retry (the claim was abandoned).
	if _, err := l.Admit(policy, cpuJob(t, "squeezed", "l1", 0, 8)); err != nil {
		t.Fatalf("retry of a rejected name: %v", err)
	}
	mustAudit(t, l)
}

// An admission whose ctx is done once its plan is found is refused at
// reserve with an error wrapping the ctx error, and leaves no
// reservation, no epoch bump and no claim on the name — whether the plan
// came from an optimistic attempt or from the fallback that plans under
// the locks. The hook cancels the ctx between plan and reserve; in the
// locked case it also takes every optimistic plan's window, so each
// attempt conflicts and the job falls back with its ctx already done.
func TestExpiredPlanReservesNothing(t *testing.T) {
	for _, path := range []string{"optimistic", "locked"} {
		t.Run(path, func(t *testing.T) {
			l := NewLedger(Config{Theta: cpuTheta(1, 100, "l1")}, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var synthetic resource.Set
			rounds := 0
			l.testPostPlanHook = func() {
				rounds++
				if path == "optimistic" {
					cancel()
					return
				}
				block := interval.Time(16 * (rounds - 1))
				var taken resource.Set
				taken.Add(resource.NewTerm(u(1), resource.CPUAt("l1"), interval.New(block, block+16)))
				synthetic.AddSet(taken)
				reserveOn(t, l, "l1", taken)
				if rounds == defaultAdmitRetries+1 {
					cancel()
				}
			}
			epoch := l.Epoch()
			_, err := l.AdmitCtx(ctx, &admission.Rota{}, cpuJob(t, "expired", "l1", 0, 100))
			l.testPostPlanHook = nil
			if !errors.Is(err, errLate) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a late refusal wrapping context.Canceled", err)
			}
			wantFallbacks := uint64(0)
			if path == "locked" {
				wantFallbacks = 1
			}
			if got := l.AdmitHot().PlanFallbacks; got != wantFallbacks {
				t.Fatalf("plan fallbacks = %d, want %d", got, wantFallbacks)
			}
			if n, e := l.NumCommitments(), l.Epoch(); n != 0 || e != epoch {
				t.Fatalf("commitments=%d epoch %d → %d, want nothing applied", n, epoch, e)
			}
			// Nothing beyond the hook's own blocks was reserved.
			if err := releaseOn(l, "l1", synthetic); err != nil {
				t.Fatal(err)
			}
			if want, got, err := recordedFree(l, "l1", resource.Set{}); err != nil || !got.Equal(want) {
				t.Fatalf("the refused plan left a reservation on l1: free %s, θ minus records %s (%v)", got, want, err)
			}
			mustAudit(t, l)
			// The claim is gone: the name admits afresh.
			if dec, err := l.Admit(&admission.Rota{}, cpuJob(t, "expired", "l1", 0, 100)); err != nil || !dec.Admit {
				t.Fatalf("re-admit of the expired name: %v %+v", err, dec)
			}
		})
	}
}

// An admission whose ctx is done before its first snapshot ends with the
// bare ctx error — no plan was found, so it is not a late refusal — and
// leaves neither a reservation nor a claim on the name.
func TestAdmitCtxDoneBeforeSnapshot(t *testing.T) {
	l := NewLedger(Config{Theta: cpuTheta(1, 64, "l1")}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	epoch := l.Epoch()
	_, err := l.AdmitCtx(ctx, &admission.Rota{}, cpuJob(t, "gone", "l1", 0, 64))
	if !errors.Is(err, context.Canceled) || errors.Is(err, errLate) {
		t.Fatalf("err = %v, want context.Canceled and no late refusal", err)
	}
	if n, e := l.NumCommitments(), l.Epoch(); n != 0 || e != epoch {
		t.Fatalf("commitments=%d epoch %d → %d, want nothing applied", n, epoch, e)
	}
	if dec, err := l.Admit(&admission.Rota{}, cpuJob(t, "gone", "l1", 0, 64)); err != nil || !dec.Admit {
		t.Fatalf("re-admit: %v %+v", err, dec)
	}
	mustAudit(t, l)
}
