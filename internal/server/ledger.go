// Package server implements rotad, the ROTA admission-control daemon: a
// live resource ledger sharded by location, a bounded set of decision
// slots under which each request runs its Theorem-4 admission decision
// against it on its own goroutine, and an HTTP JSON API
// (admit / release / acquire / advance / query / stats).
//
// The ledger realizes the paper's committed path online: every admitted
// computation's witness plan is reserved against the shard(s) whose
// located types it consumes, so FreeResources-style reasoning — Θ minus
// the demand already spoken for — is a per-shard subtraction instead of a
// global scan. Admissions whose resource footprints touch disjoint
// location sets proceed concurrently; overlapping footprints serialize on
// the shards they share, locked in a canonical order so concurrent
// admissions cannot deadlock.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// shardOf maps a located type to the shard that owns it. Node-local
// resources live on their node's shard; directed links are owned by their
// source, matching how the cost model charges sends and migrations.
func shardOf(lt resource.LocatedType) resource.Location {
	return lt.Loc
}

// parts is a resource set split by shard: one entry per location, sorted
// by location. It is a slice, not a map, because every resident
// reservation keeps one for as long as it lives and spans one to three
// shards: a thousand residents' maps were 0.2 MB of live heap that a
// linear scan over three entries does not need.
type parts []part

type part struct {
	loc resource.Location
	set resource.Set
}

// at returns the set on loc for the caller to add to, entering an empty
// one at its sorted position if loc had none.
func (p *parts) at(loc resource.Location) *resource.Set {
	i, found := slices.BinarySearchFunc(*p, loc, func(e part, loc resource.Location) int {
		return strings.Compare(string(e.loc), string(loc))
	})
	if !found {
		*p = slices.Insert(*p, i, part{loc: loc})
	}
	return &(*p)[i].set
}

// on returns the set on loc, and whether there is one.
func (p parts) on(loc resource.Location) (resource.Set, bool) {
	for _, e := range p {
		if e.loc == loc {
			return e.set, true
		}
	}
	return resource.Set{}, false
}

// sets returns the parts' sets, in location order.
func (p parts) sets() []resource.Set {
	out := make([]resource.Set, len(p))
	for i, e := range p {
		out[i] = e.set
	}
	return out
}

// splitByShard partitions a resource set into per-shard subsets. Located
// types are disjoint across shards, so the split is exact: the union of
// the parts is the original set.
func splitByShard(s resource.Set) parts {
	var out parts
	for _, term := range s.Terms() {
		out.at(shardOf(term.Type)).Add(term)
	}
	return out
}

// splitAllocs partitions a witness plan's allocations into per-shard
// demand sets: what the reservation adds to each shard, what its record
// keeps, and what releasing it gives back. The terms are sorted once, by
// shard and then in a Set's order, so each shard's are one stretch that
// resource.SetOf builds as it stands: the parts cost one run, and each
// shard's set its run of entries and a run of segments per type.
func splitAllocs(allocs []schedule.Allocation) parts {
	var buf [32]resource.Term
	terms := buf[:0]
	if len(allocs) > len(buf) {
		terms = make([]resource.Term, 0, len(allocs))
	}
	for _, a := range allocs {
		terms = append(terms, a.Term)
	}
	slices.SortFunc(terms, byShardThenType)
	n := 0
	for i, t := range terms {
		if i == 0 || shardOf(t.Type) != shardOf(terms[i-1].Type) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(parts, 0, n)
	for i := 0; i < len(terms); {
		loc, j := shardOf(terms[i].Type), i+1
		for j < len(terms) && shardOf(terms[j].Type) == loc {
			j++
		}
		out = append(out, part{loc: loc, set: resource.SetOf(terms[i:j])})
		i = j
	}
	return out
}

// byShardThenType orders terms by shard, then as a Set orders them: by
// kind, link destination and start, the location being the shard's.
func byShardThenType(a, b resource.Term) int {
	return cmp.Or(
		strings.Compare(string(shardOf(a.Type)), string(shardOf(b.Type))),
		strings.Compare(string(a.Type.Kind), string(b.Type.Kind)),
		strings.Compare(string(a.Type.Dst), string(b.Type.Dst)),
		cmp.Compare(a.Span.Start, b.Span.Start),
	)
}

// shard is one location's slice of the live ledger: its availability θ
// and its free view, both kept trimmed to ≥ now. Located types are
// disjoint across shards, so the free view is the exact slice on this
// location of Θ_free, the capacity the committed path leaves free: θ
// minus the remaining demand of every reservation touching the shard.
// It is the shard's state, not a cache of it — a reserve subtracts its
// part from free, a release adds it back, and what is reserved is θ ∖
// free, derived when something asks (Snapshot). The shard invariant —
// free is θ minus the records' demand, which is defined only when θ
// dominates that demand — is exactly "the sum of reserved plans never
// exceeds Θ", and holding it is what makes every admitted deadline
// assured on the committed path. Audit checks both halves.
type shard struct {
	mu    sync.Mutex
	loc   resource.Location
	theta resource.Set
	// free is shared read-only: the admit path plans against it outside
	// the lock. Every write therefore builds a new run for it, and it
	// never shares θ's, which acquire and trim write in place.
	free resource.Set
	now  interval.Time
	// ver counts mutations of theta/free/now. The optimistic admit
	// path snapshots (free, ver) under the lock, plans outside it, and
	// revalidates ver before reserving: an unchanged ver proves the free
	// view the plan was decided against is still current.
	ver uint64
	// hot points at the ledger's shared hot-path counters.
	hot *hotCounters
}

// setFree installs the shard's next free view and counts the write. The
// caller must hold sh.mu.
func (sh *shard) setFree(free resource.Set) {
	sh.free = free
	sh.ver++
	sh.hot.freePatches.Add(1)
}

// giving returns the free view with part's remaining demand released:
// free ∪ part, trimmed to the shard clock. It is refused unless θ still
// dominates the result on part's types and hull — under free = θ ∖
// reserved, exactly when part is reserved here, pointwise — so a double
// release, or one of demand this shard never held, is an error. The
// check allocates nothing. The caller must hold sh.mu.
func (sh *shard) giving(part resource.Set) (resource.Set, error) {
	if sh.now > part.Hull().Start {
		part = part.TrimmedBefore(sh.now)
	}
	free := sh.free.PatchUnion(part)
	if !sh.theta.DominatesWithin(free, part) {
		return resource.Set{}, resource.ErrInsufficient
	}
	return free, nil
}

// patchFree moves each shard that demand has a part on to the free view
// next computes from that part, writing none of them unless every one is
// defined. The caller holds the shard locks.
func patchFree(shards []*shard, demand parts, next func(*shard, resource.Set) (resource.Set, error)) error {
	type write struct {
		sh   *shard
		free resource.Set
	}
	var buf [4]write
	writes := buf[:0]
	for _, sh := range shards {
		part, ok := demand.on(sh.loc)
		if !ok {
			continue
		}
		free, err := next(sh, part)
		if err != nil {
			return fmt.Errorf("server: shard %s reservation inconsistent: %w", sh.loc, err)
		}
		writes = append(writes, write{sh, free})
	}
	for _, w := range writes {
		w.sh.setFree(w.free)
	}
	return nil
}

// applyAcquire merges newly joined availability into θ: free′ = free ∪
// part. The free view is built first, as a new run: θ's AddSet may write
// into θ's own. The caller must hold sh.mu.
func (sh *shard) applyAcquire(part resource.Set) {
	sh.setFree(sh.free.PatchUnion(part))
	sh.theta.AddSet(part)
}

// applyTrim advances the shard clock, trimming θ and the free view
// ((θ∖r) clamped = θ clamped ∖ r clamped, pointwise). The caller must
// hold sh.mu.
func (sh *shard) applyTrim(to interval.Time) {
	if to <= sh.now {
		return
	}
	sh.theta.TrimBefore(to)
	sh.now = to
	sh.setFree(sh.free.TrimmedBefore(to))
}

// reservation is one member of the paper's ρ: a computation this ledger
// has accommodated, stored as the demand it holds on each shard. A leased
// two-phase hold and a commitment are the same record at two points of
// its life,
//
//	pending → leased → committed → gone
//
// pending while its name (and key) is claimed but the decision or the
// reservation is still in flight, leased from Prepare until Commit clears
// the lease (Abort or the lease sweep removes it instead), committed from
// then — or from the start for a direct admit — until release, completion
// or hand-off. Fields are guarded by Ledger.mu while the record is
// indexed; whoever unindexes it owns it afterwards.
type reservation struct {
	name string
	key  string // two-phase idempotency key, "" for direct admits
	// parts is the demand as reserved, shard by shard. Each shard trims
	// its own copy as the clock advances; readers clamp to the clock.
	parts    parts
	finish   interval.Time
	deadline interval.Time
	admitted interval.Time
	lease    interval.Time // lease expiry on the ledger clock; 0 = committed
	pending  bool
}

// locs returns the sorted locations the reservation holds demand on.
func (r *reservation) locs() []resource.Location {
	out := make([]resource.Location, len(r.parts))
	for i, p := range r.parts {
		out[i] = p.loc
	}
	return out
}

// demand returns the reservation's whole demand as reserved. Shards own
// disjoint located types, so the union shares the parts' profiles.
func (r *reservation) demand() resource.Set {
	var out resource.Set
	for _, p := range r.parts {
		out.AddSet(p.set)
	}
	return out
}

// Ledger is the daemon's live state: location shards plus an index of
// the reservations — commitments and leased two-phase holds — placed on
// them. All methods are safe for concurrent use.
type Ledger struct {
	mu     sync.Mutex // guards the shards map and the reservation index (not shard contents)
	shards map[resource.Location]*shard
	// byName indexes every reservation, pending claims included, by its
	// computation's name — the duplicate-name guard on every admit and
	// prepare is one lookup. byKey indexes the ones that came through
	// two-phase by their idempotency key, which is what makes a retried
	// prepare, commit or abort a no-op.
	byName map[string]*reservation
	byKey  map[string]*reservation
	// owned restricts this ledger to a subset of locations (cluster
	// mode); nil means the node owns every location it hears about.
	owned map[resource.Location]bool
	now   atomic.Int64

	// The observability wiring below is set once by NewLedger from the
	// daemon's Config and never written again; each sink is nil-safe.
	//
	// obs receives ledger-level events (lease expiry) that have no
	// originating request to log under.
	obs *obs.Observer
	// spans records per-phase admission spans (plan search, reservation);
	// a nil store disables span tracing.
	spans *span.Store
	// assure tracks the deadline promise behind every admitted job from
	// reservation to terminal outcome; nil disables tracking.
	assure *assure.Ledger
	// flight freezes a forensic snapshot when an anomaly trigger fires
	// (promise violation, audit mismatch).
	flight *flightrec.Recorder

	// ops counts applied ops by kind; its prepares, commits and aborts,
	// with the lapsed leases and ownership refusals, are the two-phase
	// traffic counters surfaced in /v1/stats.
	ops           [opInstall + 1]atomic.Uint64
	leasesExpired atomic.Uint64
	notOwned      atomic.Uint64

	// epoch numbers the ops apply has applied: every state change that
	// can flip a query verdict is one op, and the epoch apply takes for
	// it is its sequence number in the stream. notify (set once by
	// NewLedger, may be nil) receives each op with its epoch; it runs on
	// the mutating goroutine and must not block.
	epoch  atomic.Uint64
	notify func(epoch uint64, o op)

	// hot counts hot-path events (reserve rounds, optimistic retries,
	// free-view patches vs recomputes), surfaced in /v1/stats.
	hot hotCounters

	// testPostPlanHook, when non-nil, runs between an optimistic
	// attempt's plan and its reserve round — tests inject a conflicting
	// mutation (or cancel the ctx) here to exercise the retry and
	// refuse-at-reserve paths deterministically. Never set in production.
	testPostPlanHook func()
}

// NewLedger builds the ledger of the daemon cfg describes: availability
// cfg.Theta at time cfg.Now, restricted to cfg.Owned when that is
// non-nil (requests naming any other location are then refused with
// ErrNotOwned), reporting to cfg.Obs, cfg.Spans, cfg.Assure and
// cfg.FlightRec. notify, when non-nil, receives every op apply applies,
// with its epoch, in epoch order for ops that do not race; it runs on
// the mutating goroutine, sometimes under the ledger's locks, and must
// not block. The server adapts it to the standing-query manager's
// BumpAt (the op's reason, shards and job name, and while a subscription
// is live the sets it took from and gave to the free view, op.flow).
func NewLedger(cfg Config, notify func(epoch uint64, o op)) *Ledger {
	l := &Ledger{
		shards: make(map[resource.Location]*shard),
		byName: make(map[string]*reservation),
		byKey:  make(map[string]*reservation),
		obs:    cfg.Obs,
		spans:  cfg.Spans,
		assure: cfg.Assure,
		flight: cfg.FlightRec,
		notify: notify,
	}
	if cfg.Owned != nil {
		l.owned = make(map[resource.Location]bool, len(cfg.Owned))
		for _, loc := range cfg.Owned {
			l.owned[loc] = true
		}
	}
	l.now.Store(cfg.Now)
	for _, p := range splitByShard(cfg.Theta.TrimmedBefore(cfg.Now)) {
		sh := l.shardLocked(p.loc)
		sh.theta, sh.free = p.set, p.set.Clone()
	}
	return l
}

// Epoch returns the ledger's change epoch. Two reads returning the same
// value bracket a window with no verdict-relevant state change.
func (l *Ledger) Epoch() uint64 {
	return l.epoch.Load()
}

// Now returns the ledger clock.
func (l *Ledger) Now() interval.Time {
	return l.now.Load()
}

// NumShards returns the number of location shards.
func (l *Ledger) NumShards() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.shards)
}

// NumCommitments returns the number of live (non-pending) commitments.
func (l *Ledger) NumCommitments() int {
	return l.count(false)
}

// NumHolds returns the number of live (non-pending) leased holds.
func (l *Ledger) NumHolds() int {
	return l.count(true)
}

// count returns the number of live reservations that are leased, or
// that are committed.
func (l *Ledger) count(leased bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.byName {
		if !r.pending && (r.lease != 0) == leased {
			n++
		}
	}
	return n
}

// claimLocked indexes a pending reservation under its name and key, so a
// racing duplicate cannot reserve too. It refuses a name that is already
// admitted, held, or being decided. The caller holds l.mu.
func (l *Ledger) claimLocked(r *reservation) error {
	if prev, taken := l.byName[r.name]; taken {
		if prev.lease != 0 {
			return fmt.Errorf("%w: %s (held by prepare %s)", ErrDuplicate, r.name, prev.key)
		}
		return fmt.Errorf("%w: %s", ErrDuplicate, r.name)
	}
	l.indexLocked(r)
	return nil
}

// indexLocked enters r in both indexes. The caller holds l.mu.
func (l *Ledger) indexLocked(r *reservation) {
	l.byName[r.name] = r
	if r.key != "" {
		l.byKey[r.key] = r
	}
}

// unindexLocked removes r from both indexes; the caller, who holds
// l.mu, owns the record from here on.
func (l *Ledger) unindexLocked(r *reservation) {
	delete(l.byName, r.name)
	if r.key != "" {
		delete(l.byKey, r.key)
	}
}

// unindex is unindexLocked for callers not holding l.mu: it abandons a
// claim that did not end in a reservation.
func (l *Ledger) unindex(r *reservation) {
	l.mu.Lock()
	l.unindexLocked(r)
	l.mu.Unlock()
}

// mergeLocked lands one slice of a job's demand on this ledger: folded
// into the record the job already has here (a spanning job whose other
// slice this node holds, met by a hand-off), or indexed as a new record.
// One rule decides the state of a merged record: it is committed as soon
// as any slice of it is — a lease left on it would let the sweep take a
// committed job's reservation away — and two leased slices keep the
// earlier expiry. A claim still pending under the name is replaced. The
// caller holds l.mu; it returns the record the slice now lives in.
func (l *Ledger) mergeLocked(in *reservation) *reservation {
	r, ok := l.byName[in.name]
	if !ok || r.pending {
		if ok {
			l.unindexLocked(r)
		}
		l.indexLocked(in)
		return in
	}
	for _, p := range in.parts {
		r.parts.at(p.loc).AddSet(p.set)
	}
	r.finish = max(r.finish, in.finish)
	switch {
	case r.lease == 0: // already committed, and stays so
	case in.lease == 0:
		r.lease, r.admitted = 0, in.admitted
	default:
		r.lease = min(r.lease, in.lease)
	}
	if r.key == "" && in.key != "" {
		r.key = in.key
		l.byKey[r.key] = r
	}
	return r
}

// lockSet is a footprint's shards, locked in canonical order by
// lockedShards. The caller releases them with unlock, exactly once.
type lockSet []*shard

// lockBuf is a caller's room for a lockSet: a footprint of up to four
// locations, as nearly every job's is, locks without allocating.
type lockBuf [4]*shard

// unlock releases the shards, in the reverse of the order they were
// locked in.
func (ls lockSet) unlock() {
	for i := len(ls) - 1; i >= 0; i-- {
		ls[i].mu.Unlock()
	}
}

// lockedShards returns the shards for the given locations, creating any
// that do not exist yet, locked in canonical (sorted) order, in buf's
// storage when it has the room. locs is only read: a footprint already
// sorted and distinct, as a job's and a record's are, is used as it is.
func (l *Ledger) lockedShards(buf *lockBuf, locs []resource.Location) lockSet {
	sorted := locs
	for i := 1; i < len(locs); i++ {
		if locs[i-1] >= locs[i] {
			sorted = slices.Clone(locs)
			slices.Sort(sorted)
			sorted = slices.Compact(sorted)
			break
		}
	}
	shards := lockSet(buf[:0])
	l.mu.Lock()
	for _, loc := range sorted {
		shards = append(shards, l.shardLocked(loc))
	}
	l.mu.Unlock()
	for _, sh := range shards {
		sh.mu.Lock()
	}
	return shards
}

// shardLocked returns loc's shard, creating an empty one at the ledger
// clock if absent — the only place shards are made. The caller must hold
// l.mu.
func (l *Ledger) shardLocked(loc resource.Location) *shard {
	sh, ok := l.shards[loc]
	if !ok {
		sh = &shard{loc: loc, now: l.now.Load(), hot: &l.hot}
		l.shards[loc] = sh
	}
	return sh
}

// lockOwned locks the footprint's shards and verifies under those locks
// that this node owns every one. DropLocations shrinks the owned set
// while holding the same locks, so a hand-off that raced the caller's
// earlier check is caught here, and ownership that holds here holds until
// unlock — a reservation placed on a dropped shard would never be
// committed, released or swept.
func (l *Ledger) lockOwned(buf *lockBuf, locs []resource.Location) (lockSet, error) {
	shards := l.lockedShards(buf, locs)
	if err := l.checkOwned(locs); err != nil {
		shards.unlock()
		return nil, err
	}
	return shards, nil
}

// misfit returns the first shard whose free view does not dominate its
// part of the demand (free dominates part ⟺ θ dominates reserved ∪
// part), nil when the whole demand fits. The caller holds the shard
// locks.
func misfit(shards []*shard, demand parts) *shard {
	for _, sh := range shards {
		if part, ok := demand.on(sh.loc); ok && !sh.free.Dominates(part) {
			return sh
		}
	}
	return nil
}

// reserve takes each part out of its shard's free view, free ∖ part,
// one patch per shard: the shard step of a reserve or prepare op. The
// caller holds the shard locks and has verified the fit, so an error —
// nothing written — means the fit check and the view disagree.
func reserve(shards []*shard, demand parts) error {
	return patchFree(shards, demand, func(sh *shard, part resource.Set) (resource.Set, error) {
		return sh.free.PatchSubtract(part)
	})
}

// acquire merges each part into its shard's Θ, discarding what lies
// before the shard clock: the shard step of an acquire op. The caller
// holds the shard locks.
func acquire(shards []*shard, gained parts) {
	for _, sh := range shards {
		part, _ := gained.on(sh.loc)
		sh.applyAcquire(part.TrimmedBefore(sh.now))
	}
}

// Ledger errors surfaced to API callers.
var (
	// ErrDuplicate is returned for an admit of a name already admitted
	// (or currently being decided).
	ErrDuplicate = errors.New("server: computation already admitted")
	// ErrUnknown is returned for a release of a name not in the ledger.
	ErrUnknown = errors.New("server: unknown computation")
	// ErrClockBackward is returned by Advance for a non-monotonic clock.
	ErrClockBackward = errors.New("server: clock may not move backward")
	// ErrNotOwned is returned when a request names a location this node
	// does not own (cluster mode only).
	ErrNotOwned = errors.New("server: location not owned by this node")
	// ErrOvercommit is returned by Prepare, as an *admission.Overcommit
	// naming the shard, when holding the demand would break the shard
	// invariant — a capacity rejection, not a fault.
	ErrOvercommit = admission.ErrOvercommit
	// ErrUnknownHold is returned by Commit for a key never prepared here
	// (or already swept by lease expiry).
	ErrUnknownHold = errors.New("server: unknown or expired prepare key")
	// ErrLeaseExpired is returned by Commit when the hold's lease ran out
	// before the commit arrived; the sweep will reclaim it.
	ErrLeaseExpired = errors.New("server: prepare lease expired")
)

// checkOwned verifies every location is owned by this node, counting
// rejections. A nil owned set (standalone mode) accepts everything. The
// owned set mutates at runtime (ownership handoff, standby promotion),
// so reads go under l.mu.
func (l *Ledger) checkOwned(locs []resource.Location) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkOwnedLocked(locs)
}

// checkOwnedLocked is checkOwned for callers already holding l.mu.
func (l *Ledger) checkOwnedLocked(locs []resource.Location) error {
	if l.owned == nil {
		return nil
	}
	for _, loc := range locs {
		if !l.owned[loc] {
			l.notOwned.Add(1)
			return fmt.Errorf("%w: %s", ErrNotOwned, loc)
		}
	}
	return nil
}

// AddOwned extends the owned set at runtime (ownership handoff in). A
// no-op in standalone mode (nil owned accepts everything already).
func (l *Ledger) AddOwned(locs []resource.Location) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addOwnedLocked(locs)
}

// addOwnedLocked is AddOwned for callers holding l.mu.
func (l *Ledger) addOwnedLocked(locs []resource.Location) {
	if l.owned == nil {
		return
	}
	for _, loc := range locs {
		l.owned[loc] = true
	}
}

// Owned reports whether this node currently owns loc.
func (l *Ledger) Owned(loc resource.Location) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owned == nil || l.owned[loc]
}

// OwnedLocations lists the locations this node currently owns, sorted.
// Nil in standalone mode (ownership is unrestricted there).
func (l *Ledger) OwnedLocations() []resource.Location {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owned == nil {
		return nil
	}
	out := make([]resource.Location, 0, len(l.owned))
	for loc := range l.owned {
		out = append(out, loc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Admit claims the job's name, locks the shards of its resource
// footprint, runs the policy against the merged free availability, and on
// admission reserves the witness plan shard by shard. The returned
// Decision has Elapsed stamped by admission.Decide (the uniform
// measurement point). A non-nil error means the request never reached a
// verdict (a duplicate name, an unowned location); rejections are not
// errors.
func (l *Ledger) Admit(policy *admission.Rota, job workload.Job) (admission.Decision, error) {
	return l.AdmitCtx(context.Background(), policy, job)
}

// AdmitCtx is Admit with span tracing and a deadline: the witness-plan
// search and the reservation run as child spans of whatever span the
// context carries (the server's admit span), so per-phase latency is
// attributable. Once ctx is done the admission ends with an error
// wrapping ctx.Err() and reserves nothing; a plan found by then is
// refused at reserve (errLate).
//
// The decision itself runs on the optimistic hot path (admit_hot.go):
// the plan search happens against an immutable free-view snapshot taken
// outside the shard locks, and the reservation revalidates the snapshot
// version (or the plan's fit) before committing — so plan search never
// serializes a shard.
func (l *Ledger) AdmitCtx(ctx context.Context, policy *admission.Rota, job workload.Job) (admission.Decision, error) {
	now := l.Now()
	if now >= job.Dist.Deadline {
		return admission.PastDeadline(job.Dist.Deadline, now), nil
	}

	// Claim the name before deciding so two racing admits of the same
	// computation cannot both reserve.
	claim := &reservation{name: job.Dist.Name, pending: true}
	l.mu.Lock()
	err := l.claimLocked(claim)
	l.mu.Unlock()
	if err != nil {
		return admission.Decision{}, err
	}

	locs := job.Dist.Locations()
	if err := l.checkOwned(locs); err != nil {
		l.unindex(claim)
		return admission.Decision{}, err
	}
	// An admitted job's claim lands as a live commitment with a promise
	// behind it; on any other outcome it is abandoned, nothing reserved.
	w := &admitWork{ctx: ctx, policy: policy, job: job, now: now, locs: locs, claim: claim}
	l.hot.batchedJobs.Add(1)
	dec, err := l.decideHot(w)
	if err != nil || !dec.Admit {
		l.unindex(claim)
		return dec, err
	}
	l.land(w.op, claim)
	return dec, nil
}

// Release removes a commitment and returns its not-yet-consumed demand to
// the free pool (completion, cancellation, or an executor-side abort).
func (l *Ledger) Release(name string) error {
	return l.release(name, false)
}

// ReleaseTransferred removes a commitment whose ownership moved to
// another node (migration): the local demand is freed like Release, but
// the deadline promise is marked transferred — the receiving node now
// reports its outcome — instead of kept.
func (l *Ledger) ReleaseTransferred(name string) error {
	return l.release(name, true)
}

func (l *Ledger) release(name string, transferred bool) error {
	l.mu.Lock()
	r, ok := l.byName[name]
	if !ok || r.pending || r.lease != 0 {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	l.unindexLocked(r)
	l.mu.Unlock()
	return l.free(op{kind: opRelease, at: l.Now(), unwind: transferred}, r)
}

// free is a release's or an abort's effect and its apply: r, which the
// caller has unindexed and so owns, gives back its demand.
func (l *Ledger) free(o op, r *reservation) error {
	locs, err := l.releaseParts(r)
	if err != nil {
		return fmt.Errorf("server: freeing %s: %w", r.name, err)
	}
	o.rec, o.locs = *r, locs
	l.apply(o)
	return nil
}

// releaseParts returns an unindexed reservation's not-yet-consumed
// portion to the free pool, one patch per shard, and returns the shards
// it wrote (r.locs()). Only the un-elapsed part is still reserved; the
// consumed prefix was trimmed away as the clock advanced. A part a shard
// does not hold is an error, and then no shard is written.
func (l *Ledger) releaseParts(r *reservation) ([]resource.Location, error) {
	locs := r.locs()
	var buf lockBuf
	shards := l.lockedShards(&buf, locs)
	defer shards.unlock()
	if err := patchFree(shards, r.parts, (*shard).giving); err != nil {
		return nil, err
	}
	return locs, nil
}

// Acquire merges newly joined availability into the ledger (the paper's
// resource acquisition rule). Availability before the current time is
// discarded. Returns ErrNotOwned, with nothing applied, when theta names
// a location this node does not own: availability granted to a
// non-owner would sit in a shard the real owner never sees.
func (l *Ledger) Acquire(theta resource.Set) error {
	locs := theta.Locations()
	// Refused before locking, so a refusal creates no shard.
	if err := l.checkOwned(locs); err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	var buf lockBuf
	shards, err := l.lockOwned(&buf, locs)
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	o := op{kind: opAcquire, rec: reservation{parts: splitByShard(theta)}, locs: locs}
	acquire(shards, o.rec.parts)
	shards.unlock()
	l.apply(o)
	return nil
}

// Advance moves the ledger clock to 'to', expiring availability and
// reservation prefixes behind it and completing commitments whose plans
// have finished. It returns the names of completed commitments.
//
// It validates nothing beyond the clock's direction: past that check it
// is an advance op's effect and its apply.
func (l *Ledger) Advance(to interval.Time) ([]string, error) {
	for {
		cur := l.now.Load()
		if to < cur {
			return nil, fmt.Errorf("%w: at t=%d, asked for t=%d", ErrClockBackward, cur, to)
		}
		if l.now.CompareAndSwap(cur, to) {
			break
		}
	}

	l.mu.Lock()
	shards := make([]*shard, 0, len(l.shards))
	for _, sh := range l.shards {
		shards = append(shards, sh)
	}
	// One pass retires what the clock has overtaken: commitments whose
	// plans have finished complete, and leases that ran out without a
	// commit or abort (a crashed coordinator) are reclaimed, so no lease
	// outlives its TTL past this Advance. The commitments left standing
	// (claims included) are the live set of apply's promise sweep.
	var done []string
	var expired []*reservation
	liveJobs := make(map[string]bool)
	for name, r := range l.byName {
		switch {
		case r.lease == 0 && (r.pending || r.finish > to):
			liveJobs[name] = true
		case r.lease == 0:
			done = append(done, name)
			l.unindexLocked(r)
		case !r.pending && r.lease <= to:
			expired = append(expired, r)
			l.unindexLocked(r)
		}
	}
	l.mu.Unlock()

	for _, sh := range shards {
		sh.mu.Lock()
		sh.applyTrim(to)
		sh.mu.Unlock()
	}
	for _, h := range expired {
		if _, err := l.releaseParts(h); err != nil {
			return nil, fmt.Errorf("server: sweeping expired lease %s: %w", h.key, err)
		}
	}
	sort.Strings(done)
	// One op covers the whole advance: the trim, the completions, and the
	// lease sweep land in the same epoch.
	l.apply(op{kind: opAdvance, at: to, jobs: done, live: liveJobs, lapsed: expired})
	return done, nil
}

// ShardInfo is one shard's slice of a ledger snapshot.
type ShardInfo struct {
	Location resource.Location `json:"location"`
	// Theta and Reserved are the compact text renderings of the shard's
	// availability and live reservations.
	Theta        string `json:"theta"`
	Reserved     string `json:"reserved"`
	ThetaTerms   int    `json:"theta_terms"`
	ReservedTerm int    `json:"reserved_terms"`
}

// CommitmentInfo is one commitment's slice of a ledger snapshot. Demand
// is the compact rendering of the not-yet-consumed reserved demand —
// what a feasible() query would have to re-place, and what a cluster
// peer needs to resolve a named query ref remotely.
type CommitmentInfo struct {
	Name      string        `json:"name"`
	Admitted  interval.Time `json:"admitted"`
	Deadline  interval.Time `json:"deadline"`
	Finish    interval.Time `json:"finish"`
	Locations []string      `json:"locations"`
	Demand    string        `json:"demand,omitempty"`
}

// HoldInfo is one leased two-phase hold in a ledger snapshot.
type HoldInfo struct {
	Key      string        `json:"key"`
	Name     string        `json:"name"`
	Expiry   interval.Time `json:"lease_expiry"`
	Finish   interval.Time `json:"finish"`
	Demand   string        `json:"demand"`
	Location []string      `json:"locations"`
}

// Snapshot is a consistent-enough view of the ledger for the query API:
// each shard is read under its own lock.
type Snapshot struct {
	Now         interval.Time    `json:"now"`
	Shards      []ShardInfo      `json:"shards"`
	Commitments []CommitmentInfo `json:"commitments"`
	Holds       []HoldInfo       `json:"holds,omitempty"`
}

// Snapshot renders the ledger state.
func (l *Ledger) Snapshot() Snapshot {
	snap := Snapshot{Now: l.Now()}
	l.mu.Lock()
	shards := make([]*shard, 0, len(l.shards))
	for _, sh := range l.shards {
		shards = append(shards, sh)
	}
	for _, r := range l.byName {
		if r.pending {
			continue
		}
		info := r.info()
		if r.lease == 0 {
			snap.Commitments = append(snap.Commitments, info)
			continue
		}
		snap.Holds = append(snap.Holds, HoldInfo{
			Key:      r.key,
			Name:     r.name,
			Expiry:   r.lease,
			Finish:   r.finish,
			Demand:   r.demand().Compact(),
			Location: info.Locations,
		})
	}
	l.mu.Unlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].loc < shards[j].loc })
	for _, sh := range shards {
		sh.mu.Lock()
		// What the reservations hold is θ ∖ free. A broken shard, whose
		// free view θ does not dominate, is Audit's to report; here what
		// θ lacks is left out.
		reserved := sh.theta.SubtractSaturating(sh.free)
		snap.Shards = append(snap.Shards, ShardInfo{
			Location:     sh.loc,
			Theta:        sh.theta.Compact(),
			Reserved:     reserved.Compact(),
			ThetaTerms:   sh.theta.NumTerms(),
			ReservedTerm: reserved.NumTerms(),
		})
		sh.mu.Unlock()
	}
	sort.Slice(snap.Commitments, func(i, j int) bool { return snap.Commitments[i].Name < snap.Commitments[j].Name })
	sort.Slice(snap.Holds, func(i, j int) bool { return snap.Holds[i].Key < snap.Holds[j].Key })
	return snap
}

// info renders the reservation as a commitment, Demand left empty.
func (r *reservation) info() CommitmentInfo {
	locs := r.locs()
	info := CommitmentInfo{Name: r.name, Admitted: r.admitted, Deadline: r.deadline,
		Finish: r.finish, Locations: make([]string, len(locs))}
	for i, loc := range locs {
		info.Locations[i] = string(loc)
	}
	return info
}

// committed looks up a live commitment by name and returns its
// not-yet-consumed demand and its info, Demand left empty: rendering it
// is the caller's business, and never under l.mu.
func (l *Ledger) committed(name string) (resource.Set, CommitmentInfo, bool) {
	now := l.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.liveLocked(name)
	if r == nil {
		return resource.Set{}, CommitmentInfo{}, false
	}
	return r.demand().TrimmedBefore(now), r.info(), true
}

// liveLocked returns the live commitment named name — indexed, neither
// pending nor leased — or nil. Callers hold l.mu.
func (l *Ledger) liveLocked(name string) *reservation {
	r, ok := l.byName[name]
	if !ok || r.pending || r.lease != 0 {
		return nil
	}
	return r
}

// Commitment reports a live commitment by name, its remaining demand
// rendered as text.
func (l *Ledger) Commitment(name string) (CommitmentInfo, bool) {
	remaining, info, ok := l.committed(name)
	if ok {
		info.Demand = remaining.Compact()
	}
	return info, ok
}

// RemainingDemand returns a live commitment's not-yet-consumed demand
// and its info (Demand left empty) — the portion a migration re-homes
// elsewhere.
func (l *Ledger) RemainingDemand(name string) (resource.Set, CommitmentInfo, error) {
	demand, info, ok := l.committed(name)
	if !ok {
		return resource.Set{}, CommitmentInfo{}, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	return demand, info, nil
}

// Audit verifies the ledger invariants, intended for tests and debugging
// on a quiescent ledger: on every shard, (1) Θ dominates the union of
// the live commitments' remaining demands and the leased (prepared)
// holds' demands — no shard is overcommitted even counting uncommitted
// holds — (2) the free view equals Θ minus that union — no reservation
// drifted from its record — and (3) no hold's lease has already expired
// (Advance must have swept it). A failed
// audit freezes a flight-recorder snapshot: the invariant break is the
// anomaly whose run-up evidence must not scroll away.
func (l *Ledger) Audit() error {
	err := l.audit()
	if err != nil {
		l.obs.Log("assure.audit_mismatch", "error", err.Error())
		l.flight.Trigger(flightrec.TriggerAudit, err.Error())
	}
	return err
}

func (l *Ledger) audit() error {
	now := l.Now()
	expected := make(map[resource.Location]resource.Set)
	l.mu.Lock()
	for _, r := range l.byName {
		if r.pending {
			continue
		}
		if r.lease != 0 && r.lease <= now {
			l.mu.Unlock()
			return fmt.Errorf("server: hold %s (%s) outlived its lease: expired at t=%d, now t=%d",
				r.key, r.name, r.lease, now)
		}
		for _, p := range r.parts {
			expected[p.loc] = expected[p.loc].Union(p.set)
		}
	}
	shards := make([]*shard, 0, len(l.shards))
	for _, sh := range l.shards {
		shards = append(shards, sh)
	}
	l.mu.Unlock()

	for _, sh := range shards {
		// The sets render only for an error, and under the lock, so the
		// message shows the state that failed the check.
		var err error
		sh.mu.Lock()
		held := expected[sh.loc].TrimmedBefore(sh.now)
		if want, subErr := sh.theta.Subtract(held); subErr != nil {
			err = fmt.Errorf("server: shard %s overcommitted: theta %q does not dominate commitments %q", sh.loc, sh.theta.Compact(), held.Compact())
		} else if !sh.free.Equal(want) {
			err = fmt.Errorf("server: shard %s reservation drift: free %q, theta minus commitments %q", sh.loc, sh.free.Compact(), want.Compact())
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
