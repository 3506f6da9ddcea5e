package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Evaluator decides a compiled query against the current ledger state.
// The server passes one that evaluates the Snapshot its query-snapshot
// hook returns: its own ledger's, or on a cluster node the merged views
// of the footprint's owners. The manager never touches a ledger.
type Evaluator func(c *Compiled) (Verdict, error)

// Verdict is one evaluation outcome with the state it was taken
// against and what it read: Reads and Typed are the Result's, Footprint
// and Scoped the Snapshot's. A sweep re-evaluates an unscoped verdict's
// subscription every time, an untyped one's when a write touched its
// footprint, and a typed one's only when the writes could flip one of
// its reads: of the same located type, in an overlapping window, they
// took more than its slack or gave back at least its deficit.
type Verdict struct {
	Holds     bool
	Epoch     uint64
	Now       interval.Time
	Reads     []Read
	Typed     bool
	Footprint []resource.Location
	Scoped    bool
}

// Event is one delivery to a subscriber: the initial verdict when the
// subscription is created (Prev == nil), then one event per verdict
// flip. Seq increases per subscription; gaps mean the bounded queue
// dropped flips (Dropped is the cumulative count, so a consumer can
// tell how many).
type Event struct {
	Sub     uint64        `json:"sub"`
	Seq     uint64        `json:"seq"`
	Query   string        `json:"query"`
	Holds   bool          `json:"holds"`
	Prev    *bool         `json:"prev,omitempty"`
	Epoch   uint64        `json:"epoch"`
	Now     interval.Time `json:"now"`
	Reason  string        `json:"reason,omitempty"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// Subscription is one standing query. Read verdicts from Events; the
// channel closes when the subscription is removed (Close, manager
// shutdown). All methods are safe for concurrent use.
type Subscription struct {
	id     uint64
	c      *Compiled
	events chan Event

	m *Manager
	// last is the last successful evaluation: its verdict is the one
	// delivered, its reads what a write must reach to wake it. last and
	// seq are guarded by m.mu.
	last    Verdict
	seq     uint64
	dropped atomic.Uint64
	removed bool // guarded by m.mu; true once events is closed
	// stale, guarded by m.mu, marks a verdict no write can be trusted to
	// invalidate: the initial one (a bump may land between it and the
	// registration) and one whose re-evaluation errored. A stale
	// subscription is re-evaluated by the next sweep whatever that
	// sweep's writes touched.
	stale bool
}

// ID returns the subscription's identifier.
func (s *Subscription) ID() uint64 { return s.id }

// Query returns the canonical text of the standing query.
func (s *Subscription) Query() string { return s.c.Source() }

// Events returns the verdict stream.
func (s *Subscription) Events() <-chan Event { return s.events }

// Close removes the subscription and closes its event channel.
func (s *Subscription) Close() { s.m.unsubscribe(s.id) }

// ManagerStats digests the subscription manager for /v1/stats.
type ManagerStats struct {
	Active        int    `json:"active_subscriptions" metric:"rota_query_subscriptions" help:"Active standing-query subscriptions."`
	Evals         uint64 `json:"evals" metric:"rota_query_evals_total" help:"Standing-query evaluations: each subscription's initial one plus every re-evaluation a sweep runs."`
	EvalErrors    uint64 `json:"eval_errors" metric:"rota_query_eval_errors_total" help:"Standing-query re-evaluations that errored (previous verdict kept)."`
	Flips         uint64 `json:"flips" metric:"rota_query_flips_total" help:"Verdict flips detected across all standing queries."`
	Delivered     uint64 `json:"delivered" metric:"rota_query_events_delivered_total" help:"Verdict events delivered to subscriber queues."`
	Drops         uint64 `json:"drops" metric:"rota_query_drops_total" help:"Verdict events dropped on full subscriber queues."`
	WebhookErrors uint64 `json:"webhook_errors" metric:"rota_query_webhook_errors_total" help:"Webhook verdict deliveries that failed."`
	SweepWoken    uint64 `json:"sweep_woken" metric:"rota_query_sweep_woken_total" help:"Standing queries a sweep re-evaluated: stale, unscoped, or reading what a write since the last sweep touched."`
	SweepSkipped  uint64 `json:"sweep_skipped" metric:"rota_query_sweep_skipped_total" help:"Standing queries a sweep left alone because no write since the last sweep could flip what they read: none touched it, or none took more than its slack or gave back its deficit (a margin is spent across sweeps)."`
}

// Manager re-evaluates standing queries when the ledger epoch advances
// and delivers verdict flips to bounded per-subscriber queues. A single
// re-evaluation goroutine coalesces bursts of epoch bumps: while one
// sweep runs, any number of further bumps collapse into one pending
// wake and one pending touched set, and the next sweep re-evaluates
// only the subscriptions whose last reads those writes could flip: a
// sweep's evaluations cost what the writes since the last one moved
// across a margin, and the rest of the subscriptions cost a few map
// probes each.
type Manager struct {
	eval Evaluator
	log  func(event string, kv ...any)

	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool
	// live mirrors len(subs) for Live and BumpAt, which must not take
	// mu: with no subscriptions a bump records nothing and wakes nothing.
	live atomic.Int64

	// pmu is a leaf lock over what the bumps since the last sweep
	// touched and the latest bump's reason. The ledger's mutating
	// goroutines take it on every bump (sometimes under the ledger's
	// own lock), so nothing is called while it is held.
	pmu     sync.Mutex
	pending touched
	reason  string
	// swept and batch belong to the loop goroutine: the touched set the
	// running sweep drains (swapped with pending at its start, so
	// neither is reallocated) and the subscriptions it re-evaluates.
	swept touched
	batch []*Subscription

	wake       chan struct{}
	done       chan struct{}
	loopExited chan struct{}

	evals       atomic.Uint64
	evalErrors  atomic.Uint64
	flips       atomic.Uint64
	delivered   atomic.Uint64
	drops       atomic.Uint64
	webhookErrs atomic.Uint64
	woken       atomic.Uint64
	skipped     atomic.Uint64
	webhookWg   sync.WaitGroup
}

// touched is what the writes since the last sweep changed: the
// locations they wrote, what they wrote of each located type, and the
// commitment names they added, moved or removed — or all, after a write
// that may have changed anything (a clock advance moves every window's
// start, a handoff moves names between nodes, a cluster bump names
// nothing). One delta per type bounds the set by the types written,
// however many writes a sweep coalesces.
type touched struct {
	all   bool
	locs  map[resource.Location]struct{}
	types map[resource.LocatedType]delta
	names map[string]struct{}
}

// delta is what the writes since the last sweep did to one located
// type's free view: the hull of what they wrote, and the quantities they
// took from it and gave to it. Within any window the free quantity fell
// by at most taken and rose by at most given.
type delta struct {
	hull         interval.Interval
	taken, given resource.Quantity
}

func newTouched() touched {
	return touched{locs: make(map[resource.Location]struct{}),
		types: make(map[resource.LocatedType]delta), names: make(map[string]struct{})}
}

// add records one write: the locations it wrote, the sets it took from
// and gave to their free view, and the commitment it wrote for. Nil
// locs means anything.
func (t *touched) add(locs []resource.Location, name string, took, gave []resource.Set) {
	if t.all {
		return
	}
	if locs == nil {
		t.all = true
		return
	}
	for _, loc := range locs {
		t.locs[loc] = struct{}{}
	}
	t.write(took, false)
	t.write(gave, true)
	if name != "" {
		t.names[name] = struct{}{}
	}
}

// write adds sets, each taken or given whole, to their types' deltas.
func (t *touched) write(sets []resource.Set, gave bool) {
	for _, set := range sets {
		set.EachType(func(lt resource.LocatedType, hull interval.Interval) {
			d := t.types[lt]
			d.hull = d.hull.Hull(hull)
			if q := set.QuantityWithin(lt, hull); gave {
				d.given = d.given.AddSaturating(q)
			} else {
				d.taken = d.taken.AddSaturating(q)
			}
			t.types[lt] = d
		})
	}
}

// wakes reports whether sub's verdict may have moved: it is stale, its
// evaluator named no read set, the writes touched a name it references,
// or they reached what its last evaluation read — a location of its
// footprint when that evaluation was untyped, else one of its
// (located type, window) reads across its margin. A met read can fail
// only if the writes took more than its slack, a read in deficit can be
// met only if they gave back at least the deficit, and a verdict is a
// function of its reads: while none can flip, no formula over them can,
// not included. Callers hold m.mu.
func (t *touched) wakes(sub *Subscription) bool {
	v := &sub.last
	if t.all || sub.stale || !v.Scoped {
		return true
	}
	for _, name := range sub.c.Names() {
		if _, ok := t.names[name]; ok {
			return true
		}
	}
	if !v.Typed {
		for _, loc := range v.Footprint {
			if _, ok := t.locs[loc]; ok {
				return true
			}
		}
		return false
	}
	for _, r := range v.Reads {
		d, ok := t.types[r.Type]
		if !ok || !d.hull.Overlaps(r.Window) {
			continue
		}
		if r.Slack >= 0 && d.taken > r.Slack || r.Slack < 0 && d.given >= -r.Slack {
			return true
		}
	}
	return false
}

// debit charges a typed verdict the sweep skipped with the writes it
// skipped: a met read's slack loses what they took, a deficit shrinks by
// what they gave. Each stays a bound on what its read would see now, so
// a margin is spent across sweeps, not renewed by each. Callers hold
// m.mu.
func (t *touched) debit(sub *Subscription) {
	if !sub.last.Typed {
		return
	}
	for i := range sub.last.Reads {
		r := &sub.last.Reads[i]
		d, ok := t.types[r.Type]
		switch {
		case !ok || !d.hull.Overlaps(r.Window):
		case r.Slack >= 0:
			r.Slack -= d.taken
		default:
			r.Slack += d.given
		}
	}
}

// reset empties the set, keeping its maps' storage.
func (t *touched) reset() {
	t.all = false
	clear(t.locs)
	clear(t.types)
	clear(t.names)
}

// NewManager starts a subscription manager. log receives structured
// query.* events and may be nil.
func NewManager(eval Evaluator, log func(event string, kv ...any)) *Manager {
	m := &Manager{
		eval:       eval,
		log:        log,
		subs:       make(map[uint64]*Subscription),
		pending:    newTouched(),
		swept:      newTouched(),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		loopExited: make(chan struct{}),
	}
	if m.log == nil {
		m.log = func(string, ...any) {}
	}
	go m.loop()
	return m
}

// Bump notifies the manager that something moved for the given reason
// without saying what: every subscription is re-evaluated by the next
// sweep. It is BumpAt with a nil footprint.
func (m *Manager) Bump(epoch uint64, reason string) {
	m.BumpAt(epoch, reason, nil, "", nil, nil)
}

// Live reports whether any subscription is registered: while none is, a
// notifier need not gather what a write wrote.
func (m *Manager) Live() bool { return m.live.Load() > 0 }

// BumpAt notifies the manager that the ledger moved to the given epoch
// for the given reason (reserve, release, acquire, advance, prepare,
// commit, abort, handoff) by a write to locs on behalf of the named
// commitment (name may be empty). took are the sets the write took from
// the free view of those locations and gave the sets it gave to it; a
// write that may have done either passes its sets as both. A typed
// verdict wakes only for writes to a type it read, in a window
// overlapping the one it read, that take more than that read's slack or
// give back at least its deficit. A nil locs means anything may have
// changed. Verdicts carry their own epochs, so the epoch is not kept.
// Never blocks: wakes and footprints coalesce until the next sweep.
func (m *Manager) BumpAt(epoch uint64, reason string, locs []resource.Location, name string, took, gave []resource.Set) {
	m.pmu.Lock()
	m.reason = reason
	live := m.Live()
	if live {
		m.pending.add(locs, name, took, gave)
	}
	m.pmu.Unlock()
	if !live {
		// A subscription registering now is stale until its first sweep,
		// which its own self-wake starts.
		return
	}
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Subscribe registers a standing query. queueLen bounds the
// subscriber's event queue (clamped to [1, 256]); the initial verdict
// is evaluated synchronously and delivered as the first event.
func (m *Manager) Subscribe(c *Compiled, queueLen int) (*Subscription, error) {
	if queueLen < 1 {
		queueLen = 16
	}
	if queueLen > 256 {
		queueLen = 256
	}
	v, err := m.eval(c)
	m.evals.Add(1)
	if err != nil {
		m.evalErrors.Add(1)
		return nil, fmt.Errorf("query: initial evaluation: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("query: subscription manager closed")
	}
	m.nextID++
	sub := &Subscription{
		id:     m.nextID,
		c:      c,
		events: make(chan Event, queueLen),
		m:      m,
		last:   v,
		stale:  true,
	}
	m.subs[sub.id] = sub
	m.live.Add(1)
	m.deliverLocked(sub, v, nil, "subscribe")
	m.mu.Unlock()
	// The ledger may have moved between the evaluation and the
	// registration, and that bump's sweep may already have run without
	// this subscription: a self-wake sweeps it, stale, once more.
	select {
	case m.wake <- struct{}{}:
	default:
	}
	m.log("query.subscribe", "sub", sub.id, "query", c.Source(), "holds", v.Holds, "epoch", v.Epoch)
	return sub, nil
}

// unsubscribe removes a subscription and closes its channel. Idempotent.
func (m *Manager) unsubscribe(id uint64) {
	m.mu.Lock()
	sub, ok := m.subs[id]
	if ok {
		delete(m.subs, id)
		m.live.Add(-1)
		sub.removed = true
		close(sub.events)
	}
	m.mu.Unlock()
	if ok {
		m.log("query.unsubscribe", "sub", id, "query", sub.c.Source())
	}
}

// Close shuts the manager down: the re-evaluation loop exits, every
// subscription's channel closes, and in-flight webhook deliveries are
// waited out.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for id, sub := range m.subs {
		delete(m.subs, id)
		sub.removed = true
		close(sub.events)
	}
	m.live.Store(0)
	m.mu.Unlock()
	close(m.done)
	<-m.loopExited
	m.webhookWg.Wait()
}

// Stats digests the manager's counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	active := len(m.subs)
	m.mu.Unlock()
	return ManagerStats{
		Active:        active,
		Evals:         m.evals.Load(),
		EvalErrors:    m.evalErrors.Load(),
		Flips:         m.flips.Load(),
		Delivered:     m.delivered.Load(),
		Drops:         m.drops.Load(),
		WebhookErrors: m.webhookErrs.Load(),
		SweepWoken:    m.woken.Load(),
		SweepSkipped:  m.skipped.Load(),
	}
}

// loop is the single re-evaluation goroutine.
func (m *Manager) loop() {
	defer close(m.loopExited)
	for {
		select {
		case <-m.done:
			return
		case <-m.wake:
			m.sweep()
		}
	}
}

// sweep re-evaluates every subscription the writes since the last
// sweep may have flipped, debits the rest with those writes, and
// delivers flips. The touched set is taken before any evaluation reads
// the ledger, so a write it misses bumps after the take and counts
// against the next sweep's margins, whether or not the evaluation saw
// it: a write counted twice only wakes a verdict sooner.
func (m *Manager) sweep() {
	m.pmu.Lock()
	m.pending, m.swept = m.swept, m.pending
	m.pmu.Unlock()

	m.mu.Lock()
	batch := m.batch[:0]
	for _, sub := range m.subs {
		if m.swept.wakes(sub) {
			batch = append(batch, sub)
		} else {
			m.swept.debit(sub)
		}
	}
	skipped := len(m.subs) - len(batch)
	m.mu.Unlock()
	m.swept.reset()
	m.woken.Add(uint64(len(batch)))
	m.skipped.Add(uint64(skipped))

	for _, sub := range batch {
		m.reevaluate(sub)
	}
	clear(batch) // drop the references: a closed subscription may go
	m.batch = batch[:0]
}

// reevaluate runs one sweep evaluation of sub, records what it read and
// delivers a flip.
func (m *Manager) reevaluate(sub *Subscription) {
	v, err := m.eval(sub.c)
	m.evals.Add(1)
	if err != nil {
		// Keep the last verdict: a transient evaluation failure is not a
		// flip. The subscription stays stale, so the next sweep retries.
		m.evalErrors.Add(1)
		m.mu.Lock()
		sub.stale = true
		m.mu.Unlock()
		m.log("query.eval_error", "sub", sub.id, "query", sub.c.Source(), "error", err)
		return
	}
	m.mu.Lock()
	prev := sub.last.Holds
	sub.stale, sub.last = false, v
	if sub.removed || prev == v.Holds {
		m.mu.Unlock()
		return
	}
	m.flips.Add(1)
	// Sampled after the evaluation it labels: a sweep that started on
	// an older wake (Subscribe's self-wake carries no bump at all) may
	// be evaluating state a later bump produced.
	m.pmu.Lock()
	reason := m.reason
	m.pmu.Unlock()
	m.deliverLocked(sub, v, &prev, reason)
	m.mu.Unlock()
	m.log("query.flip", "sub", sub.id, "query", sub.c.Source(),
		"holds", v.Holds, "epoch", v.Epoch, "reason", reason)
}

// deliverLocked enqueues one event, dropping (and counting) when the
// subscriber's bounded queue is full. Callers hold m.mu, which is what
// makes the send race-free against unsubscribe's close.
func (m *Manager) deliverLocked(sub *Subscription, v Verdict, prev *bool, reason string) {
	sub.seq++
	ev := Event{
		Sub:     sub.id,
		Seq:     sub.seq,
		Query:   sub.c.Source(),
		Holds:   v.Holds,
		Prev:    prev,
		Epoch:   v.Epoch,
		Now:     v.Now,
		Reason:  reason,
		Dropped: sub.dropped.Load(),
	}
	select {
	case sub.events <- ev:
		m.delivered.Add(1)
	default:
		sub.dropped.Add(1)
		m.drops.Add(1)
		m.log("query.drop", "sub", sub.id, "query", sub.c.Source(),
			"seq", sub.seq, "dropped", sub.dropped.Load())
	}
}

// SubscribeWebhook registers a standing query whose events are POSTed
// as JSON to url instead of read from a channel. Delivery is
// best-effort: failures count in WebhookErrors and the subscription
// stays live. The returned subscription's Close stops deliveries.
func (m *Manager) SubscribeWebhook(c *Compiled, url string, client *http.Client, queueLen int) (*Subscription, error) {
	sub, err := m.Subscribe(c, queueLen)
	if err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	m.webhookWg.Add(1)
	go func() {
		defer m.webhookWg.Done()
		for ev := range sub.events {
			body, err := json.Marshal(ev)
			if err != nil {
				m.webhookErrs.Add(1)
				continue
			}
			req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				m.webhookErrs.Add(1)
				continue
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				m.webhookErrs.Add(1)
				m.log("query.webhook_error", "sub", sub.id, "url", url, "error", err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				m.webhookErrs.Add(1)
				m.log("query.webhook_error", "sub", sub.id, "url", url, "status", resp.StatusCode)
			}
		}
	}()
	return sub, nil
}
