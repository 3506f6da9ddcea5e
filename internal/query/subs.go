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
)

// Evaluator decides a compiled query against the current ledger state.
// The server injects one that snapshots the free view; the manager
// never touches the ledger directly.
type Evaluator func(c *Compiled) (Verdict, error)

// Verdict is one evaluation outcome with the state it was taken
// against.
type Verdict struct {
	Holds bool
	Epoch uint64
	Now   interval.Time
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
	// verdict/seq are guarded by m.mu.
	verdict bool
	seq     uint64
	dropped atomic.Uint64
	removed bool // guarded by m.mu; true once events is closed
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
	Evals         uint64 `json:"evals" metric:"rota_query_evals_total" help:"Standing-query re-evaluations run by the sweep loop."`
	EvalErrors    uint64 `json:"eval_errors" metric:"rota_query_eval_errors_total" help:"Standing-query re-evaluations that errored (previous verdict kept)."`
	Flips         uint64 `json:"flips" metric:"rota_query_flips_total" help:"Verdict flips detected across all standing queries."`
	Delivered     uint64 `json:"delivered" metric:"rota_query_events_delivered_total" help:"Verdict events delivered to subscriber queues."`
	Drops         uint64 `json:"drops" metric:"rota_query_drops_total" help:"Verdict events dropped on full subscriber queues."`
	WebhookErrors uint64 `json:"webhook_errors" metric:"rota_query_webhook_errors_total" help:"Webhook verdict deliveries that failed."`
}

// Manager re-evaluates standing queries when the ledger epoch advances
// and delivers verdict flips to bounded per-subscriber queues. A single
// re-evaluation goroutine coalesces bursts of epoch bumps: while one
// sweep runs, any number of further bumps collapse into one pending
// wake, so subscription cost stays O(subs) per quiet period rather than
// per ledger write.
type Manager struct {
	eval Evaluator
	log  func(event string, kv ...any)

	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool

	wake       chan struct{}
	done       chan struct{}
	loopExited chan struct{}

	lastEpoch  atomic.Uint64
	lastReason atomic.Value // string

	evals       atomic.Uint64
	evalErrors  atomic.Uint64
	flips       atomic.Uint64
	delivered   atomic.Uint64
	drops       atomic.Uint64
	webhookErrs atomic.Uint64
	webhookWg   sync.WaitGroup
}

// NewManager starts a subscription manager. log receives structured
// query.* events and may be nil.
func NewManager(eval Evaluator, log func(event string, kv ...any)) *Manager {
	m := &Manager{
		eval:       eval,
		log:        log,
		subs:       make(map[uint64]*Subscription),
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

// Bump notifies the manager that the ledger moved to the given epoch
// for the given reason (reserve, release, acquire, advance, prepare,
// commit, abort). Never blocks: wakes coalesce.
func (m *Manager) Bump(epoch uint64, reason string) {
	m.lastEpoch.Store(epoch)
	m.lastReason.Store(reason)
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
		id:      m.nextID,
		c:       c,
		events:  make(chan Event, queueLen),
		m:       m,
		verdict: v.Holds,
	}
	m.subs[sub.id] = sub
	m.deliverLocked(sub, v, nil, "subscribe")
	m.mu.Unlock()
	// The ledger may have moved between the evaluation and the
	// registration; a self-wake closes the gap.
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

// sweep re-evaluates every standing query once and delivers flips.
func (m *Manager) sweep() {
	m.mu.Lock()
	pending := make([]*Subscription, 0, len(m.subs))
	for _, sub := range m.subs {
		pending = append(pending, sub)
	}
	m.mu.Unlock()

	for _, sub := range pending {
		v, err := m.eval(sub.c)
		m.evals.Add(1)
		if err != nil {
			// Keep the last verdict: a transient evaluation failure is
			// not a flip.
			m.evalErrors.Add(1)
			m.log("query.eval_error", "sub", sub.id, "query", sub.c.Source(), "error", err)
			continue
		}
		m.mu.Lock()
		if sub.removed || sub.verdict == v.Holds {
			m.mu.Unlock()
			continue
		}
		prev := sub.verdict
		sub.verdict = v.Holds
		m.flips.Add(1)
		// Sampled after the evaluation it labels: a sweep that started on
		// an older wake (Subscribe's self-wake carries no bump at all) may
		// be evaluating state a later bump produced.
		reason, _ := m.lastReason.Load().(string)
		m.deliverLocked(sub, v, &prev, reason)
		m.mu.Unlock()
		m.log("query.flip", "sub", sub.id, "query", sub.c.Source(),
			"holds", v.Holds, "epoch", v.Epoch, "reason", reason)
	}
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
