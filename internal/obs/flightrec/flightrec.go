// Package flightrec is the anomaly flight recorder: a bounded per-node
// ring of recent structured log events, spans and health/membership
// state that is frozen into an immutable snapshot the moment a trigger
// fires — promise violation, audit mismatch, quorum eviction, replan
// exhaustion, watch-queue overflow. The point is forensic: by the time
// a human looks at an anomaly the evidence has scrolled away, so the
// recorder keeps the last few seconds of everything and photographs it
// at the instant something went wrong. Snapshots from several nodes
// merge into one causal timeline (see merge.go / cmd/rotadoctor).
package flightrec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs/span"
)

// Trigger kinds. Anything may be passed to Trigger; these are the ones
// the daemon wires up.
const (
	TriggerViolation = "promise_violation"
	TriggerAudit     = "audit_mismatch"
	TriggerEviction  = "quorum_eviction"
	TriggerReplan    = "replan_exhausted"
	TriggerWatchDrop = "watch_overflow"
)

// Event is one captured log line.
type Event struct {
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"ts"`
	Line string    `json:"line"`
}

// Snapshot is the frozen state at the instant a trigger fired.
type Snapshot struct {
	ID      string    `json:"id"`
	Node    string    `json:"node"`
	Trigger string    `json:"trigger"`
	Detail  string    `json:"detail,omitempty"`
	Wall    time.Time `json:"ts"`
	Seq     uint64    `json:"seq"`
	// Events is the log ring at freeze time, oldest first.
	Events []Event `json:"events,omitempty"`
	// Spans is the recent span window at freeze time, oldest first.
	Spans []span.Record `json:"spans,omitempty"`
	// State is whatever the state callback reported (health digest,
	// membership epoch, member list...). Opaque to the recorder.
	State any `json:"state,omitempty"`
}

// Stats is the counter block surfaced under /v1/stats "flightrec".
type Stats struct {
	Snapshots        int    `json:"flight_snapshots" metric:"rota_flightrec_snapshots" help:"Flight-recorder snapshots currently held."`
	SnapshotCapacity int    `json:"flight_snapshot_capacity" metric:"rota_flightrec_snapshot_capacity" help:"Flight-recorder snapshot ring bound."`
	Triggers         uint64 `json:"flight_triggers" metric:"rota_flightrec_triggers_total" help:"Anomaly triggers fired (including deduplicated ones)."`
	Deduped          uint64 `json:"flight_triggers_deduped" metric:"rota_flightrec_triggers_deduped_total" help:"Triggers suppressed by the per-kind dedup window."`
	Evicted          uint64 `json:"flight_snapshots_evicted" metric:"rota_flightrec_snapshots_evicted_total" help:"Snapshots evicted to keep the ring within its bound."`
	Events           int    `json:"flight_events_buffered" metric:"rota_flightrec_events_buffered" help:"Log lines currently in the flight-recorder ring."`
	EventCapacity    int    `json:"flight_event_capacity" metric:"rota_flightrec_event_capacity" help:"Flight-recorder event ring bound."`
}

const (
	// DefaultEventCap bounds the log-line ring.
	DefaultEventCap = 1024
	// DefaultSnapshotCap bounds how many frozen snapshots are kept;
	// beyond it the oldest is evicted.
	DefaultSnapshotCap = 16
	// dedupWindow collapses repeated triggers of the same kind: an
	// eviction storm should yield one snapshot, not a hundred identical
	// ones crowding everything else out of the ring.
	dedupWindow = time.Second
	// spanWindow bounds how many recent spans each snapshot carries.
	spanWindow = 1024
)

// Recorder is the per-node flight recorder. All methods are safe on a
// nil receiver (recording disabled) and safe for concurrent use.
type Recorder struct {
	node  string
	spans *span.Store
	nowFn func() time.Time

	mu       sync.Mutex
	events   []Event
	evHead   int
	evFull   bool
	seq      uint64
	stateFn  func() any
	snaps    []Snapshot
	snapCap  int
	last     map[string]time.Time
	idSeq    uint64
	triggers uint64
	deduped  uint64
	evicted  uint64
}

// New builds a recorder for node with an event ring of eventCap lines
// and a snapshot ring of snapCap, sampling spans from spans (may be
// nil).
func New(node string, eventCap, snapCap int, spans *span.Store) *Recorder {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	if snapCap <= 0 {
		snapCap = DefaultSnapshotCap
	}
	return &Recorder{
		node:    node,
		spans:   spans,
		nowFn:   time.Now,
		events:  make([]Event, eventCap),
		snapCap: snapCap,
		last:    make(map[string]time.Time),
	}
}

// SetState installs the callback sampled into each snapshot — a
// health/membership digest. Called once at wiring time.
func (r *Recorder) SetState(fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stateFn = fn
	r.mu.Unlock()
}

// Record appends one log line to the event ring.
func (r *Recorder) Record(line string) {
	if r == nil || line == "" {
		return
	}
	r.mu.Lock()
	r.seq++
	r.events[r.evHead] = Event{Seq: r.seq, Wall: r.nowFn(), Line: line}
	r.evHead = (r.evHead + 1) % len(r.events)
	if r.evHead == 0 {
		r.evFull = true
	}
	r.mu.Unlock()
}

// writer adapts Record to io.Writer so the recorder can tee the
// Observer's structured log stream. The Observer writes one line per
// call, which costs the one string the ring keeps.
type writer struct{ r *Recorder }

func (w writer) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(line) > 0 {
			w.r.Record(string(line))
		}
	}
	return len(p), nil
}

// Writer returns an io.Writer that records every line written to it.
// Tee the daemon's log stream through it (io.MultiWriter).
func (r *Recorder) Writer() io.Writer {
	if r == nil {
		return io.Discard
	}
	return writer{r}
}

// Trigger freezes a snapshot unless the same trigger kind fired within
// the dedup window. Returns the snapshot ID and whether one was taken.
func (r *Recorder) Trigger(kind, detail string) (string, bool) {
	if r == nil {
		return "", false
	}
	now := r.nowFn()
	r.mu.Lock()
	r.triggers++
	if at, ok := r.last[kind]; ok && now.Sub(at) < dedupWindow {
		r.deduped++
		r.mu.Unlock()
		return "", false
	}
	r.last[kind] = now
	r.idSeq++
	snap := Snapshot{
		ID:      fmt.Sprintf("%s-%d", r.node, r.idSeq),
		Node:    r.node,
		Trigger: kind,
		Detail:  detail,
		Wall:    now,
		Seq:     r.seq,
		Events:  r.eventsLocked(),
	}
	stateFn := r.stateFn
	r.mu.Unlock()

	// Sample spans and state outside r.mu: both take their own locks
	// and the state callback may reach into health/membership layers.
	if r.spans != nil {
		snap.Spans = r.spans.Recent(spanWindow)
	}
	if stateFn != nil {
		snap.State = stateFn()
	}

	r.mu.Lock()
	r.snaps = append(r.snaps, snap)
	if len(r.snaps) > r.snapCap {
		drop := len(r.snaps) - r.snapCap
		r.snaps = append(r.snaps[:0], r.snaps[drop:]...)
		r.evicted += uint64(drop)
	}
	r.mu.Unlock()

	// Leave a span so the freeze itself shows up on the timeline.
	if r.spans != nil {
		_, sp := r.spans.Start(context.Background(), span.KindFlightRec)
		sp.Attr("trigger", kind)
		sp.Attr("snapshot", snap.ID)
		if detail != "" {
			sp.Attr("detail", detail)
		}
		sp.End()
	}
	return snap.ID, true
}

// eventsLocked copies the ring oldest-first. Caller holds r.mu.
func (r *Recorder) eventsLocked() []Event {
	n := r.evHead
	if r.evFull {
		n = len(r.events)
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := 0
	if r.evFull {
		start = r.evHead
	}
	for k := 0; k < n; k++ {
		out = append(out, r.events[(start+k)%len(r.events)])
	}
	return out
}

// Get returns the snapshot with the given ID.
func (r *Recorder) Get(id string) (Snapshot, bool) {
	if r == nil {
		return Snapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.snaps {
		if r.snaps[i].ID == id {
			return r.snaps[i], true
		}
	}
	return Snapshot{}, false
}

// Snapshots returns all held snapshots, oldest first.
func (r *Recorder) Snapshots() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Snapshot(nil), r.snaps...)
}

// Stats digests the counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.evHead
	if r.evFull {
		ev = len(r.events)
	}
	return Stats{
		Snapshots:        len(r.snaps),
		SnapshotCapacity: r.snapCap,
		Triggers:         r.triggers,
		Deduped:          r.deduped,
		Evicted:          r.evicted,
		Events:           ev,
		EventCapacity:    len(r.events),
	}
}
