// Package span is rotad's hierarchical tracing layer, built on top of
// the flat trace IDs internal/obs established: every phase of an
// admission — validation, witness-plan search, ledger reservation,
// two-phase coordination, each peer-RPC attempt — runs inside a Span
// with a parent, per-span attributes and a monotonic duration. Finished
// spans land in a bounded in-memory ring buffer (the Store) that
// GET /debug/rota/trace/{id} serves and rotatrace -spans analyses.
//
// Span context crosses process boundaries in the X-Rota-Span header
// (the parent span ID; the trace ID rides the existing X-Rota-Trace-Id
// header), so one federated admission yields a single connected span
// tree across coordinator and participants.
//
// All Span and Store methods are safe for concurrent use and safe on a
// nil receiver — a nil *Store is the "tracing off" object, and the nil
// *Span values it hands out make every call site unconditional.
package span

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Statuses a finished span may carry. The zero value renders as "ok".
const (
	StatusOK     = "ok"
	StatusReject = "reject" // a well-formed capacity/deadline rejection
	StatusError  = "error"  // a fault: transport, protocol, validation
)

// Record is the serialized form of a finished span — the shape the
// /debug/rota/trace endpoint returns, rotatrace consumes, and the
// ring buffer stores.
type Record struct {
	Trace  string `json:"trace"`
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"`
	// StartUnixNS is the wall-clock start; ordering within one node is
	// trustworthy (durations are monotonic), across nodes it is only as
	// good as the clocks.
	StartUnixNS int64             `json:"start_unix_ns"`
	DurationUS  int64             `json:"duration_us"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Status      string            `json:"status,omitempty"`
	// Provenance explains a terminal reject: which constraint, resource
	// term or node free-view made the checker say no.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// End returns the record's wall-clock end time in ns.
func (r Record) End() int64 { return r.StartUnixNS + r.DurationUS*1000 }

// Dump is the JSON body of GET /debug/rota/trace/{id}.
type Dump struct {
	Trace string   `json:"trace"`
	Spans []Record `json:"spans"`
}

// Span is one in-flight operation. Created by Store.Start, finished by
// End; mutators are no-ops after End and on a nil receiver.
type Span struct {
	store *Store

	mu    sync.Mutex
	rec   Record
	begun time.Time // monotonic
	ended bool
}

// DefaultCapacity is the span store's bound when none is configured.
const DefaultCapacity = 4096

// Store is a bounded in-memory ring buffer of finished spans. When the
// buffer is full the oldest record is overwritten and the eviction
// counter incremented, so the store's footprint is fixed however much
// traffic the daemon serves.
type Store struct {
	node string
	cap  int

	mu       sync.Mutex
	buf      []Record
	next     int // next write slot
	filled   int // records currently held (≤ cap)
	recorded uint64
	evicted  uint64
}

// NewStore builds a span store bounded to capacity records (≤ 0 means
// DefaultCapacity), tagging every record with the given node ID.
func NewStore(capacity int, node string) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{node: node, cap: capacity, buf: make([]Record, capacity)}
}

// ctxKey carries the current *Span in a context.
type ctxKey struct{}

// FromContext returns the context's live span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// NewContext returns ctx tagged with the span.
func NewContext(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// MintID returns a fresh 16-hex-character span ID.
func MintID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return fmt.Sprintf("s%015x", time.Now().UnixNano()&0xFFFFFFFFFFFFFFF)
	}
	return hex.EncodeToString(buf[:])
}

// Start opens a span of the given kind as a child of the context's live
// span — or, absent one, of the remote parent the X-Rota-Span header
// propagated (obs.SpanParent). The returned context carries the new
// span so nested phases and outgoing RPCs parent onto it. A nil store
// returns the context unchanged and a nil span.
func (st *Store) Start(ctx context.Context, kind string) (context.Context, *Span) {
	if st == nil {
		return ctx, nil
	}
	var trace, parent string
	if p := FromContext(ctx); p != nil {
		p.mu.Lock()
		trace, parent = p.rec.Trace, p.rec.ID
		p.mu.Unlock()
	} else {
		trace = obs.Trace(ctx)
		parent = obs.SpanParent(ctx)
	}
	if trace == "" {
		trace = obs.MintTraceID()
	}
	sp := &Span{
		store: st,
		begun: time.Now(),
		rec: Record{
			Trace:       trace,
			ID:          MintID(),
			Parent:      parent,
			Kind:        kind,
			Node:        st.node,
			StartUnixNS: time.Now().UnixNano(),
		},
	}
	return NewContext(ctx, sp), sp
}

// ID returns the span's ID ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.ID
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Trace
}

// Attr sets one span attribute; the value is rendered with %v.
func (s *Span) Attr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = fmt.Sprintf("%v", value)
}

// SetStatus marks the span's terminal status (ok, reject, error).
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.Status = status
	}
}

// SetProvenance attaches the decision provenance explaining a reject.
func (s *Span) SetProvenance(p *Provenance) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.Provenance = p
	}
}

// End finishes the span and commits it to the store. Idempotent; only
// the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.DurationUS = time.Since(s.begun).Microseconds()
	if s.rec.Status == "" {
		s.rec.Status = StatusOK
	}
	rec := s.rec
	s.mu.Unlock()
	s.store.add(rec)
}

func (st *Store) add(rec Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.filled == st.cap {
		st.evicted++
	} else {
		st.filled++
	}
	st.buf[st.next] = rec
	st.next = (st.next + 1) % st.cap
	st.recorded++
}

// Trace returns every stored record with the given trace ID, ordered by
// start time. Nil-safe (returns nil).
func (st *Store) Trace(id string) []Record {
	if st == nil || id == "" {
		return nil
	}
	st.mu.Lock()
	var out []Record
	for i := 0; i < st.filled; i++ {
		idx := (st.next - st.filled + i + st.cap) % st.cap
		if st.buf[idx].Trace == id {
			out = append(out, st.buf[idx])
		}
	}
	st.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUnixNS < out[j].StartUnixNS })
	return out
}

// Snapshot returns every stored record, oldest first (span dumps).
func (st *Store) Snapshot() []Record {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, 0, st.filled)
	for i := 0; i < st.filled; i++ {
		out = append(out, st.buf[(st.next-st.filled+i+st.cap)%st.cap])
	}
	return out
}

// Stats is the store's accounting digest, surfaced in /v1/stats and the
// Prometheus exposition.
type Stats struct {
	Capacity int    `json:"capacity" metric:"rota_span_store_capacity" help:"Span ring-buffer bound (0 when span tracing is off)."`
	Live     int    `json:"live" metric:"rota_spans_live" help:"Finished spans currently held in the ring buffer."`
	Recorded uint64 `json:"recorded" metric:"rota_spans_recorded_total" help:"Spans recorded since start."`
	Evicted  uint64 `json:"evicted" metric:"rota_spans_evicted_total" help:"Spans overwritten to keep the store within its bound."`
}

// Stats returns the store's accounting. Nil-safe (all zeros).
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{Capacity: st.cap, Live: st.filled, Recorded: st.recorded, Evicted: st.evicted}
}

// Inject sets the outgoing span-parent header from the context's live
// span (or its propagated remote parent), so the receiving node's spans
// parent onto this side of the call.
func Inject(ctx context.Context, h http.Header) {
	if sp := FromContext(ctx); sp != nil {
		h.Set(obs.HeaderSpanParent, sp.ID())
		return
	}
	if p := obs.SpanParent(ctx); p != "" {
		h.Set(obs.HeaderSpanParent, p)
	}
}

// Detach returns a fresh context carrying only the parent's trace and
// span identity — none of its deadline or cancellation. Fire-and-forget
// work (the cluster's detached aborts) runs under a Detach'd context so
// it survives the triggering request's cancellation yet still parents
// correctly in the span tree. This is the fix for the PR 3 abort paths,
// which detached with the trace ID alone and orphaned their spans.
func Detach(parent context.Context) context.Context {
	ctx := context.Background()
	if id := obs.Trace(parent); id != "" {
		ctx = obs.WithTrace(ctx, id)
	}
	if sp := FromContext(parent); sp != nil {
		ctx = NewContext(ctx, sp)
	} else if p := obs.SpanParent(parent); p != "" {
		ctx = obs.WithSpanParent(ctx, p)
	}
	return ctx
}
