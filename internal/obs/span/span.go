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
	"fmt"
	"net/http"
	"sort"
	"strconv"
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
	rec   record
	begun time.Time // monotonic
	ended bool
}

// maxAttrs is how many attributes a span holds inline. The admit span,
// the widest on the request path, sets five; a span that sets more
// keeps the rest in an overflow slice.
const maxAttrs = 5

// attrKind says which field of an attr holds its value.
type attrKind uint8

const (
	attrString attrKind = iota // str
	attrInt                    // num
	attrBool                   // num != 0
)

// attr is one typed span attribute. It is rendered to the string Record
// carries only when the record is read.
type attr struct {
	key  string
	str  string
	num  int64
	kind attrKind
}

func (a attr) String() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// record is a span as the ring holds it: Record's fields, less the
// store-wide node, with the attributes still typed.
type record struct {
	trace, id, parent, kind, status string
	startUnixNS, durationUS         int64
	provenance                      *Provenance
	attrs                           [maxAttrs]attr
	nattrs                          int
	more                            []attr // attributes past maxAttrs
}

// set adds or, for a key already set, replaces one attribute.
func (r *record) set(a attr) {
	for i := range r.attrs[:r.nattrs] {
		if r.attrs[i].key == a.key {
			r.attrs[i] = a
			return
		}
	}
	for i := range r.more {
		if r.more[i].key == a.key {
			r.more[i] = a
			return
		}
	}
	if r.nattrs < maxAttrs {
		r.attrs[r.nattrs] = a
		r.nattrs++
		return
	}
	r.more = append(r.more, a)
}

// export renders the record as the Record readers see, formatting its
// attributes into the Attrs map.
func (r *record) export(node string) Record {
	out := Record{
		Trace:       r.trace,
		ID:          r.id,
		Parent:      r.parent,
		Kind:        r.kind,
		Node:        node,
		StartUnixNS: r.startUnixNS,
		DurationUS:  r.durationUS,
		Status:      r.status,
		Provenance:  r.provenance,
	}
	if n := r.nattrs + len(r.more); n > 0 {
		out.Attrs = make(map[string]string, n)
		for _, a := range r.attrs[:r.nattrs] {
			out.Attrs[a.key] = a.String()
		}
		for _, a := range r.more {
			out.Attrs[a.key] = a.String()
		}
	}
	return out
}

// DefaultCapacity is the span store's bound when none is configured.
const DefaultCapacity = 4096

// Store is a bounded in-memory ring buffer of finished spans. When the
// buffer is full the oldest record is overwritten and the eviction
// counter incremented, so the store's footprint is fixed however much
// traffic the daemon serves. The ring holds typed records by value;
// attributes are formatted only when a reader asks for them.
type Store struct {
	node string
	cap  int

	mu       sync.Mutex
	buf      []record
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
	return &Store{node: node, cap: capacity, buf: make([]record, capacity)}
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
		// A span's trace and ID never change after Start.
		trace, parent = p.rec.trace, p.rec.id
	} else {
		trace = obs.Trace(ctx)
		parent = obs.SpanParent(ctx)
	}
	if trace == "" {
		trace = obs.MintID()
	}
	now := time.Now()
	sp := &Span{store: st, begun: now}
	sp.rec.trace, sp.rec.id, sp.rec.parent, sp.rec.kind = trace, obs.MintID(), parent, kind
	sp.rec.startUnixNS = now.UnixNano()
	return NewContext(ctx, sp), sp
}

// ID returns the span's ID ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.rec.id
}

// TraceID returns the span's trace ID ("" on nil).
//
// Kept: span's tests of minted trace IDs.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.trace
}

// Attr sets one span attribute. Strings, ints and bools are kept typed
// and rendered when the record is read; any other value is rendered
// with %v now. Boxing a string or an int past 255 into value allocates,
// so the request path sets those through Str and Int, which do not.
func (s *Span) Attr(key string, value any) {
	switch v := value.(type) {
	case string:
		s.Str(key, v)
	case int:
		s.Int(key, int64(v))
	case int64:
		s.Int(key, v)
	case bool:
		a := attr{key: key, kind: attrBool}
		if v {
			a.num = 1
		}
		s.set(a)
	default:
		if s != nil {
			s.set(attr{key: key, str: fmt.Sprint(v)})
		}
	}
}

// Str sets a string attribute.
func (s *Span) Str(key, value string) { s.set(attr{key: key, str: value}) }

// Int sets an integer attribute.
func (s *Span) Int(key string, value int64) { s.set(attr{key: key, kind: attrInt, num: value}) }

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.set(a)
	}
}

// SetStatus marks the span's terminal status (ok, reject, error).
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rec.status = status
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
		s.rec.provenance = p
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
	s.rec.durationUS = time.Since(s.begun).Microseconds()
	if s.rec.status == "" {
		s.rec.status = StatusOK
	}
	s.mu.Unlock()
	// Sealed: nothing writes s.rec after ended is set.
	s.store.add(&s.rec)
}

func (st *Store) add(rec *record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.filled == st.cap {
		st.evicted++
	} else {
		st.filled++
	}
	st.buf[st.next] = *rec
	st.next = (st.next + 1) % st.cap
	st.recorded++
}

// at returns the i-th held record, oldest first. Caller holds st.mu.
func (st *Store) at(i int) *record {
	return &st.buf[(st.next-st.filled+i+st.cap)%st.cap]
}

// Trace returns every stored record with the given trace ID, ordered by
// start time. Nil-safe (returns nil).
func (st *Store) Trace(id string) []Record {
	if st == nil || id == "" {
		return nil
	}
	var hits []record
	st.mu.Lock()
	for i := 0; i < st.filled; i++ {
		if r := st.at(i); r.trace == id {
			hits = append(hits, *r)
		}
	}
	st.mu.Unlock()
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].startUnixNS < hits[j].startUnixNS })
	return st.render(hits)
}

// Snapshot returns every stored record, oldest first (span dumps).
func (st *Store) Snapshot() []Record {
	return st.Recent(-1)
}

// Recent returns the newest n stored records (all of them when n < 0),
// oldest first. Nil-safe (returns nil).
func (st *Store) Recent(n int) []Record {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	if n < 0 || n > st.filled {
		n = st.filled
	}
	recs := make([]record, n)
	for i := range recs {
		recs[i] = *st.at(st.filled - n + i)
	}
	st.mu.Unlock()
	return st.render(recs)
}

// render formats records copied out of the ring. It runs outside
// st.mu, so formatting never holds up End.
func (st *Store) render(recs []record) []Record {
	if recs == nil {
		return nil
	}
	out := make([]Record, len(recs))
	for i := range recs {
		out[i] = recs[i].export(st.node)
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
