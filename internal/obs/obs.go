// Package obs is rotad's observability layer: structured (key=value or
// JSON) event logging with per-request trace correlation, a hand-rolled
// Prometheus text-format exposition builder, and per-endpoint HTTP
// instrumentation. The runtime packages (internal/server,
// internal/cluster) thread one Observer through every decision,
// reservation, lease expiry and peer RPC, so a running node's resource
// events are first-class, scrapeable, correlatable signals rather than
// ad-hoc JSON digests.
//
// The paper treats resource consumption as observable behaviour over
// time; this package is that stance applied to the daemon itself — every
// Theorem-4 check, every committed-path reservation and every open-system
// churn event leaves a timestamped, trace-correlated record.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// HeaderTraceID is the HTTP header carrying a request's trace ID across
// forwarding, two-phase coordination, gossip and migration. A request
// arriving without one is minted a fresh ID; the header is echoed on
// every response so clients can correlate too.
const HeaderTraceID = "X-Rota-Trace-Id"

// HeaderSpanParent is the HTTP header carrying the caller's span ID
// across peer RPCs, so the receiving node's spans parent onto the
// calling side and one federated admission yields a single connected
// span tree. It lives here (not in internal/obs/span) so Instrument can
// lift it into the context without importing the span package.
const HeaderSpanParent = "X-Rota-Span"

// LogFormat selects the wire shape of emitted event lines.
type LogFormat int

const (
	// FormatKV renders logfmt-style lines: ts=... event=... k=v ...
	FormatKV LogFormat = iota
	// FormatJSON renders one JSON object per line.
	FormatJSON
)

// ParseFormat maps a flag value ("kv", "json") to a LogFormat.
func ParseFormat(s string) (LogFormat, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "kv", "logfmt", "text":
		return FormatKV, nil
	case "json":
		return FormatJSON, nil
	default:
		return FormatKV, fmt.Errorf("obs: unknown log format %q (want kv or json)", s)
	}
}

// Options parameterizes an Observer.
type Options struct {
	// Log receives one event per line; nil disables event logging (the
	// metrics side of the Observer still works).
	Log io.Writer
	// Format selects kv (default) or JSON lines.
	Format LogFormat
	// Node tags every line with the emitting node's ID (cluster mode).
	Node string
	// SlowDecision is the slow-decision tracer threshold: admission
	// decisions slower than this log their job, footprint and per-phase
	// timings. Zero disables the tracer.
	SlowDecision time.Duration
	// NowFn overrides the timestamp source (tests); nil means time.Now.
	NowFn func() time.Time
}

// Observer is the shared observability sink. All methods are safe for
// concurrent use and safe on a nil receiver (a nil *Observer is the
// "observability off" object), so call sites never need nil checks.
type Observer struct {
	mu    sync.Mutex
	w     io.Writer
	fmt   LogFormat
	node  string
	slow  time.Duration
	nowFn func() time.Time
}

// New builds an Observer from Options.
func New(opts Options) *Observer {
	o := &Observer{w: opts.Log, fmt: opts.Format, node: opts.Node, slow: opts.SlowDecision, nowFn: opts.NowFn}
	if o.nowFn == nil {
		o.nowFn = time.Now
	}
	return o
}

// SlowThreshold returns the slow-decision tracer threshold (0 when
// disabled or the observer is nil).
func (o *Observer) SlowThreshold() time.Duration {
	if o == nil {
		return 0
	}
	return o.slow
}

// Log emits one structured event line. kv is alternating key, value
// pairs; values are rendered with %v (or JSON-encoded in JSON mode). A
// nil observer, a nil writer, or an odd trailing key are all tolerated.
// A kv line is appended into a pooled buffer and written once.
func (o *Observer) Log(event string, kv ...any) {
	if o == nil || o.w == nil {
		return
	}
	ts := o.nowFn().UTC()
	if o.fmt == FormatJSON {
		obj := make(map[string]any, len(kv)/2+3)
		obj["ts"] = ts.Format(time.RFC3339Nano)
		obj["event"] = event
		if o.node != "" {
			obj["node"] = o.node
		}
		for i := 0; i+1 < len(kv); i += 2 {
			obj[fmt.Sprintf("%v", kv[i])] = jsonValue(kv[i+1])
		}
		line, _ := json.Marshal(obj)
		line = append(line, '\n')
		o.write(line)
		return
	}
	bp := linePool.Get().(*[]byte)
	line := appendKVLine((*bp)[:0], ts, event, o.node, kv)
	o.write(line)
	if cap(line) <= maxPooledLine {
		*bp = line
		linePool.Put(bp)
	}
}

func (o *Observer) write(line []byte) {
	o.mu.Lock()
	_, _ = o.w.Write(line)
	o.mu.Unlock()
}

// linePool recycles kv line buffers; a line longer than maxPooledLine
// is left to the collector rather than pinned in the pool.
var linePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

const maxPooledLine = 4 << 10

// appendKVLine appends one logfmt line: ts, event and node first, then
// the kv pairs, each key and value rendered as %v would and quoted when
// kvNeedsQuote (values) or hasControl (keys) says so.
func appendKVLine(b []byte, ts time.Time, event, node string, kv []any) []byte {
	b = append(b, "ts="...)
	b = ts.AppendFormat(b, time.RFC3339Nano)
	b = append(b, " event="...)
	b = appendKVValue(b, event)
	if node != "" {
		b = append(b, " node="...)
		b = appendKVValue(b, node)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		b = append(b, ' ')
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if hasControl(key) {
			b = strconv.AppendQuote(b, key)
		} else {
			b = append(b, key...)
		}
		b = append(b, '=')
		switch v := kv[i+1].(type) {
		case string:
			b = appendKVValue(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case bool:
			b = strconv.AppendBool(b, v)
		default:
			b = appendKVValue(b, fmt.Sprint(v))
		}
	}
	return append(b, '\n')
}

// jsonValue keeps JSON-native types as-is and stringifies the rest, so
// numbers and booleans survive into the JSON line unquoted.
func jsonValue(v any) any {
	switch v.(type) {
	case nil, bool, string,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, json.Number:
		return v
	default:
		if _, ok := v.(fmt.Stringer); ok {
			return fmt.Sprintf("%v", v)
		}
		if _, ok := v.(error); ok {
			return fmt.Sprintf("%v", v)
		}
		return v
	}
}

// appendKVValue appends a logfmt value, quoted (as %q would) when
// kvNeedsQuote says so.
func appendKVValue(b []byte, s string) []byte {
	if kvNeedsQuote(s) {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// kvNeedsQuote reports whether a logfmt value must be quoted: it is
// empty, holds a space, quote or equals sign that would split the line,
// or holds a control character or invalid UTF-8 that must not reach a
// terminal or the flight recorder raw.
func kvNeedsQuote(s string) bool {
	return s == "" || strings.ContainsAny(s, " \"=") || hasControl(s)
}

// hasControl reports whether s holds a control character — C0, DEL or
// C1 — or a byte that is not UTF-8.
func hasControl(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == 0x7f {
				return true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r <= 0x9f {
			return true
		}
		i += size
	}
	return false
}

// MintID returns a fresh trace or span ID: 16 lowercase hex characters
// of the runtime's OS-seeded generator, formatted without an
// intermediate buffer, so an ID costs one string allocation.
func MintID() string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	x := rand.Uint64()
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = digits[x&0xf]
		x >>= 4
	}
	return string(buf[:])
}

// traceKey is the context key carrying a request's trace ID.
type traceKey struct{}

// WithTrace returns ctx tagged with the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// Trace extracts the trace ID from ctx ("" when absent).
func Trace(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// TraceFromRequest reads the request's trace header, minting a fresh ID
// when absent or oversized (a peer cannot make us log unbounded bytes).
func TraceFromRequest(r *http.Request) string {
	id := r.Header.Get(HeaderTraceID)
	if id == "" || len(id) > 128 {
		return MintID()
	}
	return id
}

// spanParentKey is the context key carrying the remote parent span ID a
// peer propagated in HeaderSpanParent. The span package consumes it
// when it starts the first span of a handled request.
type spanParentKey struct{}

// WithSpanParent returns ctx tagged with a remote parent span ID.
func WithSpanParent(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, spanParentKey{}, id)
}

// SpanParent extracts the remote parent span ID from ctx ("" when absent).
func SpanParent(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(spanParentKey{}).(string)
	return id
}

// SpanParentFromRequest reads the request's span-parent header,
// discarding oversized values (same bound as trace IDs).
func SpanParentFromRequest(r *http.Request) string {
	id := r.Header.Get(HeaderSpanParent)
	if len(id) > 128 {
		return ""
	}
	return id
}
