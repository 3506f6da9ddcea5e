package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Prometheus text-format exposition, hand-rolled over the repo's own
// metrics primitives — no external client library. An Exposition is
// built per scrape: collectors walk their tagged stats structs (Struct)
// and append the few families that are not stats scalars, Render
// writes the canonical text format. HELP/TYPE lines are emitted once
// per family however many label sets sample it, which is what lets the
// server and cluster layers contribute samples to shared families.

// Labels is an ordered set of label pairs. Order is preserved in the
// rendered sample so golden tests are byte-stable.
type Labels []Label

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a single-label Labels.
func L(name, value string) Labels { return Labels{{Name: name, Value: value}} }

// With appends a label pair, returning a new Labels (the receiver is
// not mutated, so a base label set can be shared).
func (ls Labels) With(name, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	out = append(out, ls...)
	return append(out, Label{Name: name, Value: value})
}

func (ls Labels) render(b *strings.Builder) {
	if len(ls) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// family is one metric family: HELP/TYPE plus its samples in append
// order.
type family struct {
	name    string
	help    string
	typ     string
	samples []sample
}

type sample struct {
	suffix string // "", "_sum", "_count", ...
	labels Labels
	value  float64
}

// Exposition accumulates metric families for one scrape.
type Exposition struct {
	families []*family
	byName   map[string]*family
}

// NewExposition builds an empty exposition.
func NewExposition() *Exposition {
	return &Exposition{byName: make(map[string]*family)}
}

func (e *Exposition) fam(name, typ, help string) *family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	e.byName[name] = f
	e.families = append(e.families, f)
	return f
}

// Counter appends one counter sample. The family's HELP/TYPE are taken
// from the first call naming it.
func (e *Exposition) Counter(name, help string, labels Labels, v float64) {
	f := e.fam(name, "counter", help)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// Gauge appends one gauge sample.
func (e *Exposition) Gauge(name, help string, labels Labels, v float64) {
	f := e.fam(name, "gauge", help)
	f.samples = append(f.samples, sample{labels: labels, value: v})
}

// Summary appends a full summary family entry (quantiles + _sum +
// _count) from a histogram digest.
func (e *Exposition) Summary(name, help string, labels Labels, s metrics.HistogramSummary) {
	f := e.fam(name, "summary", help)
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.99", s.P99}} {
		f.samples = append(f.samples, sample{labels: labels.With("quantile", q.q), value: q.v})
	}
	f.samples = append(f.samples,
		sample{suffix: "_sum", labels: labels, value: s.Mean * float64(s.Count)},
		sample{suffix: "_count", labels: labels, value: float64(s.Count)})
}

var summaryType = reflect.TypeOf(metrics.HistogramSummary{})

// Struct appends one sample per numeric field of the stats struct v,
// walking nested structs, so /metrics renders from the same snapshot
// /v1/stats serves. Each exported number names its family in a tag —
// `metric:"rota_x_total"`, or `metric:"rota_x_total,op=prepare"` when
// several fields share one labelled family — and the first field of a
// family carries its `help:"…"` text. The type follows from the field:
// a metrics.HistogramSummary is a summary, a name ending in _total a
// counter, any other number a gauge. `metric:"-"` skips a field or a
// whole subtree; non-numeric fields are not samples. An exported number
// with no tag panics, like span.defineKind: a stat cannot reach
// /v1/stats without a family, so every /metrics test is the lint.
func (e *Exposition) Struct(v any) {
	e.walk(reflect.Indirect(reflect.ValueOf(v)))
}

func (e *Exposition) walk(v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		tag := f.Tag.Get("metric")
		if !f.IsExported() || tag == "-" {
			continue
		}
		var val float64
		switch {
		case f.Type == summaryType:
		case f.Type.Kind() == reflect.Struct:
			e.walk(fv)
			continue
		case fv.CanInt():
			val = float64(fv.Int())
		case fv.CanUint():
			val = float64(fv.Uint())
		case fv.CanFloat():
			val = fv.Float()
		default:
			continue
		}
		if tag == "" {
			panic(fmt.Sprintf("obs: stat %s.%s has no metric tag: name its family or tag it metric:\"-\"", t, f.Name))
		}
		parts := strings.Split(tag, ",")
		name, labels := parts[0], Labels(nil)
		for _, kv := range parts[1:] {
			k, lv, _ := strings.Cut(kv, "=")
			labels = labels.With(k, lv)
		}
		help := f.Tag.Get("help")
		switch {
		case f.Type == summaryType:
			e.Summary(name, help, labels, fv.Interface().(metrics.HistogramSummary))
		case strings.HasSuffix(name, "_total"):
			e.Counter(name, help, labels, val)
		default:
			e.Gauge(name, help, labels, val)
		}
	}
}

// Render writes the exposition in Prometheus text format.
func (e *Exposition) Render(w io.Writer) error {
	var b strings.Builder
	for _, f := range e.families {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			s.labels.render(&b)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample value: integral values without an
// exponent, everything else via %g (matching common client output).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Collector fills an exposition; server and cluster nodes implement it.
type Collector interface {
	CollectMetrics(e *Exposition)
}

// Handler serves GET /metrics for a Collector.
func Handler(c Collector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := NewExposition()
		c.CollectMetrics(e)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = e.Render(w)
	}
}

// ParseMetrics reads a Prometheus text-format stream into a flat map
// keyed by "name{label="v",...}" exactly as rendered. The load
// generator uses it to scrape a live node's /metrics; tests use it to
// assert on exposition contents.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparsable metrics line %q", line)
		}
		key := strings.TrimSpace(line[:sp])
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("obs: unparsable value in %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// MetricValue looks up a parsed sample by family name and optional
// rendered label block (pass "" for an unlabelled sample).
func MetricValue(m map[string]float64, name, labelBlock string) (float64, bool) {
	v, ok := m[name+labelBlock]
	return v, ok
}

// EndpointStats instruments one HTTP endpoint: request counts by status
// class plus a latency histogram. Safe for concurrent use.
type EndpointStats struct {
	endpoint  string
	classes   [6]atomic.Uint64 // index = status/100, 0 unused
	latencyUS *metrics.Histogram
}

// NewEndpointStats builds a recorder for the named endpoint.
func NewEndpointStats(endpoint string) *EndpointStats {
	return &EndpointStats{endpoint: endpoint, latencyUS: metrics.NewHistogram()}
}

// Observe records one served request.
func (es *EndpointStats) Observe(status int, d time.Duration) {
	cls := status / 100
	if cls < 1 || cls > 5 {
		cls = 5
	}
	es.classes[cls].Add(1)
	es.latencyUS.Observe(float64(d.Microseconds()))
}

// Collect appends this endpoint's families to the exposition. base is
// prepended to the endpoint label (layer tagging in cluster mode).
func (es *EndpointStats) Collect(e *Exposition, base Labels) {
	labels := base.With("endpoint", es.endpoint)
	for cls := 1; cls <= 5; cls++ {
		if n := es.classes[cls].Load(); n > 0 {
			e.Counter("rota_http_requests_total", "HTTP requests served, by endpoint and status class.",
				labels.With("class", fmt.Sprintf("%dxx", cls)), float64(n))
		}
	}
	e.Summary("rota_http_request_latency_us", "HTTP request service latency in microseconds, by endpoint.",
		labels, es.latencyUS.Summary())
}

// statusWriter captures the response status for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush delegates to the underlying writer so streaming handlers (the
// /v1/watch SSE stream) keep working through the instrumentation wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps a handler with per-endpoint stats and trace
// correlation: the request's trace ID (minted when absent) is placed in
// the context and echoed in the response header before next runs.
func Instrument(es *EndpointStats, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		trace := TraceFromRequest(r)
		w.Header().Set(HeaderTraceID, trace)
		ctx := WithTrace(r.Context(), trace)
		// Lift the caller's span ID (if any) into the context so the
		// first span this handler starts parents onto the calling side.
		if parent := SpanParentFromRequest(r); parent != "" {
			ctx = WithSpanParent(ctx, parent)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		es.Observe(sw.status, time.Since(start))
	}
}

// SortedEndpoints renders a deterministic collection order for a map of
// endpoint recorders.
func SortedEndpoints(m map[string]*EndpointStats) []*EndpointStats {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*EndpointStats, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}
