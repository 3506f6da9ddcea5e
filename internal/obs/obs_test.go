package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func fixedNow() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }

func TestLogKVFormat(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{Log: &buf, Node: "n1", NowFn: fixedNow})
	o.Log("admit.decision", "trace", "abc123", "job", "j1", "admit", true, "reason", "no free slot")
	got := buf.String()
	want := `ts=2026-01-02T03:04:05Z event=admit.decision node=n1 trace=abc123 job=j1 admit=true reason="no free slot"` + "\n"
	if got != want {
		t.Fatalf("kv line:\n got %q\nwant %q", got, want)
	}
}

func TestLogJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{Log: &buf, Format: FormatJSON, Node: "n2", NowFn: fixedNow})
	o.Log("ledger.reserve", "trace", "t1", "finish", int64(42), "admit", true)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("line is not JSON: %v (%q)", err, buf.String())
	}
	if obj["event"] != "ledger.reserve" || obj["node"] != "n2" || obj["trace"] != "t1" {
		t.Fatalf("JSON fields = %v", obj)
	}
	if v, ok := obj["finish"].(float64); !ok || v != 42 {
		t.Fatalf("finish survived as %T %v, want number 42", obj["finish"], obj["finish"])
	}
	if v, ok := obj["admit"].(bool); !ok || !v {
		t.Fatalf("admit survived as %T %v, want bool true", obj["admit"], obj["admit"])
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Log("anything", "k", "v") // must not panic
	if o.SlowThreshold() != 0 {
		t.Fatal("nil observer slow threshold != 0")
	}
	// A non-nil observer without a writer is equally inert.
	New(Options{}).Log("anything")
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LogFormat
		ok   bool
	}{{"", FormatKV, true}, {"kv", FormatKV, true}, {"JSON", FormatJSON, true}, {"xml", FormatKV, false}} {
		got, err := ParseFormat(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFormat(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestTracePropagation(t *testing.T) {
	ctx := WithTrace(context.Background(), "abc")
	if got := Trace(ctx); got != "abc" {
		t.Fatalf("Trace = %q", got)
	}
	if got := Trace(context.Background()); got != "" {
		t.Fatalf("Trace on untagged ctx = %q", got)
	}
	if id := MintID(); len(id) != 16 {
		t.Fatalf("MintID length = %d (%q)", len(id), id)
	}

	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set(HeaderTraceID, "inbound-1")
	if got := TraceFromRequest(r); got != "inbound-1" {
		t.Fatalf("TraceFromRequest = %q", got)
	}
	r.Header.Set(HeaderTraceID, strings.Repeat("x", 200))
	if got := TraceFromRequest(r); len(got) != 16 {
		t.Fatalf("oversized inbound trace not re-minted: %q", got)
	}
}

func TestInstrument(t *testing.T) {
	es := NewEndpointStats("admit")
	var seen string
	h := Instrument(es, func(w http.ResponseWriter, r *http.Request) {
		seen = Trace(r.Context())
		w.WriteHeader(http.StatusConflict)
	})

	r := httptest.NewRequest(http.MethodPost, "/v1/admit", nil)
	r.Header.Set(HeaderTraceID, "corr-1")
	w := httptest.NewRecorder()
	h(w, r)
	if seen != "corr-1" {
		t.Fatalf("handler saw trace %q, want corr-1", seen)
	}
	if got := w.Header().Get(HeaderTraceID); got != "corr-1" {
		t.Fatalf("response trace header = %q", got)
	}

	// No route nests inside another, so a request without the header
	// gets a freshly minted trace.
	r = httptest.NewRequest(http.MethodPost, "/v1/admit", nil)
	w = httptest.NewRecorder()
	h(w, r)
	if seen == "" || seen == "corr-1" || w.Header().Get(HeaderTraceID) != seen {
		t.Fatalf("headerless request saw trace %q, response header %q", seen, w.Header().Get(HeaderTraceID))
	}

	e := NewExposition()
	es.Collect(e, nil)
	var out bytes.Buffer
	if err := e.Render(&out); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(&out)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := MetricValue(m, "rota_http_requests_total", `{endpoint="admit",class="4xx"}`); !ok || v != 2 {
		t.Fatalf("4xx counter = %v, %v (metrics %v)", v, ok, m)
	}
	if _, ok := MetricValue(m, "rota_http_requests_total", `{endpoint="admit",class="2xx"}`); ok {
		t.Fatal("2xx class emitted with zero count")
	}
	if v, ok := MetricValue(m, "rota_http_request_latency_us_count", `{endpoint="admit"}`); !ok || v != 2 {
		t.Fatalf("latency count = %v, %v", v, ok)
	}
}
