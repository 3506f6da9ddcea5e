package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestExpositionGolden pins the exact rendered text format: HELP/TYPE
// once per family, samples in append order, label escaping, integral
// values without exponents, summaries as quantiles + _sum + _count.
func TestExpositionGolden(t *testing.T) {
	e := NewExposition()
	e.Counter("rota_test_total", "Things counted.", L("op", "a"), 1)
	e.Counter("rota_test_total", "ignored duplicate help", L("op", "b"), 2)
	e.Gauge("rota_depth", "Depth.", nil, 3)
	e.Gauge("rota_frac", "Fraction.", nil, 0.25)
	e.Counter("rota_escaped_total", "Escaping.", L("msg", "say \"hi\"\nback\\slash"), 7)
	e.Summary("rota_lat_us", "Latency.", nil,
		metrics.HistogramSummary{Count: 4, Mean: 2.5, P50: 2, P90: 4, P99: 4})

	var buf bytes.Buffer
	if err := e.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP rota_test_total Things counted.`,
		`# TYPE rota_test_total counter`,
		`rota_test_total{op="a"} 1`,
		`rota_test_total{op="b"} 2`,
		`# HELP rota_depth Depth.`,
		`# TYPE rota_depth gauge`,
		`rota_depth 3`,
		`# HELP rota_frac Fraction.`,
		`# TYPE rota_frac gauge`,
		`rota_frac 0.25`,
		`# HELP rota_escaped_total Escaping.`,
		`# TYPE rota_escaped_total counter`,
		`rota_escaped_total{msg="say \"hi\"\nback\\slash"} 7`,
		`# HELP rota_lat_us Latency.`,
		`# TYPE rota_lat_us summary`,
		`rota_lat_us{quantile="0.5"} 2`,
		`rota_lat_us{quantile="0.9"} 4`,
		`rota_lat_us{quantile="0.99"} 4`,
		`rota_lat_us_sum 10`,
		`rota_lat_us_count 4`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

type walkInner struct {
	Prepares uint64 `metric:"rota_ops_total,op=prepare" help:"Ops, by op."`
	Commits  uint64 `metric:"rota_ops_total,op=commit"`
}

type walkStats struct {
	Admitted uint64                   `json:"admitted" metric:"rota_admitted_total" help:"Admitted."`
	Depth    int64                    `metric:"rota_depth" help:"Depth."`
	Latency  metrics.HistogramSummary `metric:"rota_lat_us" help:"Latency."`
	Ops      walkInner
	Hidden   uint64    `metric:"-"`
	Skipped  walkInner `metric:"-"`
	Name     string
	private  int
	Added    uint64 `metric:"rota_added_total" help:"Added."` // a new stat: its tag alone puts it on the scrape
}

// TestStructWalker pins the tag rule: a tagged field is a sample with
// no other edit, the type follows from the field, labelled fields share
// one family, metric:"-" skips a field or a subtree, and non-numeric or
// unexported fields are not samples.
func TestStructWalker(t *testing.T) {
	e := NewExposition()
	e.Struct(walkStats{
		Admitted: 3, Depth: -2,
		Latency: metrics.HistogramSummary{Count: 2, Mean: 3, P50: 3, P90: 4, P99: 4},
		Ops:     walkInner{Prepares: 5, Commits: 4},
		Hidden:  9, Skipped: walkInner{Prepares: 9}, Name: "x", private: 9,
		Added: 1,
	})
	var buf bytes.Buffer
	if err := e.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP rota_admitted_total Admitted.`,
		`# TYPE rota_admitted_total counter`,
		`rota_admitted_total 3`,
		`# HELP rota_depth Depth.`,
		`# TYPE rota_depth gauge`,
		`rota_depth -2`,
		`# HELP rota_lat_us Latency.`,
		`# TYPE rota_lat_us summary`,
		`rota_lat_us{quantile="0.5"} 3`,
		`rota_lat_us{quantile="0.9"} 4`,
		`rota_lat_us{quantile="0.99"} 4`,
		`rota_lat_us_sum 6`,
		`rota_lat_us_count 2`,
		`# HELP rota_ops_total Ops, by op.`,
		`# TYPE rota_ops_total counter`,
		`rota_ops_total{op="prepare"} 5`,
		`rota_ops_total{op="commit"} 4`,
		`# HELP rota_added_total Added.`,
		`# TYPE rota_added_total counter`,
		`rota_added_total 1`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("walked exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStructWalkerPanicsOnUntaggedNumber: a number that would reach
// /v1/stats without a family is a programming error, caught on the
// first scrape any test takes.
func TestStructWalkerPanicsOnUntaggedNumber(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Untagged has no metric tag") {
			t.Fatalf("recovered %v, want the untagged-field panic", r)
		}
	}()
	NewExposition().Struct(struct {
		Tagged   uint64 `metric:"rota_ok_total"`
		Untagged uint64
	}{})
}

func TestParseMetricsRoundTrip(t *testing.T) {
	e := NewExposition()
	e.Counter("rota_a_total", "A.", nil, 5)
	e.Gauge("rota_b", "B.", L("x", "y"), 1.5)
	e.Summary("rota_c_us", "C.", nil, metrics.HistogramSummary{Count: 2, Mean: 3, P50: 3, P90: 3, P99: 3})
	var buf bytes.Buffer
	if err := e.Render(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`rota_a_total`:              5,
		`rota_b{x="y"}`:             1.5,
		`rota_c_us{quantile="0.5"}`: 3,
		`rota_c_us_sum`:             6,
		`rota_c_us_count`:           2,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("parsed[%q] = %v, %v; want %v", key, got, ok, want)
		}
	}

	if _, err := ParseMetrics(strings.NewReader("not a metric line\n")); err == nil {
		t.Fatal("unparsable line accepted")
	}
	if _, err := ParseMetrics(strings.NewReader("rota_x notanumber\n")); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

type fixedCollector struct{}

func (fixedCollector) CollectMetrics(e *Exposition) {
	e.Gauge("rota_fixed", "Fixed.", nil, 9)
}

func TestHandlerServesTextFormat(t *testing.T) {
	srv := httptest.NewServer(Handler(fixedCollector{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	m, err := ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := MetricValue(m, "rota_fixed", ""); !ok || v != 9 {
		t.Fatalf("scraped rota_fixed = %v, %v", v, ok)
	}
}
