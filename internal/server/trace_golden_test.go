package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

var updateTraceDump = flag.Bool("update-trace-dump", false, "rewrite testdata/trace_dump.golden")

// TestTraceDumpGolden pins the GET /debug/rota/trace/{id} body of one
// admitted job (admit → validate, plan, reserve) and one rejected job
// with its provenance, byte for byte. Span IDs are renamed s1, s2, … in
// the order the normalised dump lists them, parents follow their
// renames, and every wall-clock field — start, duration and the
// queue_wait_us attribute — is zeroed. Spans are listed by kind so ties
// in start time cannot reorder the dump. Rerun with -update-trace-dump
// after a deliberate change.
func TestTraceDumpGolden(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(2, 64, "l1"), Workers: 1, DecisionTimeout: 5 * time.Second,
		Spans: span.NewStore(64, "n1")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })

	var got strings.Builder
	for _, c := range []struct{ trace, body string }{
		{"golden-admit", admitBody(t, cpuJob(t, "ok job", "l1", 0, 64))},
		{"golden-reject", admitBody(t, cpuJob(t, "tight", "l1", 0, 2))},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/admit", strings.NewReader(c.body))
		req.Header.Set(obs.HeaderTraceID, c.trace)
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: admit answered %d %s", c.trace, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/rota/trace/"+c.trace, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: trace dump answered %d %s", c.trace, rec.Code, rec.Body)
		}
		fmt.Fprintf(&got, "%s %s\n", c.trace, normaliseDump(t, rec.Body.Bytes()))
	}

	const path = "testdata/trace_dump.golden"
	if *updateTraceDump {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("trace dump drifted from %s (rerun with -update-trace-dump if deliberate):\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// normaliseDump decodes a span.Dump, strips what varies run to run and
// re-encodes it with the daemon's own encoding.
func normaliseDump(t *testing.T, body []byte) string {
	t.Helper()
	var d span.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	sort.SliceStable(d.Spans, func(i, j int) bool { return d.Spans[i].Kind < d.Spans[j].Kind })
	ids := map[string]string{}
	rename := func(id string) string {
		if id == "" {
			return ""
		}
		if _, ok := ids[id]; !ok {
			ids[id] = fmt.Sprintf("s%d", len(ids)+1)
		}
		return ids[id]
	}
	for i := range d.Spans {
		r := &d.Spans[i]
		r.ID = rename(r.ID)
		r.StartUnixNS, r.DurationUS = 0, 0
		if _, ok := r.Attrs["queue_wait_us"]; ok {
			r.Attrs["queue_wait_us"] = "0"
		}
	}
	for i := range d.Spans {
		d.Spans[i].Parent = rename(d.Spans[i].Parent)
	}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
