package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/server"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/stats_surface.golden")

// TestStatsSurfaceGolden pins the shape of both stats surfaces — every
// /metrics family as name, TYPE, sorted label names and HELP, and every
// /v1/stats JSON key path — for a standalone server and a one-node
// cluster after one fixed script: an admitted job, a rejected job, a
// release, a prepare then commit, and one query. Values are left out.
// Rerun with -update after a deliberate change.
func TestStatsSurfaceGolden(t *testing.T) {
	var theta resource.Set
	theta.Add(resource.NewTerm(resource.FromUnits(16), resource.CPUAt("l1"), interval.New(0, 100)))
	srv, err := server.New(server.Config{Theta: theta, Assure: assure.New("solo")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	nd, err := New(Config{
		Self:           "n1",
		Peers:          []Peer{{ID: "n1", URL: "http://127.0.0.1:1", Locations: []resource.Location{"l1"}}},
		Server:         server.Config{Theta: theta, Assure: assure.New("n1")},
		GossipInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Shutdown(context.Background()) })

	var got strings.Builder
	for _, h := range []http.Handler{srv, nd} {
		serve(t, h, http.MethodPost, "/v1/admit", pinnedJob(t, "ok", "l1", 64))
		serve(t, h, http.MethodPost, "/v1/admit", pinnedJob(t, "no", "l1", 1))
		serve(t, h, http.MethodPost, "/v1/release", map[string]string{"name": "ok"})
		serve(t, h, http.MethodPost, "/v1/cluster/prepare", server.PrepareRequest{
			Key: "k1", Name: "held", Demand: "1:cpu@l1:(0,10)", Finish: 10, Deadline: 20, Expiry: 50})
		serve(t, h, http.MethodPost, "/v1/cluster/commit", server.FinishRequest{Key: "k1"})
		serve(t, h, http.MethodGet, "/v1/query?q="+url.QueryEscape("holds(l1, cpu>=1, next 1)"), nil)
		fmt.Fprintf(&got, "# %T\n%s", h, surfaceShape(t,
			serve(t, h, http.MethodGet, "/metrics", nil), serve(t, h, http.MethodGet, "/v1/stats", nil)))
	}

	const path = "testdata/stats_surface.golden"
	if *updateSurface {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("stats surface drifted from %s (rerun with -update if deliberate):\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// serve runs one request through h and fails on a non-200 answer.
func serve(t *testing.T, h http.Handler, method, path string, body any) string {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// labelName matches one label name in a rendered sample; no label value
// rota renders contains `="`.
var labelName = regexp.MustCompile(`(\w+)="`)

// surfaceShape renders one sorted line per exposition family ("metric
// name TYPE [labels] HELP") and per stats JSON key path ("json path",
// array elements under "[]").
func surfaceShape(t *testing.T, metricsText, statsJSON string) string {
	t.Helper()
	help, typ, labels := map[string]string{}, map[string]string{}, map[string]map[string]bool{}
	var fam string
	for _, line := range strings.Split(metricsText, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			fam, typ[name], labels[name] = name, kind, map[string]bool{}
		} else if line != "" {
			for _, m := range labelName.FindAllStringSubmatch(line, -1) {
				labels[fam][m[1]] = true
			}
		}
	}
	var lines []string
	for name, set := range labels {
		names := []string{}
		for l := range set {
			names = append(names, l)
		}
		sort.Strings(names)
		lines = append(lines, fmt.Sprintf("metric %s %s [%s] %s", name, typ[name], strings.Join(names, ","), help[name]))
	}

	var v any
	if err := json.Unmarshal([]byte(statsJSON), &v); err != nil {
		t.Fatal(err)
	}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				lines = append(lines, "json "+prefix+k)
				walk(prefix+k+".", child)
			}
		case []any:
			for _, child := range x {
				walk(strings.TrimSuffix(prefix, ".")+"[].", child)
			}
		}
	}
	walk("", v)
	sort.Strings(lines)
	return strings.Join(slices.Compact(lines), "\n") + "\n"
}
