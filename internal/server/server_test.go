package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, theta resource.Set) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Theta: theta, Workers: 4, DecisionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return srv, ts
}

func postBody(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func admitBody(t *testing.T, job workload.Job) string {
	t.Helper()
	b, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Acquiring capacity never turns a holds query false. Availability that
// runs to Infinity integrates to the largest Quantity, not past it into
// a negative one.
func TestAcquireToInfinityKeepsHolds(t *testing.T) {
	theta, err := resource.ParseSet("3:cpu@l1:(0,64)")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Theta: theta, Workers: 1, DecisionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	holds := func() bool {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?q="+url.QueryEscape("holds(l1, cpu>=1)"), nil))
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
		return qr.Holds
	}
	if !holds() {
		t.Fatal("holds(l1, cpu>=1) is false on 3 cpu over (0,64)")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/acquire", strings.NewReader(`{"theta":"3:cpu@l1:(64,+inf)"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("acquire: %d %s", rec.Code, rec.Body)
	}
	if !holds() {
		t.Fatal("holds(l1, cpu>=1) turned false when 3 cpu more were acquired over (64,+inf)")
	}
}

func TestServerEndToEnd(t *testing.T) {
	theta := cpuTheta(2, 64, "l1", "l2")
	srv, ts := newTestServer(t, theta)

	// Admit a feasible job.
	resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "e2e-1", "l1", 0, 64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d %s", resp.StatusCode, body)
	}
	var ar AdmitResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Admit || ar.Finish <= 0 || ar.Job != "e2e-1" {
		t.Fatalf("admit response = %+v", ar)
	}

	// The commitment is queryable.
	qr, err := http.Get(ts.URL + "/v1/query?name=e2e-1")
	if err != nil || qr.StatusCode != http.StatusOK {
		t.Fatalf("query: %v %d", err, qr.StatusCode)
	}
	qr.Body.Close()

	// An infeasible job is rejected, not errored.
	resp, body = postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "e2e-big", "l1", 0, 2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reject admit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Admit || ar.Reason == "" {
		t.Fatalf("infeasible job: %+v", ar)
	}

	// Duplicate names conflict.
	resp, _ = postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "e2e-1", "l1", 0, 64)))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate admit: %d", resp.StatusCode)
	}

	// Acquire opens capacity on a brand-new shard.
	resp, body = postBody(t, ts.URL+"/v1/acquire", `{"theta":"2000:cpu@l9:(0,64)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire: %d %s", resp.StatusCode, body)
	}
	resp, body = postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "e2e-l9", "l9", 0, 64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit on acquired shard: %d %s", resp.StatusCode, body)
	}

	// Release frees e2e-1.
	resp, _ = postBody(t, ts.URL+"/v1/release", `{"name":"e2e-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: %d", resp.StatusCode)
	}
	resp, _ = postBody(t, ts.URL+"/v1/release", `{"name":"e2e-1"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double release: %d", resp.StatusCode)
	}

	// Advance completes e2e-l9 eventually.
	resp, body = postBody(t, ts.URL+"/v1/advance", `{"now":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %d %s", resp.StatusCode, body)
	}
	resp, _ = postBody(t, ts.URL+"/v1/advance", `{"now":3}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("backward advance: %d", resp.StatusCode)
	}

	// Stats are consistent: decisions == admitted + rejected.
	st := srv.Stats()
	if st.Decisions != st.Admitted+st.Rejected {
		t.Fatalf("stats accounting: %+v", st)
	}
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("admitted/rejected = %d/%d, want 2/1", st.Admitted, st.Rejected)
	}
	if st.DecisionLatencyUS.Count != 3 {
		t.Fatalf("latency count = %d", st.DecisionLatencyUS.Count)
	}
	mustAudit(t, srv.Ledger())

	// The stats endpoint serves the same digest.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("stats endpoint: %v", err)
	}
	var wire StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if wire.Decisions != st.Decisions || wire.Admitted != st.Admitted {
		t.Fatalf("wire stats %+v != %+v", wire, st)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, cpuTheta(2, 64, "l1"))
	cases := []struct {
		path, body string
	}{
		{"/v1/admit", `not json`},
		{"/v1/admit", `{"Dist":{"Name":"","Start":0,"Deadline":5},"Arrival":0}`},
		{"/v1/admit", `{"Dist":{"Name":"j","Start":9,"Deadline":5},"Arrival":0}`},
		{"/v1/release", `not json`},
		{"/v1/release", `{}`},
		{"/v1/acquire", `{"theta":"garbage::("}`},
		{"/v1/advance", `not json`},
	}
	for _, tc := range cases {
		resp, body := postBody(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d body %s", tc.path, tc.body, resp.StatusCode, body)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/admit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/admit = %d", resp.StatusCode)
	}
}

// In cluster mode /v1/acquire reaches the embedded server unrouted, so
// the handler itself must refuse availability for a location the node
// does not own — 422 like prepare and free, with the ledger untouched.
// A name with a space — an actor's or a location's — keeps its reject
// provenance: the witness failure names the located type and window.
func TestRejectProvenanceNamesWithSpaces(t *testing.T) {
	_, ts := newTestServer(t, cpuTheta(2, 64, "l1", "rack 1"))
	for _, c := range []struct {
		job  workload.Job
		term string
	}{
		{cpuJob(t, "big job", "l1", 0, 2), "⟨cpu,l1⟩"},
		{cpuJob(t, "r1", "rack 1", 0, 2), "⟨cpu,rack 1⟩"},
	} {
		resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, c.job))
		var verdict AdmitResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &verdict) != nil || verdict.Admit {
			t.Fatalf("admit %s: %d %s", c.job.Dist.Name, resp.StatusCode, body)
		}
		p := verdict.Provenance
		if p == nil || p.Stage != "plan" || p.Constraint != "witness" || p.Term != c.term || p.Window != "(0,2)" {
			t.Errorf("%s: provenance %+v, want plan/witness term=%s window=(0,2)", c.job.Dist.Name, p, c.term)
		}
	}
}

func TestAcquireRefusesUnownedLocation(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(2, 64, "l1"), Owned: []resource.Location{"l1"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	}()

	resp, body := postBody(t, ts.URL+"/v1/acquire", `{"theta":"1:cpu@l2:(0,64)"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("acquire for unowned l2: %d %s, want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not owned") {
		t.Errorf("422 body %s does not name the ownership refusal", body)
	}
	if got := srv.Ledger().NumShards(); got != 1 {
		t.Errorf("shards = %d after the refusal, want 1 (no phantom l2)", got)
	}

	resp, body = postBody(t, ts.URL+"/v1/acquire", `{"theta":"1:cpu@l1:(0,64)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire for owned l1: %d %s", resp.StatusCode, body)
	}
	if err := srv.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(2, 64, "l1"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, _ := postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "pre", "l1", 0, 64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown admit: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// New admissions are refused; health reports draining.
	resp, _ = postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "post", "l1", 0, 64)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown admit: %d", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", hr.StatusCode)
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A Shutdown whose ctx ran out before the drain finished must not make a
// later call return early: every call waits for the admits in flight.
func TestShutdownAfterInterruptedDrainWaits(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(2, 64, "l1"), Workers: 1, DecisionTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	srv.Ledger().testPostPlanHook = func() {
		close(entered)
		<-release
	}
	body := admitBody(t, cpuJob(t, "held", "l1", 0, 64))
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admit", strings.NewReader(body)))
		code <- rec.Code
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		close(release)
		t.Fatal("Shutdown returned nil while an admit was still deciding")
	}
	second := make(chan error, 1)
	go func() { second <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-second:
		close(release)
		t.Fatalf("second Shutdown returned %v while an admit was still deciding", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != http.StatusOK {
		t.Fatalf("the held admit answered %d, want 200", c)
	}
}

// The release answer and the error answer are pinned byte for byte:
// their struct bodies write what the one-key maps they replaced wrote,
// HTML-escaped as encoding/json escapes a map's string values, with the
// encoder's trailing newline.
func TestReleaseAndErrorBodiesBytes(t *testing.T) {
	_, ts := newTestServer(t, cpuTheta(4, 1000, "l1"))
	job := cpuJob(t, "rel<1>&", "l1", 0, 100)
	if resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, job)); resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d %s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{http.StatusOK, `{"released":"rel\u003c1\u003e\u0026"}` + "\n"},
		{http.StatusNotFound, `{"error":"server: unknown computation: rel\u003c1\u003e\u0026"}` + "\n"},
	} {
		resp, body := postBody(t, ts.URL+"/v1/release", `{"name":"rel<1>&"}`)
		if resp.StatusCode != c.status || string(body) != c.body {
			t.Errorf("release: %d %q, want %d %q", resp.StatusCode, body, c.status, c.body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("release: Content-Type %q", ct)
		}
	}
	rec := httptest.NewRecorder()
	HTTPError(rec, http.StatusTeapot, errors.New(`a "quoted" <tag> & é`))
	if want := `{"error":"a \"quoted\" \u003ctag\u003e \u0026 é"}` + "\n"; rec.Code != http.StatusTeapot || rec.Body.String() != want {
		t.Errorf("HTTPError: %d %q, want %d %q", rec.Code, rec.Body.String(), http.StatusTeapot, want)
	}
}
