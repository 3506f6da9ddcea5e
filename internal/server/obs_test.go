package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/assure"
)

// TestAdmitTimeoutNeverReserves is the regression test for the
// admit-timeout reservation leak, which is now impossible by
// construction: a witness plan found after its admit's deadline is
// refused at reserve, so the client's 503 leaves no reservation, no
// promise and no epoch bump behind, and nothing is ever rolled back.
func TestAdmitTimeoutNeverReserves(t *testing.T) {
	const timeout = 20 * time.Millisecond
	srv, err := New(Config{Theta: cpuTheta(4, 1000, "l1"), Workers: 1, DecisionTimeout: timeout, Assure: assure.New("n1")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	admit := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/admit", strings.NewReader(admitBody(t, cpuJob(t, "slow", "l1", 0, 1000))))
		srv.ServeHTTP(rec, req.WithContext(ctx))
		return rec
	}

	// The hook holds the planned admit past its deadline. Cancelling the
	// request is the backstop that makes the handler's ctx surely done
	// when the hook returns, even if its deadline timer has not fired.
	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Ledger().testPostPlanHook = func() {
		time.Sleep(timeout)
		cancel()
	}
	epoch := srv.Ledger().Epoch()
	rec := admit(reqCtx)
	srv.Ledger().testPostPlanHook = nil

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overrun admit returned %d (%s), want 503 timeout", rec.Code, rec.Body)
	}
	st := srv.Stats()
	if st.Commitments != 0 || st.TimedOut != 1 {
		t.Fatalf("commitments=%d timed_out=%d, want 0/1", st.Commitments, st.TimedOut)
	}
	if st.LateDecisions != 1 || st.Released != 0 {
		t.Fatalf("late_decisions=%d released=%d, want 1/0", st.LateDecisions, st.Released)
	}
	if p, ok := srv.Assure().Lookup("slow"); ok {
		t.Fatalf("a timed-out admit left a promise: %+v", p)
	}
	if got := srv.Ledger().Epoch(); got != epoch {
		t.Fatalf("ledger epoch moved %d → %d for an admit that reserved nothing", epoch, got)
	}
	if err := srv.Ledger().Audit(); err != nil {
		t.Fatal(err)
	}

	// The name was never taken: the same job admits cleanly.
	if rec := admit(context.Background()); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"admit":true`) {
		t.Fatalf("re-admit after the timeout: %d %s", rec.Code, rec.Body)
	}
}

// TestServerMetricsEndpoint scrapes a live server's /metrics and checks
// the exposition parses and carries the core families with live values.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, cpuTheta(2, 64, "l1"))

	resp, body := postBody(t, ts.URL+"/v1/admit", admitBody(t, cpuJob(t, "m1", "l1", 0, 64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d %s", resp.StatusCode, body)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if mr.StatusCode != http.StatusOK || !strings.HasPrefix(mr.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("GET /metrics: %d %q", mr.StatusCode, mr.Header.Get("Content-Type"))
	}
	m, err := obs.ParseMetrics(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"rota_admitted_total":       1,
		"rota_decisions_total":      1,
		"rota_ledger_commitments":   1,
		"rota_ledger_shards":        1,
		"rota_late_decisions_total": 0,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("scraped %s = %v, %v; want %v", key, got, ok, want)
		}
	}
	if v, ok := m[`rota_decision_latency_us_count`]; !ok || v != 1 {
		t.Errorf("decision latency count = %v, %v", v, ok)
	}
	if _, ok := m[`rota_http_requests_total{layer="server",endpoint="admit",class="2xx"}`]; !ok {
		t.Errorf("per-endpoint family missing; scraped keys: %d", len(m))
	}
}

// TestStatsSelfConsistent is the regression test for a /v1/stats body
// contradicting itself: while eight goroutines admit and reject jobs,
// every Stats() snapshot must have Decisions == Admitted+Rejected and
// one ledger epoch under both of its names.
func TestStatsSelfConsistent(t *testing.T) {
	srv, err := New(Config{Theta: cpuTheta(16, 1000, "l1"), Workers: 4, DecisionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })

	var bodies []string
	for i := 0; i < 320; i++ {
		deadline := interval.Time(1000)
		if i%2 == 1 {
			deadline = 1 // hopeless: rejected
		}
		bodies = append(bodies, admitBody(t, cpuJob(t, fmt.Sprintf("j%d", i), "l1", 0, deadline)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for _, body := range mine {
				srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/admit", strings.NewReader(body)))
			}
		}(bodies[w*40 : (w+1)*40])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if st := srv.Stats(); st.Decisions != st.Admitted+st.Rejected || st.LedgerEpoch != st.Query.Epoch {
			<-done
			t.Fatalf("self-contradicting snapshot: decisions=%d admitted=%d rejected=%d ledger_epoch=%d query.epoch=%d",
				st.Decisions, st.Admitted, st.Rejected, st.LedgerEpoch, st.Query.Epoch)
		}
	}
	// Every admit reached a verdict, and the script exercised both.
	if st := srv.Stats(); st.Decisions != 320 || st.Admitted == 0 || st.Rejected == 0 {
		t.Fatalf("admitted=%d rejected=%d, want a mix of 320 decisions", st.Admitted, st.Rejected)
	}
}

// TestServerEventLog drives one admit and one lease expiry through a
// server wired to a buffer sink and checks the structured events land
// with their trace IDs.
func TestServerEventLog(t *testing.T) {
	var buf bytes.Buffer
	srv, err := New(Config{
		Theta: cpuTheta(2, 64, "l1"),
		Obs:   obs.New(obs.Options{Log: &buf}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit",
		strings.NewReader(admitBody(t, cpuJob(t, "ev1", "l1", 0, 64))))
	req.Header.Set(obs.HeaderTraceID, "evtrace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderTraceID); got != "evtrace-1" {
		t.Fatalf("response trace header = %q", got)
	}

	// A prepared hold left to expire logs through the sweep. Free the
	// admitted job's reservation first so the hold surely fits.
	if err := srv.Ledger().Release("ev1"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ledger().Prepare("k-exp", "j-exp", cpuTheta(1, 10, "l1"), 10, 10, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ledger().Advance(20); err != nil {
		t.Fatal(err)
	}

	log := buf.String()
	for _, want := range []string{
		"event=admit.decision", "trace=evtrace-1", "event=ledger.reserve",
		"event=ledger.lease_expired", "key=k-exp",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}
