package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRPCRetriesServerErrorsThenSucceeds: 5xx responses are retried with
// backoff until an attempt lands.
func TestRPCRetriesServerErrorsThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "briefly unhealthy", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second, retries: 3}, nil, nil)
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.call(context.Background(), http.MethodGet, ts.URL, nil, &out, nil, nil); err != nil || !out.OK {
		t.Fatalf("call after retries: %v, %+v", err, out)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestRPCClientErrorIsFinal: a 4xx verdict is the peer's answer, not a
// transient failure — exactly one attempt, error preserved.
func TestRPCClientErrorIsFinal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such thing", http.StatusNotFound)
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second, retries: 3}, nil, nil)
	err := c.call(context.Background(), http.MethodGet, ts.URL, nil, nil, nil, nil)
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusNotFound {
		t.Fatalf("err = %v, want preserved 404 status error", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (4xx is final)", got)
	}
}

// TestRPCNoRetryAfterCallerGone is the regression test for the futile
// retry + error-masking bug: once the caller's context is done, no
// further attempts run, and the error surfaced is the last attempt's
// actual failure (the peer's 500), not a bare context error.
func TestRPCNoRetryAfterCallerGone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// The caller walks away just after this attempt's verdict
			// lands: before the next retry, whether the loop is at its
			// post-attempt check or already sleeping in backoff.
			time.AfterFunc(5*time.Millisecond, cancel)
		}
		http.Error(w, "shard wedged", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second, retries: 5}, nil, nil)
	err := c.call(ctx, http.MethodGet, ts.URL, nil, nil, nil, nil)
	if err == nil {
		t.Fatal("call succeeded against a 500ing peer")
	}
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusInternalServerError {
		t.Fatalf("peer failure masked: err = %v, want the 500 status error in the chain", err)
	}
	if !strings.Contains(err.Error(), "shard wedged") {
		t.Fatalf("peer's own message lost: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (caller gone, retries are futile)", got)
	}
}

// TestRPCCallerCancellationNotRetried: a transport failure caused by the
// caller's own cancellation is final.
func TestRPCCallerCancellationNotRetried(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	c := newRPCClient(rpcOptions{timeout: 5 * time.Second, retries: 5}, nil, nil)
	err := c.call(ctx, http.MethodGet, ts.URL, nil, nil, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (cancellation is not retryable)", got)
	}
}

// TestRPCOnceCarriesTraceHeader: the context's trace ID rides every
// outgoing peer RPC.
func TestRPCOnceCarriesTraceHeader(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(obs.HeaderTraceID))
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second}, nil, nil)
	ctx := obs.WithTrace(context.Background(), "rpc-trace-9")
	if err := c.call(ctx, http.MethodGet, ts.URL, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "rpc-trace-9" {
		t.Fatalf("peer saw trace %q", got.Load())
	}
}

// TestRPCProxyRefusesOversizedBody: a peer's 2xx response one byte over
// the read limit is an error naming the limit, not a truncated body
// relayed with the peer's status — and one attempt, since the peer
// would only answer the same again.
func TestRPCProxyRefusesOversizedBody(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(strings.Repeat("x", 1<<20+1)))
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second, retries: 3}, nil, nil)
	status, data, err := c.proxy(context.Background(), ts.URL, []byte(`{}`), nil, nil)
	if err == nil {
		t.Fatalf("proxy relayed %d bytes with status %d and no error", len(data), status)
	}
	if !strings.Contains(err.Error(), "1048576-byte limit") {
		t.Fatalf("err = %v, want it to name the 1048576-byte limit", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (an oversized answer is final)", got)
	}
}

// TestRPCProxyRetriesOversized5xx: a 5xx is retried by its status,
// however long its body, so a peer that recovers still answers.
func TestRPCProxyRetriesOversized5xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(strings.Repeat("x", 1<<20+1)))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := newRPCClient(rpcOptions{timeout: time.Second, retries: 3}, nil, nil)
	status, data, err := c.proxy(context.Background(), ts.URL, []byte(`{}`), nil, nil)
	if err != nil || status != http.StatusOK || string(data) != `{"ok":true}` {
		t.Fatalf("proxy = %d, %q, %v; want 200 and the second answer", status, data, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}
