package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// Peer RPC rides the same HTTP JSON stack the public API uses, hardened
// for the federation path: every call carries a per-call timeout, is
// retried a bounded number of times with jittered exponential backoff on
// transport errors and 5xx responses, and carries an idempotency key so
// a retry that races its predecessor cannot double-apply (prepare,
// commit and abort are all idempotent on their key server-side).

// headerForwarded marks a request already routed by a peer, so the
// receiver treats it as node-local and never re-forwards (no loops).
const headerForwarded = "X-Rota-Forwarded"

// headerIdempotency carries the logical call's idempotency key, for log
// correlation on the receiving side.
const headerIdempotency = "X-Rota-Idempotency-Key"

// maxPeerBody bounds the bytes read from one peer response. A longer
// response is refused whole, never relayed or decoded cut short.
const maxPeerBody = 1 << 20

// errBodyTooLarge marks a peer response longer than maxPeerBody. The peer
// answered, so another attempt would only read the same answer.
var errBodyTooLarge = errors.New("peer response too large")

// httpStatusError is a non-2xx response that reached us intact: the
// request was received and refused, so it is not retried (except 5xx,
// handled by the retry loop).
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("peer returned %d: %s", e.status, e.body)
}

// rpcClient is the shared retrying transport for all peer calls.
type rpcClient struct {
	http        *http.Client
	timeout     time.Duration // per attempt
	retries     int           // additional attempts after the first
	backoffBase time.Duration // first retry's backoff (doubles per attempt)
	backoffCap  time.Duration // backoff ceiling
	obs         *obs.Observer
	spans       *span.Store
}

// rpcOptions carries the tunable half of the client; zero fields take
// the defaults (2s timeout, 2 retries, 25ms→400ms backoff, the
// process-default transport).
type rpcOptions struct {
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
	transport   http.RoundTripper // e.g. a fault.Network wrapper; nil = default
}

func newRPCClient(opts rpcOptions, o *obs.Observer, spans *span.Store) *rpcClient {
	if opts.timeout <= 0 {
		opts.timeout = 2 * time.Second
	}
	if opts.retries < 0 {
		opts.retries = 0
	}
	if opts.backoffBase <= 0 {
		opts.backoffBase = 25 * time.Millisecond
	}
	if opts.backoffCap <= 0 {
		opts.backoffCap = 400 * time.Millisecond
	}
	if opts.backoffCap < opts.backoffBase {
		opts.backoffCap = opts.backoffBase
	}
	return &rpcClient{
		// The client timeout is a backstop; each attempt's context is
		// the real per-call deadline.
		http:        &http.Client{Timeout: 2 * opts.timeout, Transport: opts.transport},
		timeout:     opts.timeout,
		retries:     opts.retries,
		backoffBase: opts.backoffBase,
		backoffCap:  opts.backoffCap,
		obs:         o,
		spans:       spans,
	}
}

// backoff sleeps before retry attempt i (1-based) with ±50% jitter,
// respecting ctx.
func (c *rpcClient) backoff(ctx context.Context, i int) error {
	base := c.backoffBase << (i - 1)
	if base > c.backoffCap || base <= 0 { // <=0: shift overflow
		base = c.backoffCap
	}
	d := base/2 + time.Duration(rand.Int63n(int64(base)))
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an attempt's failure is worth another try:
// transport errors (the peer may not have seen the request) and 5xx
// responses (the peer is briefly unhealthy). 4xx verdicts are final, and
// so is a 2xx response over maxPeerBody. So is the caller's own cancellation
// — the requester is gone, so another attempt could only succeed on
// nobody's behalf.
func retryable(err error) bool {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, errBodyTooLarge) {
		return false
	}
	return true // transport-level failure (including per-attempt timeout)
}

// attemptLoop runs one logical call: up to 1+retries attempts with
// jittered backoff. It returns the number of attempts made and the LAST
// attempt's error — never a bare ctx.Err() that would mask the peer's
// actual failure. Once the caller's context is done, no further
// attempts are made: a retry the caller cannot consume is futile.
func (c *rpcClient) attemptLoop(ctx context.Context, method, url string, body []byte, out any, headers map[string]string) (status int, data []byte, attempts int, err error) {
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if berr := c.backoff(ctx, attempt); berr != nil {
				// The caller went away mid-backoff. Keep the real attempt
				// failure as the error chain; the abandonment is a note,
				// not the verdict.
				err = fmt.Errorf("cluster: retry abandoned (%v): %w", berr, err)
				return
			}
			c.obs.Log("rpc.retry",
				"trace", obs.Trace(ctx), "url", url, "attempt", attempt, "error", err)
		}
		attempts++
		// Each attempt is its own span (a retry is new work, not the same
		// work again); the receiving peer's handler span parents onto the
		// attempt that actually reached it.
		actx, asp := c.spans.Start(ctx, span.KindRPC)
		asp.Str("path", url)
		asp.Int("attempt", int64(attempt))
		status, data, err = c.once(actx, method, url, body, out, headers)
		if err != nil {
			asp.SetStatus(span.StatusError)
			asp.Attr("error", err)
		}
		asp.End()
		if err == nil || !retryable(err) {
			return
		}
		if ctx.Err() != nil {
			// The caller's deadline passed during the attempt; surface the
			// attempt's own failure rather than burning futile retries.
			return
		}
	}
	return
}

// call POSTs (or GETs, with a nil body) one peer endpoint, decoding a
// 2xx JSON response into out. It records the logical call — duration
// across all attempts, outcome, retries used — into rec.
func (c *rpcClient) call(ctx context.Context, method, url string, body []byte, out any, headers map[string]string, rec *metrics.RPCStats) error {
	start := time.Now()
	_, _, attempts, err := c.attemptLoop(ctx, method, url, body, out, headers)
	if rec != nil {
		timedOut := errors.Is(err, context.DeadlineExceeded)
		rec.Observe(time.Since(start), err == nil, timedOut, attempts-1)
	}
	return err
}

// proxy forwards a request body to a peer and returns the raw response
// (status + body) so the caller can relay it verbatim.
func (c *rpcClient) proxy(ctx context.Context, url string, body []byte, headers map[string]string, rec *metrics.RPCStats) (int, []byte, error) {
	start := time.Now()
	status, data, attempts, err := c.attemptLoop(ctx, http.MethodPost, url, body, nil, headers)
	if rec != nil {
		timedOut := errors.Is(err, context.DeadlineExceeded)
		rec.Observe(time.Since(start), err == nil, timedOut, attempts-1)
	}
	var se *httpStatusError
	if errors.As(err, &se) {
		// The peer answered; relay its verdict rather than wrapping it.
		return se.status, []byte(se.body), nil
	}
	return status, data, err
}

// once runs a single attempt under the per-call timeout.
func (c *rpcClient) once(ctx context.Context, method, url string, body []byte, out any, headers map[string]string) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Every outgoing peer RPC carries the originating request's trace ID,
	// so one admission is correlatable across coordinator and
	// participants.
	if id := obs.Trace(ctx); id != "" {
		req.Header.Set(obs.HeaderTraceID, id)
	}
	// And the current span's ID, so the peer's spans join our tree.
	span.Inject(ctx, req.Header)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// A refusal is decided by its status, whatever its length: only
		// the message is cut at the limit.
		data = data[:min(len(data), maxPeerBody)]
		return resp.StatusCode, data, &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if len(data) > maxPeerBody {
		return resp.StatusCode, nil, fmt.Errorf("cluster: %s response (status %d) exceeds the %d-byte limit: %w",
			url, resp.StatusCode, maxPeerBody, errBodyTooLarge)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, data, fmt.Errorf("cluster: %s returned unparsable body: %w", url, err)
		}
	}
	return resp.StatusCode, data, nil
}
