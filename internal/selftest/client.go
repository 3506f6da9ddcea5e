package selftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"

	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/server"
)

// The harness's one set of HTTP helpers: the load client, the probes
// and rotaload all talk to the daemon through send.

// reply is one daemon response: its status, its body, and the trace ID
// the daemon stamped on it.
type reply struct {
	status int
	body   []byte
	trace  string
}

// send issues one request: a POST of in as JSON, or a GET when in is
// nil, carrying trace as the request's trace ID when it is non-empty.
// Any status is a reply; only a transport failure is an error.
func send(ctx context.Context, client *http.Client, url, trace string, in any) (reply, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return reply{}, err
		}
		method, body = http.MethodPost, bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return reply{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.HeaderTraceID, trace)
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return reply{status: resp.StatusCode, body: data, trace: resp.Header.Get(obs.HeaderTraceID)}, err
}

// decode unmarshals a 200 reply's body into out (skipped when out is
// nil). A 421 becomes a *redirectError naming the new owner; any other
// status is an error carrying the body.
func (r reply) decode(url string, out any) error {
	if r.status == http.StatusMisdirectedRequest {
		if rd, err := membership.DecodeRedirect(r.body); err == nil {
			return &redirectError{resp: rd}
		}
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("%s returned %d: %s", url, r.status, bytes.TrimSpace(r.body))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(r.body, out); err != nil {
		return fmt.Errorf("%s returned unparsable body: %w", url, err)
	}
	return nil
}

// postJSON posts v and returns (status, body) without treating non-2xx
// as an error: the probes assert on exact statuses.
func postJSON(ctx context.Context, client *http.Client, url string, v any) (int, []byte, error) {
	r, err := send(ctx, client, url, "", v)
	return r.status, r.body, err
}

// GetJSON fetches url and decodes its JSON body, failing on non-200.
func GetJSON(ctx context.Context, client *http.Client, url string, out any) error {
	r, err := send(ctx, client, url, "", nil)
	if err != nil {
		return err
	}
	return r.decode(url, out)
}

// queryVerdict evaluates one compact-form query via GET /v1/query?q=.
func queryVerdict(ctx context.Context, client *http.Client, baseURL, q string) (server.QueryResponse, error) {
	var out server.QueryResponse
	err := GetJSON(ctx, client, baseURL+"/v1/query?q="+neturl.QueryEscape(q), &out)
	return out, err
}

// FetchStats reads the daemon's /v1/stats endpoint.
func FetchStats(ctx context.Context, baseURL string) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := GetJSON(ctx, http.DefaultClient, baseURL+"/v1/stats", &out)
	return out, err
}
