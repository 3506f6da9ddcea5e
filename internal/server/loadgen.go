package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/workload"
)

// LoadConfig parameterizes a load run against a live rotad instance.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when set, spreads requests round-robin across several
	// daemons (a cluster's nodes); BaseURL is ignored. Each admitted
	// job is released through the same node that admitted it.
	BaseURLs []string
	// Jobs is the synthetic admission stream. When Requests exceeds
	// len(Jobs), jobs are replayed with fresh unique names.
	Jobs []workload.Job
	// Requests is the total number of admit requests; default len(Jobs).
	Requests int
	// Clients is the number of concurrent clients; default 4.
	Clients int
	// ReleaseAdmitted, when true (the load generator's default path),
	// releases every admitted job right away so the ledger reaches a
	// steady state instead of filling once and rejecting forever.
	ReleaseAdmitted bool
	// Timeout bounds each HTTP request; default 10s.
	Timeout time.Duration
	// SlowLog, when positive, keeps the N slowest admit requests with
	// their server-assigned trace IDs in LoadReport.Slow — the handle a
	// client needs to pull the span tree behind a tail-latency outlier.
	SlowLog int
	// QueryFrac, in [0,1], replaces that fraction of the request stream
	// with one-shot temporal queries (alternating holds over the job's
	// footprint and feasible over its name) — mixed admit/query traffic
	// against the same ledger.
	QueryFrac float64
}

// SlowRequest is one entry of the client-side slow log: enough to go
// from "this request was slow" to `rotatrace -spans -trace <id>`.
type SlowRequest struct {
	Trace     string
	Job       string
	Admit     bool
	LatencyUS int64
	// SlackAtAdmit is deadline minus witness-plan finish in ledger ticks
	// (admitted requests only): how close to the wire the Theorem-4 check
	// let this job in.
	SlackAtAdmit int64
}

// LoadReport aggregates a load run. Latencies are client-observed
// (network + queue + decision) in microseconds.
type LoadReport struct {
	Requests int
	Admitted int
	Rejected int
	Errors   int
	Released int
	// Queries counts the requests served as one-shot temporal queries
	// (QueryFrac of the stream); QueryHolds of them held.
	Queries    int
	QueryHolds int
	// Redirects counts 421 ownership redirects followed: the location a
	// request targeted had moved since the client last looked. Each one
	// is a retry within the same request, so the Admitted + Rejected +
	// Errors + Queries = Requests accounting is unaffected.
	Redirects int
	// ReleaseErrors counts admitted jobs whose follow-up release failed.
	// Kept apart from Errors: the admission itself succeeded and is
	// already counted, so folding these into Errors would double-count
	// the request (Admitted + Rejected + Errors + Queries == Requests
	// must hold exactly).
	ReleaseErrors int
	// FirstError is the first failure observed — a request failure or a
	// failed release — kept as a sample to diagnose what the counts are
	// hiding. Empty only when Errors and ReleaseErrors are both zero.
	FirstError string

	Duration   time.Duration
	Throughput float64 // requests per second

	MeanUS float64
	P50US  float64
	P90US  float64
	P99US  float64
	MaxUS  float64

	// Query latency digest, client-observed, microseconds.
	QueryMeanUS float64
	QueryP50US  float64
	QueryP99US  float64

	// Slow is the slow log: the SlowLog slowest requests, slowest first.
	Slow []SlowRequest
	// UnexplainedRejects counts rejections that arrived without a
	// provenance object — each one is a daemon-side observability bug.
	UnexplainedRejects int
}

// RunLoad drives the admission stream at the daemon from Clients
// concurrent clients and reports throughput and latency percentiles.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	urls := cfg.BaseURLs
	if len(urls) == 0 && cfg.BaseURL != "" {
		urls = []string{cfg.BaseURL}
	}
	if len(urls) == 0 {
		return LoadReport{}, fmt.Errorf("server: load needs a base URL")
	}
	if len(cfg.Jobs) == 0 {
		return LoadReport{}, fmt.Errorf("server: load needs jobs")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = len(cfg.Jobs)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}

	client := &http.Client{Timeout: cfg.Timeout}
	hist := metrics.NewHistogram()
	qhist := metrics.NewHistogram()
	var next, admitted, rejected, errs, released, releaseErrs, unexplained, queries, queryHolds, redirects atomic.Int64
	// firstErr keeps the first failure as a plain string: atomic.Value
	// panics when concurrent CompareAndSwap calls race with different
	// concrete error types, and under fault injection they do.
	var firstErr atomic.Value
	// owners caches ownership learned from 421 redirects (location ->
	// base URL), shared by all clients so one redirect reroutes the
	// whole run after a rebalance.
	var owners sync.Map
	// Deterministic admit/query interleaving: request i is a query iff
	// i mod 100 falls below the rounded percentage, so reruns mix
	// identically and the accounting stays exact.
	queryPct := int(cfg.QueryFrac*100 + 0.5)

	// The slow log is a bounded slice kept sorted slowest-first; with
	// SlowLog entries at most, re-sorting per insert is cheap.
	var slowMu sync.Mutex
	var slow []SlowRequest
	noteSlow := func(sr SlowRequest) {
		if cfg.SlowLog <= 0 {
			return
		}
		slowMu.Lock()
		defer slowMu.Unlock()
		if len(slow) >= cfg.SlowLog && sr.LatencyUS <= slow[len(slow)-1].LatencyUS {
			return
		}
		slow = append(slow, sr)
		sort.Slice(slow, func(i, j int) bool { return slow[i].LatencyUS > slow[j].LatencyUS })
		if len(slow) > cfg.SlowLog {
			slow = slow[:cfg.SlowLog]
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests || ctx.Err() != nil {
					return
				}
				job := cfg.Jobs[i%len(cfg.Jobs)]
				if i >= len(cfg.Jobs) {
					// Replay round: fresh name, same shape.
					job.Dist.Name = fmt.Sprintf("%s#r%d", job.Dist.Name, i/len(cfg.Jobs))
				}
				url := urls[i%len(urls)]
				if queryPct > 0 && i%100 < queryPct {
					q := loadQuery(i, job)
					reqStart := time.Now()
					qr, err := getQueryText(ctx, client, url, q)
					qhist.Observe(float64(time.Since(reqStart).Microseconds()))
					if err != nil {
						errs.Add(1)
						firstErr.CompareAndSwap(nil, err.Error())
						continue
					}
					queries.Add(1)
					if qr.Holds {
						queryHolds.Add(1)
					}
					continue
				}
				reqStart := time.Now()
				resp, trace, admitURL, err := admitFollowingRedirects(ctx, client, url, job, &owners, &redirects)
				latencyUS := time.Since(reqStart).Microseconds()
				hist.Observe(float64(latencyUS))
				if err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err.Error())
					continue
				}
				var slackAtAdmit int64
				if resp.Admit {
					slackAtAdmit = int64(resp.Deadline - resp.Finish)
				}
				noteSlow(SlowRequest{Trace: trace, Job: job.Dist.Name, Admit: resp.Admit,
					LatencyUS: latencyUS, SlackAtAdmit: slackAtAdmit})
				if !resp.Admit {
					rejected.Add(1)
					if resp.Provenance == nil {
						unexplained.Add(1)
					}
					continue
				}
				admitted.Add(1)
				if cfg.ReleaseAdmitted {
					if err := releaseFollowingRedirects(ctx, client, admitURL, job, &owners, &redirects); err != nil {
						releaseErrs.Add(1)
						firstErr.CompareAndSwap(nil, err.Error())
					} else {
						released.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := hist.Summary()
	qsum := qhist.Summary()
	report := LoadReport{
		Requests:      cfg.Requests,
		Admitted:      int(admitted.Load()),
		Rejected:      int(rejected.Load()),
		Errors:        int(errs.Load()),
		Released:      int(released.Load()),
		ReleaseErrors: int(releaseErrs.Load()),
		Queries:       int(queries.Load()),
		QueryHolds:    int(queryHolds.Load()),
		Redirects:     int(redirects.Load()),
		Duration:      elapsed,
		MeanUS:        sum.Mean,
		P50US:         sum.P50,
		P90US:         sum.P90,
		P99US:         sum.P99,
		MaxUS:         sum.Max,

		QueryMeanUS: qsum.Mean,
		QueryP50US:  qsum.P50,
		QueryP99US:  qsum.P99,

		Slow:               slow,
		UnexplainedRejects: int(unexplained.Load()),
	}
	if elapsed > 0 {
		report.Throughput = float64(cfg.Requests) / elapsed.Seconds()
	}
	if msg, ok := firstErr.Load().(string); ok {
		report.FirstError = msg
	}
	if err := ctx.Err(); err != nil {
		return report, err
	}
	if report.Admitted+report.Rejected+report.Errors+report.Queries != report.Requests {
		return report, fmt.Errorf("server: load accounting off: %d+%d+%d+%d != %d",
			report.Admitted, report.Rejected, report.Errors, report.Queries, report.Requests)
	}
	if msg, ok := firstErr.Load().(string); ok && report.Admitted+report.Rejected+report.Queries == 0 {
		// Nothing got through at all; surface why.
		return report, fmt.Errorf("server: load failed entirely: %s", msg)
	}
	return report, nil
}

// loadQuery derives a one-shot query from the job that would otherwise
// have been admitted: half probe the free view at the job's first
// footprint location, half ask whether a (possibly live) job of that
// name remains feasible.
func loadQuery(i int, job workload.Job) string {
	loc := "l1"
	if locs := job.Dist.Locations(); len(locs) > 0 {
		loc = string(locs[0])
	}
	if i%2 == 0 {
		return fmt.Sprintf("holds(%s, cpu>=1, next 50)", loc)
	}
	return fmt.Sprintf("feasible(%s)", job.Dist.Name)
}

// getQueryText evaluates one compact-form query via GET /v1/query?q=.
func getQueryText(ctx context.Context, client *http.Client, base, q string) (QueryResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/query?q="+neturl.QueryEscape(q), nil)
	if err != nil {
		return QueryResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return QueryResponse{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return QueryResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return QueryResponse{}, fmt.Errorf("server: query %q returned %d: %s", q, resp.StatusCode, bytes.TrimSpace(data))
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return QueryResponse{}, fmt.Errorf("server: query %q returned unparsable body: %w", q, err)
	}
	return out, nil
}

// redirectError carries a 421 Misdirected Request body up to the load
// loop: the location a request targeted has a new owner.
type redirectError struct {
	resp membership.RedirectResponse
}

func (e *redirectError) Error() string {
	return fmt.Sprintf("server: ownership moved to %s (%s, epoch %d)", e.resp.OwnerID, e.resp.OwnerURL, e.resp.Epoch)
}

// maxRedirectHops bounds redirect-chasing per request: one rebalance
// moves ownership once, so more than a couple of hops means the
// cluster's tables disagree and the error should surface.
const maxRedirectHops = 3

// admitFollowingRedirects posts the admit, consulting and refreshing
// the learned ownership cache: a 421 updates the cache for every
// location the redirect names and retries at the new owner. Returns
// the node that finally answered so the release can go to the same
// place.
func admitFollowingRedirects(ctx context.Context, client *http.Client, base string, job workload.Job,
	owners *sync.Map, redirects *atomic.Int64) (AdmitResponse, string, string, error) {
	loc := firstFootprintLoc(job)
	if loc != "" {
		if v, ok := owners.Load(loc); ok {
			base = v.(string)
		}
	}
	for hop := 0; ; hop++ {
		resp, trace, err := postAdmit(ctx, client, base, job)
		var rd *redirectError
		if err == nil || !errors.As(err, &rd) || hop >= maxRedirectHops {
			return resp, trace, base, err
		}
		redirects.Add(1)
		base = strings.TrimSuffix(rd.resp.OwnerURL, "/")
		locs := rd.resp.Locs
		if len(locs) == 0 && loc != "" {
			locs = []resource.Location{loc}
		}
		for _, l := range locs {
			owners.Store(l, base)
		}
	}
}

// firstFootprintLoc is the cache key for a job's learned owner: the
// first location of its initial concurrent step (same choice loadQuery
// makes), empty when the job has no footprint.
func firstFootprintLoc(job workload.Job) resource.Location {
	if locs := job.Dist.Locations(); len(locs) > 0 {
		return locs[0]
	}
	return ""
}

// postAdmit submits one job and returns the verdict plus the trace ID
// the daemon stamped on the response — the correlation handle for the
// slow log.
func postAdmit(ctx context.Context, client *http.Client, base string, job workload.Job) (AdmitResponse, string, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return AdmitResponse{}, "", err
	}
	var out AdmitResponse
	trace, err := postJSONTraced(ctx, client, base+"/v1/admit", body, &out)
	if err != nil {
		return AdmitResponse{}, "", err
	}
	return out, trace, nil
}

func postRelease(ctx context.Context, client *http.Client, base string, name string) error {
	body, err := json.Marshal(releaseRequest{Name: name})
	if err != nil {
		return err
	}
	return postJSON(ctx, client, base+"/v1/release", body, nil)
}

// releaseFollowingRedirects releases a commitment at the node that
// admitted it, chasing 421s if an ownership handoff moved the
// reservation between the admit and the release (the commitment moves
// with its location, so the new owner honors the release).
func releaseFollowingRedirects(ctx context.Context, client *http.Client, base string, job workload.Job,
	owners *sync.Map, redirects *atomic.Int64) error {
	for hop := 0; ; hop++ {
		err := postRelease(ctx, client, base, job.Dist.Name)
		var rd *redirectError
		if err == nil || !errors.As(err, &rd) || hop >= maxRedirectHops {
			return err
		}
		redirects.Add(1)
		base = strings.TrimSuffix(rd.resp.OwnerURL, "/")
		for _, l := range rd.resp.Locs {
			owners.Store(l, base)
		}
	}
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte, out any) error {
	_, err := postJSONTraced(ctx, client, url, body, out)
	return err
}

func postJSONTraced(ctx context.Context, client *http.Client, url string, body []byte, out any) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	trace := resp.Header.Get(obs.HeaderTraceID)
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return trace, err
	}
	if resp.StatusCode == http.StatusMisdirectedRequest {
		if rd, derr := membership.DecodeRedirect(data); derr == nil {
			return trace, &redirectError{resp: rd}
		}
	}
	if resp.StatusCode != http.StatusOK {
		return trace, fmt.Errorf("server: %s returned %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return trace, fmt.Errorf("server: %s returned unparsable body: %w", url, err)
		}
	}
	return trace, nil
}

// FetchStats reads the daemon's /v1/stats endpoint.
func FetchStats(ctx context.Context, baseURL string) (StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return StatsResponse{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return StatsResponse{}, err
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}
