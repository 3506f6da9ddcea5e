package selftest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// LoadConfig parameterizes a load run against live rotad instances.
type LoadConfig struct {
	// BaseURLs are the daemon roots, e.g. "http://127.0.0.1:8080".
	// Requests are spread round-robin across them (a cluster's nodes);
	// each admitted job is released through the node that admitted it.
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

// RunLoad drives the admission stream at the daemons from Clients
// concurrent clients and reports throughput and latency percentiles.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	urls := cfg.BaseURLs
	if len(urls) == 0 {
		return LoadReport{}, fmt.Errorf("selftest: load needs a base URL")
	}
	if len(cfg.Jobs) == 0 {
		return LoadReport{}, fmt.Errorf("selftest: load needs jobs")
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
	var next, admitted, rejected, errs, released, releaseErrs, unexplained, queries, queryHolds atomic.Int64
	// firstErr keeps the first failure as a plain string: atomic.Value
	// panics when concurrent CompareAndSwap calls race with different
	// concrete error types, and under fault injection they do.
	var firstErr atomic.Value
	// One router for all clients, so one redirect reroutes the whole run
	// after a rebalance.
	var rt router
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
					reqStart := time.Now()
					qr, err := queryVerdict(ctx, client, url, loadQuery(i, job))
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
				resp, trace, admitURL, err := rt.admit(ctx, client, url, job)
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
					if err := rt.release(ctx, client, admitURL, job); err != nil {
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
		Redirects:     int(rt.redirects.Load()),
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
		return report, fmt.Errorf("selftest: load accounting off: %d+%d+%d+%d != %d",
			report.Admitted, report.Rejected, report.Errors, report.Queries, report.Requests)
	}
	if report.FirstError != "" && report.Admitted+report.Rejected+report.Queries == 0 {
		// Nothing got through at all; surface why.
		return report, fmt.Errorf("selftest: load failed entirely: %s", report.FirstError)
	}
	return report, nil
}

// add folds another run's counts into r: the chaos schedule drives its
// background load as a series of batches and reports their sum.
func (r *LoadReport) add(o LoadReport) {
	r.Requests += o.Requests
	r.Admitted += o.Admitted
	r.Rejected += o.Rejected
	r.Errors += o.Errors
	r.ReleaseErrors += o.ReleaseErrors
	r.Redirects += o.Redirects
	if r.FirstError == "" {
		r.FirstError = o.FirstError
	}
}

// loadQuery derives a one-shot query from the job that would otherwise
// have been admitted: half probe the free view at the job's first
// footprint location, half ask whether a (possibly live) job of that
// name remains feasible.
func loadQuery(i int, job workload.Job) string {
	loc := firstFootprintLoc(job)
	if loc == "" {
		loc = "l1"
	}
	if i%2 == 0 {
		return fmt.Sprintf("holds(%s, cpu>=1, next 50)", loc)
	}
	return fmt.Sprintf("feasible(%s)", job.Dist.Name)
}

// firstFootprintLoc is the cache key for a job's learned owner: the
// first location of its initial concurrent step, empty when the job has
// no footprint.
func firstFootprintLoc(job workload.Job) resource.Location {
	if locs := job.Dist.Locations(); len(locs) > 0 {
		return locs[0]
	}
	return ""
}

// redirectError carries a 421 Misdirected Request body up to the load
// loop: the location a request targeted has a new owner.
type redirectError struct {
	resp membership.RedirectResponse
}

func (e *redirectError) Error() string {
	return fmt.Sprintf("selftest: ownership moved to %s (%s, epoch %d)", e.resp.OwnerID, e.resp.OwnerURL, e.resp.Epoch)
}

// maxRedirectHops bounds redirect-chasing per request: one rebalance
// moves ownership once, so more than a couple of hops means the
// cluster's tables disagree and the error should surface.
const maxRedirectHops = 3

// router follows 421 ownership redirects and remembers what they taught
// (location -> base URL), so later requests go straight to the owner.
type router struct {
	owners    sync.Map
	redirects atomic.Int64
}

// admit posts the job, starting at its learned owner when there is one.
// It returns the verdict, the trace ID the daemon stamped on it, and the
// node that finally answered, so the release can go to the same place.
func (rt *router) admit(ctx context.Context, client *http.Client, base string, job workload.Job) (server.AdmitResponse, string, string, error) {
	if v, ok := rt.owners.Load(firstFootprintLoc(job)); ok {
		base = v.(string)
	}
	var out server.AdmitResponse
	var trace string
	base, err := rt.follow(base, job, func(base string) error {
		url := base + "/v1/admit"
		r, err := send(ctx, client, url, "", job)
		if err != nil {
			return err
		}
		trace = r.trace
		return r.decode(url, &out)
	})
	return out, trace, base, err
}

// release releases a commitment at the node that admitted it, chasing
// 421s if a handoff moved the reservation in between (the commitment
// moves with its location, so the new owner honors the release).
func (rt *router) release(ctx context.Context, client *http.Client, base string, job workload.Job) error {
	_, err := rt.follow(base, job, func(base string) error {
		url := base + "/v1/release"
		r, err := send(ctx, client, url, "", map[string]string{"name": job.Dist.Name})
		if err != nil {
			return err
		}
		return r.decode(url, nil)
	})
	return err
}

// follow runs op against base, and again at the new owner after each
// 421 it answers, up to maxRedirectHops. Each redirect teaches the
// router where its locations (or, when it names none, the job's first
// one) now live. It returns the node op last ran against.
func (rt *router) follow(base string, job workload.Job, op func(base string) error) (string, error) {
	for hop := 0; ; hop++ {
		err := op(base)
		var rd *redirectError
		if err == nil || !errors.As(err, &rd) || hop >= maxRedirectHops {
			return base, err
		}
		rt.redirects.Add(1)
		base = strings.TrimSuffix(rd.resp.OwnerURL, "/")
		locs := rd.resp.Locs
		if loc := firstFootprintLoc(job); len(locs) == 0 && loc != "" {
			locs = []resource.Location{loc}
		}
		for _, l := range locs {
			rt.owners.Store(l, base)
		}
	}
}
