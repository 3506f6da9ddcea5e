// Package selftest is rotad's end-to-end acceptance harness and load
// client. It boots the daemon in-process on loopback ports — one node,
// a cluster, or a cluster under a seeded kill/partition/heal schedule —
// drives a synthetic workload through the real HTTP stack, runs its
// probes, audits every ledger, and fails on any broken invariant. A
// cluster is a cluster.Fleet, the one in-process federation that the
// cluster package's tests boot too. The harness is the environment the
// daemon serves, not part of it: cmd/rotaload is its command line.
package selftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// Config is one harness run.
type Config struct {
	// Nodes is the loopback cluster's size; below 2 a single daemon runs.
	Nodes int
	// Chaos runs the kill/partition/heal schedule; it needs Nodes >= 3.
	Chaos bool
	// Locations is the number of locations, l1..lN.
	Locations int
	// Requests is the number of admit requests in the main load.
	Requests int
	// Clients is the number of concurrent load clients.
	Clients int
	// Seed drives the job streams and the chaos schedule.
	Seed int64
	// Slack is the job streams' deadline slack factor.
	Slack float64
	// CSV renders the report tables as CSV.
	CSV bool
}

// Every harness node runs rotad's serving defaults: the same Θ shape,
// lease TTL, decision deadline and stores as a daemon started with no
// flags.
const (
	horizon         interval.Time = 100000
	leaseTTL        interval.Time = 50
	cpuRate                       = 4
	linkRate                      = 1
	decisionTimeout               = 2 * time.Second
)

// Run boots the daemon in-process as cfg says, drives the load and the
// probes at it, prints the report, and returns the first broken
// invariant.
func Run(out io.Writer, cfg Config) error {
	if cfg.Chaos && cfg.Nodes < 3 {
		return errors.New("chaos needs a cluster of at least 3 nodes (quorum eviction is undefined below 3 members)")
	}
	if cfg.Nodes > 1 && cfg.Locations < cfg.Nodes {
		return fmt.Errorf("%d nodes need at least %d locations", cfg.Nodes, cfg.Nodes)
	}
	locs := resource.Locations(cfg.Locations)
	switch {
	case cfg.Chaos:
		return runChaos(out, cfg, locs)
	case cfg.Nodes > 1:
		return runCluster(out, cfg, locs)
	}
	return runSingle(out, cfg, locs)
}

// runSingle starts one daemon, drives the load generator at it, prints
// the report, and verifies the daemon's accounting and ledger
// invariants.
func runSingle(out io.Writer, cfg Config, locs []resource.Location) error {
	srv, err := server.New(nodeConfig("rotad", locs, io.Discard))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	baseURL := "http://" + ln.Addr().String()
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = httpSrv.Shutdown(ctx)
	}()

	ctx := context.Background()
	jobs, err := Jobs(Mixed, cfg.Seed, locs, cfg.Requests, spread(cfg.Requests), cfg.Slack)
	if err != nil {
		return err
	}
	report, err := RunLoad(ctx, LoadConfig{
		BaseURLs:        []string{baseURL},
		Jobs:            jobs,
		Requests:        cfg.Requests,
		Clients:         cfg.Clients,
		ReleaseAdmitted: true,
	})
	if err != nil {
		return err
	}
	stats, err := FetchStats(ctx, baseURL)
	if err != nil {
		return err
	}
	Table(fmt.Sprintf("rotad selftest: %d requests, %d clients", cfg.Requests, cfg.Clients), report, &stats).Print(out, cfg.CSV)

	if report.Errors > 0 {
		return fmt.Errorf("selftest: %d requests errored", report.Errors)
	}
	if stats.Decisions != stats.Admitted+stats.Rejected {
		return fmt.Errorf("selftest: decisions %d != admitted %d + rejected %d",
			stats.Decisions, stats.Admitted, stats.Rejected)
	}
	if int(stats.Decisions) != cfg.Requests {
		return fmt.Errorf("selftest: daemon decided %d of %d requests", stats.Decisions, cfg.Requests)
	}
	if stats.DecisionLatencyUS.P99 <= 0 {
		return errors.New("selftest: decision p99 latency is zero")
	}
	if report.Admitted == 0 {
		return errors.New("selftest: nothing admitted; workload or availability misconfigured")
	}
	// Query-layer probe: one-shot GET/POST agreement, then a standing
	// /v1/watch subscription must see the verdict flip when a reservation
	// lands, when it is released, when a leased hold arrives, and when
	// that lease expires in an advance sweep.
	httpc := &http.Client{Timeout: 10 * time.Second}
	if err := runQueryProbe(ctx, httpc, baseURL, locs[0]); err != nil {
		return fmt.Errorf("selftest: query probe: %w", err)
	}
	fmt.Fprintln(out, "query probe ok")
	// Assure probe: every released admission must have resolved to a kept
	// promise, and nothing may have violated — a violation here means the
	// Theorem-4 check admitted something the ledger could not honor.
	as := srv.Assure().Stats()
	if as.Violated != 0 {
		return fmt.Errorf("selftest: %d promises violated (deadline assurance broken)", as.Violated)
	}
	if as.Kept+as.Active == 0 {
		return errors.New("selftest: promise ledger tracked nothing despite admissions")
	}
	fmt.Fprintf(out, "assure probe ok (%d kept, %d active, attainment %.3f)\n", as.Kept, as.Active, as.Attainment)
	if err := srv.Ledger().Audit(); err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	fmt.Fprintln(out, "selftest ok")
	return nil
}

// nodeConfig is the server config of one harness node: rotad's serving
// defaults over a mesh of locs, with the node's own span store, promise
// ledger and flight recorder. The node's event log goes to log, teed
// into the recorder so a snapshot carries the lead-up to its trigger.
func nodeConfig(id string, locs []resource.Location, log io.Writer) server.Config {
	spans := span.NewStore(span.DefaultCapacity, id)
	rec := flightrec.New(id, flightrec.DefaultEventCap, flightrec.DefaultSnapshotCap, spans)
	return server.Config{
		Policy:          &admission.Rota{},
		Theta:           resource.Mesh(locs, cpuRate, linkRate, horizon),
		DecisionTimeout: decisionTimeout,
		Obs:             obs.New(obs.Options{Log: io.MultiWriter(log, rec.Writer()), Node: id}),
		Spans:           spans,
		Assure:          assure.New(id),
		FlightRec:       rec,
	}
}

// Mixed and light are the harness's two job shapes. Mixed is the main
// load: up to three actors of up to four steps, sends and migrations.
// The light shape is the background load beside membership churn: at
// most two actors of three steps, and no migrations.
var (
	Mixed = workload.Config{ActorsMin: 1, ActorsMax: 3, StepsMin: 1, StepsMax: 4,
		SendProb: 0.2, MigrateProb: 0.05, EvalWeightMax: 3}
	light = workload.Config{ActorsMin: 1, ActorsMax: 2, StepsMin: 1, StepsMax: 3,
		SendProb: 0.2, EvalWeightMax: 2}
)

// Jobs generates n jobs of the given shape over locs.
func Jobs(shape workload.Config, seed int64, locs []resource.Location, n int, interarrival, slack float64) ([]workload.Job, error) {
	shape.Seed, shape.Locations, shape.NumJobs = seed, locs, n
	shape.MeanInterarrival, shape.SlackFactor = interarrival, slack
	return workload.Generate(shape)
}

// spread is the mean interarrival that lands n arrivals within the first
// quarter of the horizon.
func spread(n int) float64 { return float64(horizon) / float64(n+1) / 4 }

// Table is the report every entry point prints for a load run: the
// client's view, then the daemon's when stats is non-nil.
func Table(title string, r LoadReport, stats *server.StatsResponse) *metrics.Table {
	t := metrics.NewTable(title, "metric", "value")
	t.AddRow("requests", r.Requests)
	t.AddRow("admitted", r.Admitted)
	t.AddRow("rejected", r.Rejected)
	t.AddRow("released", r.Released)
	t.AddRow("errors", r.Errors)
	t.AddRow("loadgen_redirects", r.Redirects)
	t.AddRow("duration ms", float64(r.Duration.Microseconds())/1000)
	t.AddRow("throughput req/s", r.Throughput)
	t.AddRow("latency mean µs", r.MeanUS)
	t.AddRow("latency p50 µs", r.P50US)
	t.AddRow("latency p90 µs", r.P90US)
	t.AddRow("latency p99 µs", r.P99US)
	t.AddRow("latency max µs", r.MaxUS)
	if r.Queries > 0 {
		t.AddRow("queries", r.Queries)
		t.AddRow("queries holding", r.QueryHolds)
		t.AddRow("query latency mean µs", r.QueryMeanUS)
		t.AddRow("query latency p50 µs", r.QueryP50US)
		t.AddRow("query latency p99 µs", r.QueryP99US)
	}
	if r.UnexplainedRejects > 0 {
		t.AddRow("rejects without provenance", r.UnexplainedRejects)
	}
	if stats != nil {
		t.AddRow("server decisions", stats.Decisions)
		t.AddRow("server decision mean µs", stats.DecisionLatencyUS.Mean)
		t.AddRow("server decision p50 µs", stats.DecisionLatencyUS.P50)
		t.AddRow("server decision p99 µs", stats.DecisionLatencyUS.P99)
		t.AddRow("shards", stats.Shards)
		t.AddRow("live commitments", stats.Commitments)
	}
	return t
}

// member returns the setup of one loopback-cluster member: rotad's
// serving defaults over locs (nodeConfig), the harness's lease TTL and
// gossip cadence, and the member's log.
func member(locs []resource.Location) func(m *cluster.Member, c *cluster.Config) {
	return func(m *cluster.Member, c *cluster.Config) {
		c.Server = nodeConfig(m.ID, locs, m.Log)
		c.LeaseTTL, c.GossipInterval = leaseTTL, 100*time.Millisecond
		c.Obs, c.Spans = c.Server.Obs, c.Server.Spans
	}
}

// listedBy reports whether every member's table lists id (listed) or
// none does (!listed).
func listedBy(ms []*cluster.Member, id string, listed bool) func() bool {
	return func() bool {
		for _, m := range ms {
			if _, ok := m.Node.Table().Member(id); ok != listed {
				return false
			}
		}
		return true
	}
}

// admitted posts job to baseURL and reports whether it was admitted,
// with the status, body and transport error for a failure message.
func admitted(ctx context.Context, client *http.Client, baseURL string, job workload.Job) (bool, int, []byte, error) {
	status, data, err := postJSON(ctx, client, baseURL+"/v1/admit", job)
	var v server.AdmitResponse
	ok := err == nil && status == http.StatusOK && json.Unmarshal(data, &v) == nil && v.Admit
	return ok, status, data, err
}

// firstAdmit submits fresh one-location jobs on loc, named prefix-0,
// prefix-1, …, through baseURL until one is admitted, and returns the
// milliseconds from since to that admission. It gives up once bound has
// passed since since.
func firstAdmit(ctx context.Context, client *http.Client, baseURL, prefix string, loc resource.Location, start interval.Time, since time.Time, bound time.Duration) (float64, error) {
	for attempt := 0; ; attempt++ {
		job, err := probeJob(fmt.Sprintf("%s-%d", prefix, attempt), start, loc)
		if err != nil {
			return 0, err
		}
		ok, status, _, err := admitted(ctx, client, baseURL, job)
		if ok {
			return msSince(since), nil
		}
		if time.Since(since) > bound {
			return 0, fmt.Errorf("no admit on %s within %s (last status %d, err %v)", loc, bound, status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// probeJob builds a job over (start, horizon) with one actor evaluating
// at each of locs. Locations with different owners force two-phase
// coordination.
func probeJob(name string, start interval.Time, locs ...resource.Location) (workload.Job, error) {
	actors := make([]compute.Computation, len(locs))
	for i, loc := range locs {
		actor := compute.ActorName(fmt.Sprintf("a%d", i+1))
		c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, loc, 1))
		if err != nil {
			return workload.Job{}, err
		}
		actors[i] = c
	}
	dist, err := compute.NewDistributed(name, start, horizon, actors...)
	if err != nil {
		return workload.Job{}, err
	}
	return workload.Job{Dist: dist}, nil
}
