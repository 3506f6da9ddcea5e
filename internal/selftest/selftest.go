// Package selftest is rotad's end-to-end acceptance harness and load
// client. It boots the daemon in-process on loopback ports — one node,
// a cluster, or a cluster under a seeded kill/partition/heal schedule —
// drives a synthetic workload through the real HTTP stack, runs its
// probes, audits every ledger, and fails on any broken invariant. The
// harness is the environment the daemon serves, not part of it:
// cmd/rotaload is its command line.
package selftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
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
	ln, baseURL, err := listen()
	if err != nil {
		return err
	}
	httpSrv := serve(ln, srv)
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

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve runs h on ln in the background.
func serve(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv
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

// member is one node slot of a loopback cluster. The chaos schedule
// kills a slot and restarts it as a fresh joiner under the same ID, so
// a slot's index stays meaningful across the whole run.
type member struct {
	id, url string
	nd      *cluster.Node
	http    *http.Server
	spans   *span.Store
	log     *syncLog // one sink per slot, across restarts
	alive   bool
}

// fleet is the harness's loopback cluster.
type fleet struct {
	locs    []resource.Location
	members []*member
	// wire adjusts a node's cluster config before it starts: the chaos
	// schedule's fault transport and failure-detector settings.
	wire func(m *member, c *cluster.Config)
}

// boot starts n seed members owning disjoint shares of locs. Listeners
// come first, so every peer URL is known before any node starts.
func boot(n int, locs []resource.Location, wire func(*member, *cluster.Config)) (*fleet, error) {
	f := &fleet{locs: locs, wire: wire}
	parts := cluster.PartitionLocations(locs, n)
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range peers {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), URL: url, Locations: parts[i]}
	}
	for i, p := range peers {
		m := &member{id: p.ID, url: p.URL, log: &syncLog{}}
		f.members = append(f.members, m)
		if err := f.start(m, lns[i], peers, false); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// start runs a fresh node in slot m, serving on ln: a seed member of
// peers, or a blank joiner when join is set.
func (f *fleet) start(m *member, ln net.Listener, peers []cluster.Peer, join bool) error {
	scfg := nodeConfig(m.id, f.locs, m.log)
	c := cluster.Config{
		Self:           m.id,
		Peers:          peers,
		Join:           join,
		Server:         scfg,
		LeaseTTL:       leaseTTL,
		GossipInterval: 100 * time.Millisecond,
		Obs:            scfg.Obs,
		Spans:          scfg.Spans,
	}
	if f.wire != nil {
		f.wire(m, &c)
	}
	nd, err := cluster.New(c)
	if err != nil {
		return err
	}
	m.nd, m.http, m.spans, m.alive = nd, serve(ln, nd), scfg.Spans, true
	return nil
}

// join starts a fresh node in slot m on a new port and joins it to the
// cluster through via, asking for pins.
func (f *fleet) join(m *member, via string, pins []resource.Location) error {
	ln, url, err := listen()
	if err != nil {
		return err
	}
	m.url = url
	if err := f.start(m, ln, []cluster.Peer{{ID: m.id, URL: url}}, true); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.nd.JoinCluster(ctx, via, pins)
}

// kill stops a member dead: inbound first, then outbound. A node that
// only lost its listener keeps gossiping, gets fenced, and rejoins.
func (m *member) kill() error {
	m.alive = false
	m.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.nd.Shutdown(ctx)
}

// stop kills every live member.
func (f *fleet) stop() {
	for _, m := range f.live() {
		_ = m.kill()
	}
}

// live lists the members currently running.
func (f *fleet) live() []*member {
	var out []*member
	for _, m := range f.members {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

// nodes lists the running members' nodes.
func (f *fleet) nodes() []*cluster.Node {
	var out []*cluster.Node
	for _, m := range f.live() {
		out = append(out, m.nd)
	}
	return out
}

// urls lists the running members' base URLs.
func (f *fleet) urls() []string {
	var out []string
	for _, m := range f.live() {
		out = append(out, m.url)
	}
	return out
}

// syncLog is a concurrency-safe log sink: a node's Observer writes
// under its own lock, but the harness reads while the node runs.
type syncLog struct {
	mu  sync.Mutex
	buf []byte
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	return len(p), nil
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// waitFor polls cond every 20ms until it holds (true) or timeout passes
// (false).
func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// listedBy reports whether every member's table lists id (listed) or
// none does (!listed).
func listedBy(ms []*member, id string, listed bool) func() bool {
	return func() bool {
		for _, m := range ms {
			if _, ok := m.nd.Table().Member(id); ok != listed {
				return false
			}
		}
		return true
	}
}

// ledgerHomes counts how many of the given nodes' ledgers hold a
// commitment — exactly 1 for anything that survived a handoff intact.
func ledgerHomes(nodes []*cluster.Node, name string) int {
	homes := 0
	for _, nd := range nodes {
		if _, ok := nd.Server().Ledger().Commitment(name); ok {
			homes++
		}
	}
	return homes
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
