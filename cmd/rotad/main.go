// Command rotad is the ROTA admission-control daemon: it maintains a
// live resource ledger sharded by location and serves admit / release /
// acquire / advance / query / stats over an HTTP JSON API, with every
// admission decided by the paper's Theorem 4 against the free (not yet
// reserved) availability.
//
// Usage:
//
//	rotad -addr :8080 -locations 4 -base 4 -horizon 100000
//	rotad -selftest -requests 1000 -clients 8
//	rotad -addr :8081 -node n1 -peers 'n1=http://h:8081=l1,l2;n2=http://h:8082=l3,l4'
//	rotad -selftest -cluster 3 -requests 1000 -clients 8
//
// In -selftest mode the daemon starts on a loopback port, hammers itself
// with a synthetic workload through the real HTTP stack, prints a
// throughput/latency table, audits the ledger invariant, and exits
// non-zero on any inconsistency.
//
// With -node/-peers (or -cluster-config) the daemon joins a static
// federation: it owns its peer-table locations, forwards jobs owned
// elsewhere, and coordinates jobs spanning owners with a two-phase
// leased reservation. -selftest -cluster N boots an N-node loopback
// cluster, injects a coordinator crash between prepare and commit,
// drives the load at every node, and verifies each node's
// no-overcommitment audit plus the lease-expiry sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; gated by -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotad:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotad", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	policyName := fs.String("policy", "rota", "admission policy: rota or rota-exhaustive (must be plan-producing)")
	workers := fs.Int("workers", 0, "concurrent admission decisions (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request decision deadline (slot wait + decision)")
	locations := fs.Int("locations", 4, "number of locations in the initial availability")
	baseRate := fs.Int64("base", 4, "cpu units/tick per location in the initial availability")
	linkRate := fs.Int64("link", 1, "network units/tick per directed link (full mesh)")
	horizon := fs.Int64("horizon", 100000, "initial availability horizon in ticks")
	extraTheta := fs.String("theta", "", "additional availability as a compact resource-set literal")
	selftest := fs.Bool("selftest", false, "run the built-in load test against an in-process daemon and exit")
	requests := fs.Int("requests", 1000, "selftest: total admit requests")
	clients := fs.Int("clients", 8, "selftest: concurrent clients")
	seed := fs.Int64("seed", 42, "selftest: workload seed")
	slack := fs.Float64("slack", 3, "selftest: deadline slack factor")
	csv := fs.Bool("csv", false, "selftest: emit CSV")
	node := fs.String("node", "", "cluster: this node's ID (must appear in the peer table)")
	peersSpec := fs.String("peers", "", "cluster: static peer table, id=url=l1,l2;id=url=l3,... (includes self)")
	clusterConfig := fs.String("cluster-config", "", "cluster: JSON peer-table file {\"nodes\":[{id,url,locations}]} (overrides -peers)")
	joinURL := fs.String("join", "", "cluster: URL of any live member; start as a dynamic joiner and acquire ownership from the steward (needs -node and -self-url)")
	selfURL := fs.String("self-url", "", "cluster: this node's advertised base URL, what other members will dial (required with -join)")
	pinSpec := fs.String("pin", "", "cluster: comma-separated locations to pin onto this node when joining")
	leaseTTL := fs.Int64("lease-ttl", 50, "cluster: prepare-lease TTL in ledger ticks")
	gossip := fs.Duration("gossip", time.Second, "cluster: gossip interval (negative disables)")
	rpcTimeout := fs.Duration("rpc-timeout", 2*time.Second, "cluster: per-attempt peer RPC deadline")
	rpcRetries := fs.Int("rpc-retries", 2, "cluster: retries per failed peer RPC (exponential backoff, jittered)")
	rpcBackoffBase := fs.Duration("rpc-backoff-base", 25*time.Millisecond, "cluster: first retry backoff (doubles per attempt)")
	rpcBackoffCap := fs.Duration("rpc-backoff-cap", 400*time.Millisecond, "cluster: exponential backoff ceiling")
	suspectPhi := fs.Float64("suspect-phi", 0, "cluster: φ-accrual level at which a peer is suspected (0 = detector default 8)")
	evictPhi := fs.Float64("evict-phi", 0, "cluster: φ level declaring a peer dead; > 0 also enables quorum auto-eviction (0 disables)")
	clusterN := fs.Int("cluster", 0, "selftest: boot an N-node loopback cluster instead of a single daemon")
	chaos := fs.Bool("chaos", false, "selftest: randomized kill/partition/heal schedule with automatic failure detection (needs -cluster >= 3)")
	metricsOn := fs.Bool("metrics", true, "serve the Prometheus text exposition on GET /metrics")
	assureOn := fs.Bool("assure", true, "track a deadline-assurance promise per admitted job (GET /v1/assure)")
	flightSize := fs.Int("flightrec-size", flightrec.DefaultEventCap, "anomaly flight-recorder event ring size (snapshots at GET /debug/rota/flightrec; 0 disables)")
	spanCap := fs.Int("span-store", span.DefaultCapacity, "span ring-buffer capacity (spans kept for GET /debug/rota/trace/{id}; 0 disables span tracing)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	slowMS := fs.Int("slow-ms", 0, "log admission decisions slower than this many milliseconds, with per-phase timings (0 disables)")
	logFormat := fs.String("log-format", "kv", "structured event log format: kv or json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	var spans *span.Store
	if *spanCap > 0 {
		spans = span.NewStore(*spanCap, *node)
	}
	// The assure ledger and flight recorder name their records after the
	// node; a single-node daemon has no -node, so fall back to the binary.
	recNode := *node
	if recNode == "" {
		recNode = "rotad"
	}
	var asr *assure.Ledger
	if *assureOn {
		asr = assure.New(recNode)
	}
	var rec *flightrec.Recorder
	if *flightSize > 0 {
		rec = flightrec.New(recNode, *flightSize, flightrec.DefaultSnapshotCap, spans)
	}
	// The daemon logs events to stderr; selftest modes keep the event
	// stream off (the cluster selftest wires its own per-node sinks). The
	// flight recorder tees the same stream into its ring so a snapshot
	// carries the lead-up to its trigger.
	var logSink io.Writer
	if !*selftest {
		logSink = os.Stderr
	}
	if rec != nil {
		if logSink != nil {
			logSink = io.MultiWriter(logSink, rec.Writer())
		} else {
			logSink = rec.Writer()
		}
	}
	observer := obs.New(obs.Options{
		Log:          logSink,
		Format:       format,
		Node:         *node,
		SlowDecision: time.Duration(*slowMS) * time.Millisecond,
	})

	var policy admission.Policy
	switch *policyName {
	case "rota":
		policy = &admission.Rota{}
	case "rota-exhaustive":
		policy = &admission.Rota{Exhaustive: true}
	default:
		return fmt.Errorf("unknown policy %q (rotad needs a plan-producing policy)", *policyName)
	}

	locs := make([]resource.Location, *locations)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	theta := baseTheta(locs, *baseRate, *linkRate, interval.Time(*horizon))
	if *extraTheta != "" {
		extra, err := resource.ParseSet(*extraTheta)
		if err != nil {
			return fmt.Errorf("bad -theta: %w", err)
		}
		theta = theta.Union(extra)
	}

	scfg := server.Config{
		Policy:          policy,
		Theta:           theta,
		Workers:         *workers,
		DecisionTimeout: *timeout,
		Obs:             observer,
		Spans:           spans,
		Assure:          asr,
		FlightRec:       rec,
	}

	rpc := rpcConfig{
		timeout:     *rpcTimeout,
		retries:     *rpcRetries,
		backoffBase: *rpcBackoffBase,
		backoffCap:  *rpcBackoffCap,
		suspectPhi:  *suspectPhi,
		evictPhi:    *evictPhi,
	}

	if *selftest && *chaos {
		if *clusterN < 3 {
			return errors.New("-chaos needs -cluster N with N >= 3 (quorum eviction is undefined below 3 members)")
		}
		// Promise ledgers and flight recorders are strictly per node; the
		// selftest harnesses build their own from the knobs below.
		ccfg := scfg
		ccfg.Assure, ccfg.FlightRec = nil, nil
		return runChaosSelftest(out, chaosSelftestConfig{
			nodes:      *clusterN,
			locs:       locs,
			server:     ccfg,
			leaseTTL:   interval.Time(*leaseTTL),
			requests:   *requests,
			clients:    *clients,
			seed:       *seed,
			slack:      *slack,
			horizon:    interval.Time(*horizon),
			csv:        *csv,
			spanCap:    *spanCap,
			assureOn:   *assureOn,
			flightSize: *flightSize,
		})
	}
	if *selftest && *clusterN > 1 {
		ccfg := scfg
		ccfg.Assure, ccfg.FlightRec = nil, nil
		return runClusterSelftest(out, clusterSelftestConfig{
			nodes:      *clusterN,
			locs:       locs,
			server:     ccfg,
			leaseTTL:   interval.Time(*leaseTTL),
			requests:   *requests,
			clients:    *clients,
			seed:       *seed,
			slack:      *slack,
			horizon:    interval.Time(*horizon),
			csv:        *csv,
			spanCap:    *spanCap,
			assureOn:   *assureOn,
			flightSize: *flightSize,
		})
	}

	if *joinURL != "" {
		if *node == "" || *selfURL == "" {
			return errors.New("-join needs -node (this node's ID) and -self-url (its advertised URL)")
		}
		var pins []resource.Location
		for _, p := range strings.Split(*pinSpec, ",") {
			if p = strings.TrimSpace(p); p != "" {
				pins = append(pins, resource.Location(p))
			}
		}
		nd, err := cluster.New(rpc.apply(cluster.Config{
			Self:           *node,
			Peers:          []cluster.Peer{{ID: *node, URL: strings.TrimSuffix(*selfURL, "/")}},
			Join:           true,
			Server:         scfg,
			LeaseTTL:       interval.Time(*leaseTTL),
			GossipInterval: *gossip,
			Obs:            observer,
			Spans:          spans,
		}))
		if err != nil {
			return err
		}
		// The join RPC runs after the listener is up: the steward's
		// handoffs dial back into this node's install endpoint before the
		// join response arrives.
		join := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := nd.JoinCluster(ctx, strings.TrimSuffix(*joinURL, "/"), pins); err != nil {
				return fmt.Errorf("joining via %s: %w", *joinURL, err)
			}
			tbl := nd.Table()
			fmt.Fprintf(os.Stderr, "rotad: joined as %s (epoch %d, %d locations)\n",
				nd.ID(), tbl.Epoch, len(tbl.Locations(nd.ID())))
			return nil
		}
		return serveHandler(out, debugHandler(nd, *metricsOn, *pprofOn), nd.Shutdown, *addr,
			fmt.Sprintf("rotad: node %s joining cluster via %s", nd.ID(), *joinURL), join)
	}

	var peers []cluster.Peer
	switch {
	case *clusterConfig != "":
		peers, err = cluster.LoadPeersFile(*clusterConfig)
	case *peersSpec != "":
		peers, err = cluster.ParsePeers(*peersSpec)
	}
	if err != nil {
		return err
	}
	if len(peers) > 0 {
		if *node == "" {
			return errors.New("cluster mode needs -node naming this daemon in the peer table")
		}
		nd, err := cluster.New(rpc.apply(cluster.Config{
			Self:           *node,
			Peers:          peers,
			Server:         scfg,
			LeaseTTL:       interval.Time(*leaseTTL),
			GossipInterval: *gossip,
			Obs:            observer,
			Spans:          spans,
		}))
		if err != nil {
			return err
		}
		return serveHandler(out, debugHandler(nd, *metricsOn, *pprofOn), nd.Shutdown, *addr,
			fmt.Sprintf("rotad: node %s listening on %s (%d shards, %d peers)",
				nd.ID(), *addr, nd.Server().Ledger().NumShards(), len(peers)))
	}

	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	if *selftest {
		return runSelftest(out, srv, locs, *requests, *clients, *seed, *slack, interval.Time(*horizon), *csv)
	}
	return serveHandler(out, debugHandler(srv, *metricsOn, *pprofOn), srv.Shutdown, *addr,
		fmt.Sprintf("rotad: listening on %s (%d shards)", *addr, srv.Ledger().NumShards()))
}

// rpcConfig bundles the operator-tunable peer-RPC and failure-detector
// knobs so every cluster.New call site gets the same wiring. The
// resulting values are surfaced back at runtime in /v1/stats (rpc_config
// and health blocks).
type rpcConfig struct {
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
	suspectPhi  float64
	evictPhi    float64
}

func (r rpcConfig) apply(c cluster.Config) cluster.Config {
	c.RPCTimeout = r.timeout
	c.RPCRetries = r.retries
	c.RPCBackoffBase = r.backoffBase
	c.RPCBackoffCap = r.backoffCap
	c.SuspectPhi = r.suspectPhi
	c.EvictPhi = r.evictPhi
	return c
}

// baseTheta builds the initial availability: baseRate cpu per location
// plus a full mesh of linkRate links, all over (0, horizon).
func baseTheta(locs []resource.Location, baseRate, linkRate int64, horizon interval.Time) resource.Set {
	var theta resource.Set
	window := interval.New(0, horizon)
	for _, loc := range locs {
		if baseRate > 0 {
			theta.Add(resource.NewTerm(resource.FromUnits(baseRate), resource.CPUAt(loc), window))
		}
	}
	if linkRate > 0 {
		for _, src := range locs {
			for _, dst := range locs {
				if src != dst {
					theta.Add(resource.NewTerm(resource.FromUnits(linkRate), resource.Link(src, dst), window))
				}
			}
		}
	}
	return theta
}

// debugHandler layers the cmd-level debug surface over the daemon
// handler: /debug/pprof/* is served from DefaultServeMux only when
// enabled, and GET /metrics can be switched off entirely.
func debugHandler(h http.Handler, metricsOn, pprofOn bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/debug/pprof"):
			if !pprofOn {
				http.NotFound(w, r)
				return
			}
			http.DefaultServeMux.ServeHTTP(w, r)
		case r.URL.Path == "/metrics" && !metricsOn:
			http.NotFound(w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// serveHandler runs a daemon (single-node server or cluster node) until
// SIGINT/SIGTERM, then drains gracefully: in-flight work finishes, new
// requests are refused, the listener closes. Any afterListen hooks run
// once the listener is accepting (a dynamic joiner's join RPC must not
// fire before the steward can dial back); a hook error aborts startup.
func serveHandler(out io.Writer, handler http.Handler, shutdown func(context.Context) error, addr, banner string, afterListen ...func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		err := httpSrv.Serve(ln)
		if !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintln(out, banner)
	for _, hook := range afterListen {
		if err := hook(); err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(ctx)
			return err
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "rotad: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "rotad: drained")
	return nil
}

// runSelftest starts the daemon on a loopback port, drives the load
// generator at it over real HTTP, prints the report, and verifies the
// daemon's accounting and ledger invariants.
func runSelftest(out io.Writer, srv *server.Server, locs []resource.Location, requests, clients int, seed int64, slack float64, horizon interval.Time, csv bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = httpSrv.Shutdown(ctx)
	}()

	jobs, err := workload.Generate(workload.Config{
		Seed:             seed,
		Locations:        locs,
		NumJobs:          requests,
		MeanInterarrival: float64(horizon) / float64(requests+1) / 4,
		ActorsMin:        1,
		ActorsMax:        3,
		StepsMin:         1,
		StepsMax:         4,
		SendProb:         0.2,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      slack,
	})
	if err != nil {
		return err
	}

	report, err := server.RunLoad(context.Background(), server.LoadConfig{
		BaseURL:         baseURL,
		Jobs:            jobs,
		Requests:        requests,
		Clients:         clients,
		ReleaseAdmitted: true,
	})
	if err != nil {
		return err
	}
	stats, err := server.FetchStats(context.Background(), baseURL)
	if err != nil {
		return err
	}

	t := metrics.NewTable(
		fmt.Sprintf("rotad selftest: %d requests, %d clients", requests, clients),
		"metric", "value")
	t.AddRow("requests", report.Requests)
	t.AddRow("admitted", report.Admitted)
	t.AddRow("rejected", report.Rejected)
	t.AddRow("released", report.Released)
	t.AddRow("errors", report.Errors)
	t.AddRow("duration ms", float64(report.Duration.Microseconds())/1000)
	t.AddRow("throughput req/s", report.Throughput)
	t.AddRow("client p50 µs", report.P50US)
	t.AddRow("client p99 µs", report.P99US)
	t.AddRow("decision mean µs", stats.DecisionLatencyUS.Mean)
	t.AddRow("decision p50 µs", stats.DecisionLatencyUS.P50)
	t.AddRow("decision p99 µs", stats.DecisionLatencyUS.P99)
	t.AddRow("shards", stats.Shards)
	t.AddRow("live commitments", stats.Commitments)
	if csv {
		t.RenderCSV(out)
	} else {
		t.Render(out)
	}

	// The selftest doubles as an end-to-end acceptance check.
	if report.Errors > 0 {
		return fmt.Errorf("selftest: %d requests errored", report.Errors)
	}
	if stats.Decisions != stats.Admitted+stats.Rejected {
		return fmt.Errorf("selftest: decisions %d != admitted %d + rejected %d",
			stats.Decisions, stats.Admitted, stats.Rejected)
	}
	if int(stats.Decisions) != requests {
		return fmt.Errorf("selftest: daemon decided %d of %d requests", stats.Decisions, requests)
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
	if err := runQueryProbe(context.Background(), httpc, baseURL, locs[0], horizon); err != nil {
		return fmt.Errorf("selftest: query probe: %w", err)
	}
	fmt.Fprintln(out, "query probe ok")
	// Assure probe: every released admission must have resolved to a kept
	// promise, and nothing may have violated — a violation here means the
	// Theorem-4 check admitted something the ledger could not honor.
	if asr := srv.Assure(); asr != nil {
		as := asr.Stats()
		if as.Violated != 0 {
			return fmt.Errorf("selftest: %d promises violated (deadline assurance broken)", as.Violated)
		}
		if as.Kept+as.Active == 0 {
			return errors.New("selftest: promise ledger tracked nothing despite admissions")
		}
		fmt.Fprintf(out, "assure probe ok (%d kept, %d active, attainment %.3f)\n", as.Kept, as.Active, as.Attainment)
	}
	if err := srv.Ledger().Audit(); err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	fmt.Fprintln(out, "selftest ok")
	return nil
}
