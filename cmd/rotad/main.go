// Command rotad is the ROTA admission-control daemon: it maintains a
// live resource ledger sharded by location and serves admit / release /
// acquire / advance / query / stats over an HTTP JSON API, with every
// admission decided by the paper's Theorem 4 against the free (not yet
// reserved) availability.
//
// Usage:
//
//	rotad -addr :8080 -locations 4 -base 4 -horizon 100000
//	rotad -addr :8081 -node n1 -peers 'n1=http://h:8081=l1,l2;n2=http://h:8082=l3,l4'
//
// With -node/-peers (or -cluster-config) the daemon joins a static
// federation: it owns its peer-table locations, forwards jobs owned
// elsewhere, and coordinates jobs spanning owners with a two-phase
// leased reservation. The end-to-end acceptance harness that boots the
// daemon or a cluster in-process and hammers it is cmd/rotaload
// -selftest.
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
	"repro/internal/obs"
	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotad:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotad", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	policyName := fs.String("policy", "rota", "admission policy: rota or rota-exhaustive (must be plan-producing)")
	workers := fs.Int("workers", 0, "concurrent admission decisions (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request decision deadline (slot wait + decision)")
	locations := fs.Int("locations", 4, "number of locations in the initial availability")
	baseRate := fs.Int64("base", 4, "cpu units/tick per location in the initial availability")
	linkRate := fs.Int64("link", 1, "network units/tick per directed link (full mesh)")
	horizon := fs.Int64("horizon", 100000, "initial availability horizon in ticks")
	extraTheta := fs.String("theta", "", "additional availability as a compact resource-set literal")
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
	// The daemon logs events to stderr. The flight recorder tees the same
	// stream into its ring so a snapshot carries the lead-up to its
	// trigger.
	var logSink io.Writer = os.Stderr
	if rec != nil {
		logSink = io.MultiWriter(logSink, rec.Writer())
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

	theta := resource.Mesh(resource.Locations(*locations), *baseRate, *linkRate, interval.Time(*horizon))
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
