package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/health"
	"repro/internal/interval"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/workload"
)

// Config parameterizes one cluster node.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers is the seed membership, including self. Location ownership
	// must be disjoint (ValidatePeers). It seeds the epoch-1 membership
	// table; joins and leaves move it from there.
	Peers []Peer
	// Join starts this node as an unassigned joiner: Peers must name
	// only self (its URL is what other members will dial), the node owns
	// no locations, and ownership arrives via JoinCluster.
	Join bool
	// Server configures the embedded rotad core. Theta may be the whole
	// cluster's availability: it is filtered to this node's locations,
	// and Owned is overwritten with them.
	Server server.Config
	// LeaseTTL is how long a prepared hold lives on the owner's ledger
	// clock before the expiry sweep reclaims it; default 50 ticks.
	LeaseTTL interval.Time
	// GossipInterval paces the Θ/reserved summary broadcast; default 1s,
	// negative disables.
	GossipInterval time.Duration
	// RPCTimeout bounds each peer RPC attempt; default 2s.
	RPCTimeout time.Duration
	// RPCRetries is how many times a failed peer RPC is retried with
	// jittered backoff; default 2.
	RPCRetries int
	// RPCBackoffBase is the first retry's backoff (doubling per
	// attempt, ±50% jitter); default 25ms.
	RPCBackoffBase time.Duration
	// RPCBackoffCap caps the exponential backoff; default 400ms.
	RPCBackoffCap time.Duration
	// Transport, when set, wraps every outbound peer RPC — the
	// fault-injection hook (internal/fault). Nil uses the process
	// default transport.
	Transport http.RoundTripper
	// SuspectPhi is the φ-accrual level at which a peer is suspected
	// (excluded from steward election, advertised in gossip); 0 keeps
	// the detector's default (8).
	SuspectPhi float64
	// EvictPhi is the φ level at which a peer is locally declared dead.
	// A positive value ALSO enables automatic failover: when a quorum
	// of survivors agrees, the deterministic runner-up steward
	// force-leaves the victim with no operator involvement. 0 disables
	// auto-eviction (the detector still runs for the φ gauge).
	EvictPhi float64
	// StewardWait bounds how long a join/leave queues behind another
	// membership change on the same steward before failing with a clear
	// error; default 10s.
	StewardWait time.Duration
	// Obs is the observability sink shared with the embedded server:
	// structured event logging and trace correlation across the
	// federation protocol. Nil disables event logging.
	Obs *obs.Observer
	// Spans is the span store shared with the embedded server: one node,
	// one ring buffer, whichever layer recorded the span. Nil disables
	// span tracing.
	Spans *span.Store
}

// peerState is one peer plus everything this node has learned about it.
type peerState struct {
	Peer
	isSelf bool
	rpc    *metrics.RPCStats

	mu              sync.Mutex
	lastHeard       time.Time
	lastNow         interval.Time
	lastHolds       int
	lastLedgerEpoch uint64
}

// Node is one member of a rotad federation: an embedded rotad core that
// owns a subset of locations, plus the peer layer that routes and
// coordinates admissions across the cluster. Create with New, serve via
// the http.Handler interface, stop with Shutdown.
type Node struct {
	cfg    Config
	self   *peerState
	srv    *server.Server
	policy admission.Policy
	client *rpcClient
	mux    *http.ServeMux
	obs    *obs.Observer
	spans  *span.Store

	// reg publishes the epoch-versioned ownership table; pmu guards the
	// peer-state list derived from it (plus transient peers minted from
	// redirects before their table arrived).
	reg   *membership.Registry
	pmu   sync.RWMutex
	peers []*peerState // membership order, including self
	byID  map[string]*peerState

	// mmu serializes membership changes this node stewards: a
	// 1-slot semaphore so a second change queues behind the first with
	// a bounded wait (acquireSteward) instead of blocking forever.
	mmu         chan struct{}
	stewardWait time.Duration

	// flowMu is the handoff freeze: every path that mutates or reads
	// ledger flow state holds it shared, executeHandoff holds it
	// exclusive across export→install→drop so no reservation can land in
	// the gap and be lost.
	flowMu sync.RWMutex

	// omu guards the routing overlays that bridge a handoff and the
	// next table broadcast (see membership.go). pendingOwned maps each
	// installed-but-not-yet-granted location to the table epoch its
	// install belongs to, so a final table that assigns it elsewhere
	// (a rolled-back plan) clears the overlay AND the installed state.
	omu          sync.Mutex
	pendingOwned map[resource.Location]uint64
	handedOff    map[resource.Location]ownerRef
	learned      map[resource.Location]ownerRef
	movedKeys    map[string]ownerRef

	// smu guards the warm-standby shadows gossip ships here.
	smu         sync.Mutex
	shadows     map[resource.Location]server.LocationExport
	lastShipped uint64 // ledger epoch at the last shadow shipment (gossip goroutine only)

	// Failure detection and self-healing (see health.go). hmu guards
	// the accusation ledger, the per-victim eviction guards, and the
	// suspect snapshot gossiped to peers; imu guards the intent journal
	// (own open choreography plus the last open intent heard from each
	// peer steward).
	detector    *health.Detector
	autoEvict   bool
	gossipEvery time.Duration
	hmu         sync.Mutex
	accusals    map[string]map[string]time.Time // victim → accuser → heard-at
	evicting    map[string]bool
	suspects    []string
	imu         sync.Mutex
	intents     map[string]*membership.Intent // steward → open intent
	rejoining   atomic.Bool
	// left is set once this node has handed off its locations for its
	// own graceful leave: a table without it is then its departure, not
	// an eviction to recover from. A successful JoinCluster clears it.
	left atomic.Bool

	httpStats map[string]*obs.EndpointStats

	maxBody  int64
	leaseTTL interval.Time
	seq      atomic.Uint64

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
	coordWg      sync.WaitGroup
	gossipWg     sync.WaitGroup

	forwarded     atomic.Uint64
	misrouted     atomic.Uint64
	coordinations atomic.Uint64
	coordAdmitted atomic.Uint64
	coordRejected atomic.Uint64
	coordFailed   atomic.Uint64
	crashes       atomic.Uint64
	migrations    atomic.Uint64
	releases      atomic.Uint64
	fanouts       atomic.Uint64
	coordLatency  *metrics.Histogram

	joins             atomic.Uint64
	leaves            atomic.Uint64
	handoffs          atomic.Uint64
	promotions        atomic.Uint64
	redirectsServed   atomic.Uint64
	redirectsFollowed atomic.Uint64
	tableApplies      atomic.Uint64
	shadowShips       atomic.Uint64
	shadowMisses      atomic.Uint64

	autoEvictions atomic.Uint64
	rejoins       atomic.Uint64
	intentRepairs atomic.Uint64
	fencedGossip  atomic.Uint64
	suspectedNow  atomic.Uint64 // gauge: peers currently suspect or worse

	// Test instrumentation (see InjectCrashBeforeCommit / SetGate).
	crashNext atomic.Bool
	gate      func(stage, key string)
}

// New builds and starts a cluster node. The embedded server's Theta is
// filtered to this node's owned locations, so every node may be handed
// the same cluster-wide availability.
func New(cfg Config) (*Node, error) {
	if cfg.Join {
		if len(cfg.Peers) != 1 || cfg.Peers[0].ID != cfg.Self || cfg.Peers[0].URL == "" {
			return nil, errors.New("cluster: join mode needs exactly one peer entry: self with its URL")
		}
		if len(cfg.Peers[0].Locations) != 0 {
			return nil, errors.New("cluster: a joiner owns no locations until the steward assigns them")
		}
	} else if err := ValidatePeers(cfg.Peers); err != nil {
		return nil, err
	}
	dopts := health.Defaults()
	if cfg.SuspectPhi > 0 {
		dopts.SuspectPhi = cfg.SuspectPhi
	}
	if cfg.EvictPhi > 0 {
		dopts.EvictPhi = cfg.EvictPhi
	}
	if cfg.GossipInterval > 0 {
		// Gossip receipt is the heartbeat, so the first-heartbeat
		// estimate for a roster member we have never heard from is a
		// wide multiple of the gossip cadence.
		dopts.BootstrapInterval = 5 * cfg.GossipInterval
	}
	n := &Node{
		cfg:    cfg,
		byID:   make(map[string]*peerState),
		policy: &admission.Rota{},
		client: newRPCClient(rpcOptions{
			timeout:     cfg.RPCTimeout,
			retries:     pickRetries(cfg.RPCRetries),
			backoffBase: cfg.RPCBackoffBase,
			backoffCap:  cfg.RPCBackoffCap,
			transport:   cfg.Transport,
		}, cfg.Obs, cfg.Spans),
		mmu:          make(chan struct{}, 1),
		stewardWait:  cfg.StewardWait,
		shutdownCh:   make(chan struct{}),
		leaseTTL:     cfg.LeaseTTL,
		coordLatency: metrics.NewHistogram(),
		obs:          cfg.Obs,
		spans:        cfg.Spans,
		httpStats:    make(map[string]*obs.EndpointStats),
		pendingOwned: make(map[resource.Location]uint64),
		handedOff:    make(map[resource.Location]ownerRef),
		learned:      make(map[resource.Location]ownerRef),
		movedKeys:    make(map[string]ownerRef),
		shadows:      make(map[resource.Location]server.LocationExport),
		detector:     health.NewDetector(dopts),
		autoEvict:    cfg.EvictPhi > 0,
		accusals:     make(map[string]map[string]time.Time),
		evicting:     make(map[string]bool),
		intents:      make(map[string]*membership.Intent),
	}
	if n.leaseTTL <= 0 {
		n.leaseTTL = 50
	}
	if n.stewardWait <= 0 {
		n.stewardWait = 10 * time.Second
	}
	members := make([]membership.Member, 0, len(cfg.Peers))
	seedOwners := make(map[resource.Location]string)
	for i := range cfg.Peers {
		ps := &peerState{Peer: cfg.Peers[i], rpc: metrics.NewRPCStats()}
		ps.isSelf = ps.ID == cfg.Self
		if ps.isSelf {
			n.self = ps
		}
		n.peers = append(n.peers, ps)
		n.byID[ps.ID] = ps
		members = append(members, membership.Member{ID: ps.ID, URL: ps.URL})
		for _, loc := range ps.Locations {
			seedOwners[loc] = ps.ID
		}
	}
	if n.self == nil {
		return nil, fmt.Errorf("cluster: self %q not in peer table", cfg.Self)
	}
	seed := membership.NewTable(members, seedOwners)
	if err := seed.Validate(); err != nil {
		return nil, err
	}
	n.reg = membership.NewRegistry(seed)

	scfg := cfg.Server
	scfg.Owned = seed.Locations(n.self.ID)
	if scfg.Owned == nil {
		scfg.Owned = []resource.Location{} // joiner: own nothing, not everything
	}
	scfg.Theta = filterTheta(scfg.Theta, seed, n.self.ID)
	scfg.Obs = cfg.Obs
	scfg.Spans = cfg.Spans
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.maxBody = 1 << 20
	// Standing watches evaluate through the cluster so their verdicts
	// stay correct when footprint locations change owners.
	srv.SetWatchEvaluator(n.clusterEval)

	n.mux = http.NewServeMux()
	n.route("POST /v1/admit", "admit", n.handleAdmit)
	n.route("POST /v1/release", "release", n.handleRelease)
	n.route("GET /v1/query", "query", n.handleQuery)
	n.route("POST /v1/query", "query.eval", n.handleQueryPost)
	n.route("GET /v1/stats", "stats", n.handleStats)
	n.route("GET /v1/assure", "assure", n.handleAssure)
	n.route("POST /v1/cluster/gossip", "cluster.gossip", n.handleGossip)
	n.route("GET /v1/cluster/peers", "cluster.peers", n.handlePeers)
	n.route("POST /v1/cluster/migrate", "cluster.migrate", n.handleMigrate)
	n.route("POST /v1/cluster/advance", "cluster.advance", n.handleClusterAdvance)
	n.route("POST /v1/cluster/join", "cluster.join", n.handleJoin)
	n.route("POST /v1/cluster/leave", "cluster.leave", n.handleLeave)
	n.route("POST /v1/cluster/handoff", "cluster.handoff", n.handleHandoff)
	n.route("POST /v1/cluster/install", "cluster.install", n.handleInstall)
	n.route("POST /v1/cluster/promote", "cluster.promote", n.handlePromote)
	n.route("POST /v1/cluster/shadow", "cluster.shadow", n.handleShadow)
	n.route("GET /v1/cluster/owned", "cluster.owned", n.handleOwned)
	n.route("GET /v1/cluster/table", "cluster.table", n.handleTableGet)
	n.route("POST /v1/cluster/table", "cluster.table.apply", n.handleTablePost)
	n.route("POST /v1/cluster/prepare", "cluster.prepare", n.handlePrepareIntercept)
	n.route("GET /v1/cluster/free", "cluster.free", n.handleFreeIntercept)
	n.route("POST /v1/cluster/commit", "cluster.commit", n.handleCommitIntercept)
	n.route("POST /v1/cluster/abort", "cluster.abort", n.handleAbortIntercept)
	n.mux.HandleFunc("GET /metrics", obs.Handler(n))
	n.mux.Handle("/", srv)
	// Flight-recorder snapshots on a cluster node carry the membership
	// digest of the instant the trigger fired.
	if rec := srv.FlightRecorder(); rec != nil {
		rec.SetState(n.FlightState)
	}

	interval := cfg.GossipInterval
	if interval == 0 {
		interval = time.Second
	}
	n.gossipEvery = interval
	if interval > 0 {
		n.gossipWg.Add(1)
		go n.gossipLoop(interval)
	}
	return n, nil
}

// route registers an instrumented cluster-layer handler: per-endpoint
// request/latency/status counters plus trace-ID minting. Requests the
// node delegates to the embedded server are instrumented again there
// under layer="server" labels; the trace ID minted here carries through.
func (n *Node) route(pattern, endpoint string, h http.HandlerFunc) {
	es := obs.NewEndpointStats(endpoint)
	n.httpStats[endpoint] = es
	n.mux.HandleFunc(pattern, obs.Instrument(es, h))
}

func pickRetries(r int) int {
	if r == 0 {
		return 2
	}
	return r
}

// filterTheta keeps only the terms whose owning shard belongs to self
// under the given table.
func filterTheta(theta resource.Set, tbl *membership.Table, selfID string) resource.Set {
	var out resource.Set
	for _, t := range theta.Terms() {
		if id, ok := tbl.OwnerOf(t.Type.Loc); ok && id == selfID {
			out.Add(t)
		}
	}
	return out
}

// Server exposes the embedded rotad core (selftest and tests).
func (n *Node) Server() *server.Server { return n.srv }

// ID returns this node's identity.
func (n *Node) ID() string { return n.self.ID }

// ServeHTTP implements http.Handler: the cluster layer intercepts the
// routed endpoints and delegates everything else (including the
// node-local /v1/cluster/prepare|commit|abort|free protocol half) to the
// embedded server.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// InjectCrashBeforeCommit arms a one-shot simulated coordinator crash:
// the next federated admission this node coordinates stops dead after
// its prepares succeed — no commit, no abort — leaving the leases to
// expire on the participants. Test-only instrumentation for the
// crash-safety property.
func (n *Node) InjectCrashBeforeCommit() { n.crashNext.Store(true) }

// SetGate installs a test hook invoked at named protocol stages
// (currently "prepared", between the prepare and commit phases). Must be
// set before the node serves traffic.
func (n *Node) SetGate(gate func(stage, key string)) { n.gate = gate }

func (n *Node) draining() bool {
	select {
	case <-n.shutdownCh:
		return true
	default:
		return false
	}
}

// Shutdown drains the node: gossip stops, in-flight coordinations abort
// their outstanding prepares instead of leaking them, and the embedded
// server waits out its in-flight admits.
func (n *Node) Shutdown(ctx context.Context) error {
	n.shutdownOnce.Do(func() { close(n.shutdownCh) })
	done := make(chan struct{})
	go func() {
		n.coordWg.Wait()
		n.gossipWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain interrupted: %w", ctx.Err())
	}
	return n.srv.Shutdown(ctx)
}

// ownersOf groups a job's footprint by owning peer, as resolved by the
// live ownership table and its overlays.
func (n *Node) ownersOf(dist compute.Distributed) (map[*peerState][]resource.Location, error) {
	out := make(map[*peerState][]resource.Location)
	for _, loc := range dist.Locations() {
		ref, ok := n.lookupOwner(loc)
		if !ok {
			return nil, fmt.Errorf("cluster: no node owns location %s", loc)
		}
		ps := n.peerFor(ref)
		out[ps] = append(out[ps], loc)
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: job consumes no resources")
	}
	return out, nil
}

// handleAdmit is the cluster-aware admission entry point: local jobs are
// decided by the embedded server, single-remote-owner jobs are
// forwarded to their owner, and jobs spanning owners are coordinated
// with the two-phase protocol. Forwarded requests (peer-routed) are
// validated again and never re-forwarded.
func (n *Node) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if n.draining() {
		httpError(w, http.StatusServiceUnavailable, errors.New("cluster: draining, not accepting new admissions"))
		return
	}
	body, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The buffer goes back to the pool unless a peer was sent it.
	sent := false
	defer func() {
		if !sent {
			body.Release()
		}
	}()
	// Validation runs here for locally submitted AND peer-forwarded
	// jobs: a misbehaving peer cannot push an invalid job past the wire.
	job, err := server.DecodeAdmitRequest(body.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	forwarded := r.Header.Get(headerForwarded) != ""
	for attempt := 0; ; attempt++ {
		owners, err := n.ownersOf(job.Dist)
		if err != nil {
			n.misrouted.Add(1)
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		_, ownsSelf := owners[n.self]
		if forwarded && (len(owners) != 1 || !ownsSelf) {
			// A peer routed this here, but we are not its sole owner. If
			// ownership just moved, answer with a redirect the sender can
			// follow; otherwise count and refuse rather than bouncing the
			// job around the cluster.
			if red, ok := n.redirectFor(job.Dist.Locations()); ok {
				n.serveRedirect(w, red)
				return
			}
			n.misrouted.Add(1)
			httpError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("cluster: %s forwarded %s here, but %s does not own its whole footprint",
					r.Header.Get(headerForwarded), job.Dist.Name, n.self.ID))
			return
		}
		retry := false
		switch {
		case len(owners) == 1 && ownsSelf:
			retry = n.admitLocal(w, r, job, body.Bytes())
		case len(owners) == 1:
			for ps := range owners {
				sent = true
				retry = n.forward(w, r, ps, body.Bytes())
			}
		default:
			retry = n.coordinate(w, r, job, owners)
		}
		if !retry {
			return
		}
		if attempt >= maxOwnerRetries {
			n.misrouted.Add(1)
			httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("cluster: ownership of %s's footprint kept moving, giving up after %d retries",
					job.Dist.Name, attempt))
			return
		}
	}
}

// admitLocal serves a whole-footprint-local admission under the handoff
// freeze. If the footprint left this node while we waited for the
// freeze to lift, it reports retry so the caller re-resolves owners
// instead of burning the request on ErrNotOwned.
func (n *Node) admitLocal(w http.ResponseWriter, r *http.Request, job workload.Job, body []byte) (retry bool) {
	n.flowMu.RLock()
	defer n.flowMu.RUnlock()
	for _, loc := range job.Dist.Locations() {
		if ref, ok := n.lookupOwner(loc); !ok || ref.id != n.self.ID {
			return true
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.srv.ServeHTTP(w, r)
	return false
}

// forward relays a single-owner admit to the owning peer and relays the
// peer's verdict back verbatim. A 421 redirect is consumed here: the
// new owner is learned and the caller retries against it. A 2xx verdict
// longer than the peer-response limit is refused as a 502: if it was an
// admission, the peer holds the reservation while the client is told the
// forward failed: that verdict is lost.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, ps *peerState, body []byte) (retry bool) {
	n.forwarded.Add(1)
	sctx, sp := n.spans.Start(r.Context(), span.KindForward)
	defer sp.End()
	sp.Attr("peer", ps.ID)
	headers := map[string]string{
		headerForwarded:   n.self.ID,
		headerIdempotency: n.nextKey("fwd"),
	}
	status, data, err := n.client.proxy(sctx, ps.URL+"/v1/admit", body, headers, ps.rpc)
	if err != nil {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadGateway, fmt.Errorf("cluster: forwarding to %s: %w", ps.ID, err))
		return false
	}
	if status == http.StatusMisdirectedRequest {
		if red, derr := membership.DecodeRedirect(data); derr == nil {
			n.learnRedirect(red)
			sp.Attr("outcome", "redirected")
			return true
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
	return false
}

// nextKey mints a cluster-unique idempotency key.
func (n *Node) nextKey(kind string) string {
	return fmt.Sprintf("%s.%s.%d", n.self.ID, kind, n.seq.Add(1))
}

// participant is one owner's slice of a federated admission.
type participant struct {
	ps     *peerState
	locs   []resource.Location
	demand resource.Set
	now    interval.Time
	held   bool
}

// freeOn fetches one owner's free availability for the given locations.
func (n *Node) freeOn(ctx context.Context, ps *peerState, locs []resource.Location) (resource.Set, interval.Time, error) {
	if ps.isSelf {
		n.flowMu.RLock()
		free, now, err := n.srv.Ledger().FreeView(locs)
		n.flowMu.RUnlock()
		if errors.Is(err, server.ErrNotOwned) {
			err = fmt.Errorf("%w: %v", errStaleOwner, err)
		}
		return free, now, err
	}
	parts := make([]string, len(locs))
	for i, loc := range locs {
		parts[i] = string(loc)
	}
	var resp server.FreeResponse
	target := ps.URL + "/v1/cluster/free?locs=" + url.QueryEscape(strings.Join(parts, ","))
	if err := n.client.call(ctx, http.MethodGet, target, nil, &resp, nil, ps.rpc); err != nil {
		return resource.Set{}, 0, fmt.Errorf("cluster: free view from %s: %w", ps.ID, err)
	}
	free, err := resource.ParseSet(resp.Free)
	if err != nil {
		return resource.Set{}, 0, fmt.Errorf("cluster: free view from %s unparsable: %w", ps.ID, err)
	}
	return free, resp.Now, nil
}

// prepareOn asks one owner to hold a sub-plan. A nil error means the
// slice is held; an *admission.Overcommit (errors.Is
// server.ErrOvercommit) is the owner's capacity refusal; anything else
// is a protocol failure.
func (n *Node) prepareOn(ctx context.Context, p *participant, key, name string, finish, deadline, expiry interval.Time) error {
	if p.ps.isSelf {
		n.flowMu.RLock()
		err := n.srv.Ledger().Prepare(key, name, p.demand, finish, deadline, expiry)
		n.flowMu.RUnlock()
		if errors.Is(err, server.ErrNotOwned) {
			return fmt.Errorf("%w: %v", errStaleOwner, err)
		}
		return err
	}
	req := server.PrepareRequest{Key: key, Name: name, Demand: p.demand.Compact(),
		Finish: finish, Deadline: deadline, Expiry: expiry}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var resp server.PrepareResponse
	headers := map[string]string{headerIdempotency: key}
	if err := n.client.call(ctx, http.MethodPost, p.ps.URL+"/v1/cluster/prepare", body, &resp, headers, p.ps.rpc); err != nil {
		return fmt.Errorf("cluster: prepare on %s: %w", p.ps.ID, err)
	}
	if !resp.Held {
		return &admission.Overcommit{Shard: resp.Shard, Key: key, Name: name}
	}
	return nil
}

// commitOn promotes one owner's hold.
func (n *Node) commitOn(ctx context.Context, ps *peerState, key string) error {
	if ps.isSelf {
		// finishMoved covers the case where the hold's location left this
		// node mid-2PC: the commit follows it to the new owner.
		return n.finishMoved(ctx, key, "commit")
	}
	body, _ := json.Marshal(server.FinishRequest{Key: key})
	headers := map[string]string{headerIdempotency: key}
	if err := n.client.call(ctx, http.MethodPost, ps.URL+"/v1/cluster/commit", body, nil, headers, ps.rpc); err != nil {
		return fmt.Errorf("cluster: commit on %s: %w", ps.ID, err)
	}
	return nil
}

// abortOn best-effort releases one owner's hold (or rolls back its
// commit). It runs on a detached context so aborts still go out while
// the triggering request is being cancelled or the node is draining —
// span.Detach carries over the parent's trace ID AND its live span
// (previously only the trace was kept, which orphaned every abort span
// from the coordination/migration tree that triggered it), but none of
// its cancellation; a lost abort is reclaimed by the lease sweep.
func (n *Node) abortOn(parent context.Context, ps *peerState, key string) {
	ctx, cancel := context.WithTimeout(span.Detach(parent), n.client.timeout*2)
	defer cancel()
	sctx, sp := n.spans.Start(ctx, span.KindAbort)
	defer sp.End()
	sp.Attr("peer", ps.ID)
	sp.Attr("key", key)
	sp.Attr("detached", true)
	if ps.isSelf {
		if err := n.finishMoved(ctx, key, "abort"); err != nil {
			sp.SetStatus(span.StatusError)
		}
		return
	}
	body, _ := json.Marshal(server.FinishRequest{Key: key})
	headers := map[string]string{headerIdempotency: key}
	if err := n.client.call(sctx, http.MethodPost, ps.URL+"/v1/cluster/abort", body, nil, headers, ps.rpc); err != nil {
		sp.SetStatus(span.StatusError)
	}
}

// coordinate admits a job spanning several owners: plan against the
// merged free views, prepare each owner's sub-plan under a TTL lease,
// then commit everywhere. Any prepare failure aborts the rest; a commit
// failure (an expired lease) rolls everything back. If this coordinator
// dies between prepare and commit, every participant's lease expires and
// the sweep reclaims the holds — no node is ever overcommitted.
// Reports retry=true (nothing written) when a participant turned out to
// no longer own its slice: the caller re-resolves owners and retries.
func (n *Node) coordinate(w http.ResponseWriter, r *http.Request, job workload.Job, owners map[*peerState][]resource.Location) (retry bool) {
	n.coordWg.Add(1)
	defer n.coordWg.Done()
	n.coordinations.Add(1)
	start := time.Now()
	// The coordinate span is the terminal span of a federated admission;
	// free views, the merged plan, and every per-participant prepare,
	// commit and abort nest underneath it (on this node or a peer).
	ctx, csp := n.spans.Start(r.Context(), span.KindCoordinate)
	defer csp.End()
	csp.Attr("job", job.Dist.Name)
	csp.Attr("participants", len(owners))
	trace := obs.Trace(ctx)
	// fail ends the coordination on an error: nothing is admitted.
	fail := func(outcome string, status int, err error) bool {
		csp.SetStatus(span.StatusError)
		csp.Attr("outcome", outcome)
		n.coordFailed.Add(1)
		httpError(w, status, err)
		return false
	}
	key := n.nextKey("2pc." + job.Dist.Name)
	n.obs.Log("coordinate.start",
		"trace", trace, "key", key, "job", job.Dist.Name, "owners", len(owners))

	// Phase 0: merged free view across the footprint. Staleness is safe:
	// prepare re-checks under the owners' shard locks.
	parts := make([]*participant, 0, len(owners))
	for ps, locs := range owners {
		parts = append(parts, &participant{ps: ps, locs: locs})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].ps.ID < parts[j].ps.ID })
	var free resource.Set
	var now interval.Time
	for _, p := range parts {
		set, pnow, err := n.freeOn(ctx, p.ps, p.locs)
		if err != nil {
			if n.staleOwner(err) {
				csp.Attr("outcome", "stale_owner")
				return true
			}
			return fail("failed", http.StatusServiceUnavailable, err)
		}
		free = free.Union(set)
		p.now = pnow
		if pnow > now {
			now = pnow
		}
	}
	if now >= job.Dist.Deadline {
		n.finishCoordination(w, trace, job, start, admission.PastDeadline(job.Dist.Deadline, now), csp, "")
		return false
	}

	// Phase 1: decide against the merged view, exactly like a local
	// admission against one big ledger.
	dec := server.DecideOnFree(ctx, n.spans, n.policy, free, now, job, 0)
	if !dec.Admit {
		n.finishCoordination(w, trace, job, start, dec, csp, "")
		return false
	}
	if dec.Plan == nil {
		return fail("failed", http.StatusInternalServerError, server.ErrPlanless)
	}

	// Split the witness plan's demand by owner (live table), in one pass
	// over its allocations.
	split := make(map[*peerState]resource.Set)
	for _, a := range dec.Plan.Allocs {
		if a.Term.Null() {
			continue
		}
		ref, ok := n.lookupOwner(a.Term.Type.Loc)
		if !ok {
			return fail("failed", http.StatusInternalServerError,
				fmt.Errorf("cluster: plan for %s consumes unowned location %s", job.Dist.Name, a.Term.Type.Loc))
		}
		ps := n.peerFor(ref)
		set := split[ps]
		set.Add(a.Term)
		split[ps] = set
	}
	active := parts[:0]
	for _, p := range parts {
		if demand, ok := split[p.ps]; ok {
			p.demand = demand
			active = append(active, p)
		}
	}
	if len(active) != len(split) {
		// Some demand resolved to an owner that was not a participant:
		// ownership moved between resolution and planning. Retry clean.
		csp.Attr("outcome", "stale_owner")
		return true
	}
	parts = active

	// Phase 2: prepare everywhere, in parallel. Each owner's lease runs
	// on its own ledger clock.
	var wg sync.WaitGroup
	results := make([]error, len(parts))
	for i, p := range parts {
		expiry := p.now
		if now > expiry {
			expiry = now
		}
		expiry += n.leaseTTL
		wg.Add(1)
		go func(i int, p *participant, expiry interval.Time) {
			defer wg.Done()
			results[i] = n.prepareOn(ctx, p, key, job.Dist.Name, dec.Plan.Finish, job.Dist.Deadline, expiry)
		}(i, p, expiry)
	}
	wg.Wait()
	var refusal, protoErr error
	var refuser string
	stale := false
	for i, err := range results {
		parts[i].held = err == nil
		switch {
		case err == nil:
		case errors.Is(err, server.ErrOvercommit):
			if refusal == nil {
				// Remember WHICH participant refused, so the surfaced
				// provenance names the node whose free view failed.
				refusal, refuser = err, parts[i].ps.ID
			}
		case n.staleOwner(err):
			stale = true
		default:
			protoErr = err
		}
	}
	abortHeld := func() {
		for _, p := range parts {
			if p.held {
				n.abortOn(ctx, p.ps, key)
			}
		}
	}
	if protoErr != nil {
		abortHeld()
		return fail("failed", http.StatusServiceUnavailable, protoErr)
	}
	if stale {
		// A participant's slice moved mid-prepare; drop what was held and
		// retry against the refreshed ownership.
		abortHeld()
		csp.Attr("outcome", "stale_owner")
		return true
	}
	if refusal != nil {
		abortHeld()
		verdict := admission.Refuse(refusal)
		verdict.Elapsed = dec.Elapsed
		n.finishCoordination(w, trace, job, start, verdict, csp, refuser)
		return false
	}

	if n.gate != nil {
		n.gate("prepared", key)
	}
	if n.crashNext.CompareAndSwap(true, false) {
		// Simulated coordinator crash: walk away with every participant
		// holding a leased prepare. The lease sweep cleans up.
		n.crashes.Add(1)
		csp.SetStatus(span.StatusError)
		csp.Attr("outcome", "crashed")
		httpError(w, http.StatusInternalServerError,
			fmt.Errorf("cluster: injected coordinator crash before commit of %s", key))
		return false
	}
	if n.draining() {
		// Graceful drain: never leave prepares for the sweep when we can
		// still abort them explicitly.
		abortHeld()
		return fail("aborted", http.StatusServiceUnavailable, errors.New("cluster: draining, aborted in-flight prepare"))
	}

	// Phase 3: commit everywhere. Commits are idempotent and retried;
	// a definitive failure (lease expired first) rolls everything back,
	// including participants already committed.
	var commitErr error
	for _, p := range parts {
		if err := n.commitOn(ctx, p.ps, key); err != nil {
			commitErr = err
			break
		}
	}
	if commitErr != nil {
		for _, p := range parts {
			n.abortOn(ctx, p.ps, key)
		}
		return fail("aborted", http.StatusServiceUnavailable, commitErr)
	}
	n.finishCoordination(w, trace, job, start, dec, csp, "")
	return false
}

// finishCoordination records the verdict on the coordinate span and
// writes the admit response. rejectNode, when set, names the participant
// whose refusal decided a rejection; it is surfaced on the provenance so
// a client can see not just which constraint failed but where.
func (n *Node) finishCoordination(w http.ResponseWriter, trace string, job workload.Job, start time.Time, dec admission.Decision, sp *span.Span, rejectNode string) {
	n.coordLatency.Observe(float64(time.Since(start).Microseconds()))
	sp.Attr("admit", dec.Admit)
	if dec.Admit {
		n.coordAdmitted.Add(1)
		sp.Attr("outcome", "committed")
	} else {
		n.coordRejected.Add(1)
		sp.Attr("outcome", "rejected")
		sp.SetStatus(span.StatusReject)
	}
	n.obs.Log("coordinate.verdict",
		"trace", trace,
		"job", job.Dist.Name,
		"admit", dec.Admit,
		"reason", dec.Reason,
		"total_us", time.Since(start).Microseconds())
	resp := server.Verdict(job, dec)
	if resp.Provenance != nil {
		resp.Provenance.Node = rejectNode
		sp.SetProvenance(resp.Provenance)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRelease releases a job cluster-wide: a federated admission
// leaves one commitment per owning node, so the release fans out to
// every member (forwarded requests stay local — no loops).
func (n *Node) handleRelease(w http.ResponseWriter, r *http.Request) {
	buf, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body := buf.Bytes()
	if r.Header.Get(headerForwarded) != "" {
		defer buf.Release()
		n.flowMu.RLock()
		defer n.flowMu.RUnlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		n.srv.ServeHTTP(w, r)
		return
	}
	// The body fans out to the peers, so buf is not released.
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		httpError(w, http.StatusBadRequest, errors.New("cluster: release needs a name"))
		return
	}
	released := 0
	var lastErr error
	for {
		epoch := n.reg.Epoch()
		for _, ps := range n.releaseTargets() {
			if ps.isSelf {
				n.flowMu.RLock()
				err := n.srv.Ledger().Release(req.Name)
				n.flowMu.RUnlock()
				if err == nil {
					released++
				}
				continue
			}
			headers := map[string]string{headerForwarded: n.self.ID}
			if err := n.client.call(r.Context(), http.MethodPost, ps.URL+"/v1/release", body, nil, headers, ps.rpc); err != nil {
				var se *httpStatusError
				if !errors.As(err, &se) || se.status != http.StatusNotFound {
					lastErr = err
				}
				continue
			}
			released++
		}
		// A pass only covers the roster it started with. A call parked
		// behind a peer's handoff freeze can outlast a join's announce and
		// the handoff itself, and the commitment is then with a member
		// this pass never asked; releases are idempotent, so go round
		// again whenever the table moved underneath.
		if n.reg.Epoch() == epoch {
			break
		}
	}
	if released == 0 {
		if lastErr != nil {
			httpError(w, http.StatusBadGateway, lastErr)
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: %s not committed on any node", req.Name))
		return
	}
	n.releases.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"released": req.Name, "nodes": released})
}

// Gossip is the periodic Θ/reserved summary a node broadcasts: enough
// for peers to see its clock, load, per-location availability, and —
// since dynamic membership — its table epoch (anti-entropy trigger) and
// ledger epoch (standing watches on other nodes re-evaluate when a
// remote ledger they depend on changed).
type Gossip struct {
	Node        string            `json:"node"`
	URL         string            `json:"url,omitempty"`
	Now         interval.Time     `json:"now"`
	Shards      int               `json:"shards"`
	Commitments int               `json:"commitments"`
	Holds       int               `json:"holds"`
	Epoch       uint64            `json:"epoch"`
	LedgerEpoch uint64            `json:"ledger_epoch"`
	Theta       map[string]string `json:"theta"`
	Reserved    map[string]string `json:"reserved"`
	// Suspects names the peers this sender's φ-accrual detector holds
	// at Suspect or worse — the accusation half of quorum eviction.
	Suspects []string `json:"suspects,omitempty"`
	// Intent is the sender's open membership choreography, if it is
	// currently stewarding one — the gossiped journal that lets any
	// survivor repair the plan if the sender dies mid-flight.
	Intent *membership.Intent `json:"intent,omitempty"`
}

func (n *Node) buildGossip() Gossip {
	snap := n.srv.Ledger().Snapshot()
	g := Gossip{
		Node:        n.self.ID,
		URL:         n.self.URL,
		Now:         snap.Now,
		Shards:      len(snap.Shards),
		Commitments: len(snap.Commitments),
		Holds:       len(snap.Holds),
		Epoch:       n.reg.Epoch(),
		LedgerEpoch: n.srv.Ledger().Epoch(),
		Theta:       make(map[string]string, len(snap.Shards)),
		Reserved:    make(map[string]string, len(snap.Shards)),
	}
	for _, sh := range snap.Shards {
		g.Theta[string(sh.Location)] = sh.Theta
		g.Reserved[string(sh.Location)] = sh.Reserved
	}
	n.hmu.Lock()
	g.Suspects = append([]string(nil), n.suspects...)
	n.hmu.Unlock()
	g.Intent = n.ownIntent()
	return g
}

// gossipLoop periodically pushes this node's summary to every peer and
// ships warm-standby shadows when the ledger changed.
func (n *Node) gossipLoop(every time.Duration) {
	defer n.gossipWg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-n.shutdownCh:
			return
		case <-ticker.C:
		}
		body, err := json.Marshal(n.buildGossip())
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.client.timeout)
		for _, ps := range n.peersSnapshot() {
			if ps.isSelf {
				continue
			}
			err := n.client.call(ctx, http.MethodPost, ps.URL+"/v1/cluster/gossip", body, nil, nil, ps.rpc)
			if evictedReply(err) {
				// The peer's table no longer lists us: we were evicted
				// while partitioned. Drop everything and rejoin fresh.
				n.maybeRejoin(ps.URL)
			}
		}
		n.shipShadows(ctx, n.reg.Snapshot())
		n.healthTick(ctx, time.Now())
		cancel()
	}
}

// evictedReply reports whether a gossip call failed because the peer
// fenced us out (421 from a node whose table excludes us).
func evictedReply(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.status == http.StatusMisdirectedRequest
}

func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var g Gossip
	err = json.Unmarshal(body.Bytes(), &g)
	body.Release()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad gossip body: %w", err))
		return
	}
	tbl := n.reg.Snapshot()
	if _, member := tbl.Member(g.Node); !member {
		if g.Epoch > tbl.Epoch && g.URL != "" {
			// A member we have not heard of, on a newer table: fetch it.
			go n.fetchTable(g.URL)
			writeJSON(w, http.StatusOK, map[string]string{"syncing": g.Node})
			return
		}
		// The sender is not in our (equal-or-newer) table: it was
		// evicted. The forward-only registry epoch is the fence — a
		// partitioned-but-alive node that comes back lands here, learns
		// it lost, and rejoins cleanly instead of split-braining.
		n.fencedGossip.Add(1)
		writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
			"error": fmt.Sprintf("cluster: %s is not a member at epoch %d; rejoin required", g.Node, tbl.Epoch),
			"epoch": tbl.Epoch,
		})
		return
	}
	ps, ok := n.peerByID(g.Node)
	if !ok || ps.isSelf {
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("cluster: gossip from unknown node %q", g.Node))
		return
	}
	if g.Epoch > n.reg.Epoch() {
		go n.fetchTable(ps.URL)
	}
	// Gossip receipt IS the heartbeat: feed the φ-accrual detector and
	// the accusation ledger, and journal the sender's open intent.
	n.observeGossip(g, time.Now())
	ps.mu.Lock()
	ps.lastHeard = time.Now()
	ps.lastNow = g.Now
	ps.lastHolds = g.Holds
	ledgerMoved := g.LedgerEpoch != ps.lastLedgerEpoch
	ps.lastLedgerEpoch = g.LedgerEpoch
	ps.mu.Unlock()
	if ledgerMoved {
		// A remote ledger this node's standing watches may depend on
		// changed; re-evaluate them through the cluster evaluator.
		n.srv.Queries().Bump(n.srv.Ledger().Epoch(), "gossip")
	}
	writeJSON(w, http.StatusOK, map[string]string{"ok": g.Node})
}

// PeerStatus is one row of the peer table as surfaced by /v1/stats and
// /v1/cluster/peers.
type PeerStatus struct {
	ID          string             `json:"id"`
	URL         string             `json:"url"`
	Locations   []string           `json:"locations"`
	Self        bool               `json:"self,omitempty"`
	LastHeardMS int64              `json:"last_heard_ms,omitempty"` // ms since last gossip, -1 never
	GossipNow   interval.Time      `json:"gossip_now,omitempty"`
	GossipHolds int                `json:"gossip_holds,omitempty"`
	RPC         metrics.RPCSummary `json:"rpc"`
}

func (n *Node) peerStatuses() []PeerStatus {
	tbl := n.reg.Snapshot()
	peers := n.peersSnapshot()
	out := make([]PeerStatus, 0, len(peers))
	for _, ps := range peers {
		owned := tbl.Locations(ps.ID)
		locs := make([]string, len(owned))
		for i, loc := range owned {
			locs[i] = string(loc)
		}
		st := PeerStatus{ID: ps.ID, URL: ps.URL, Locations: locs, Self: ps.isSelf, RPC: ps.rpc.Summary()}
		ps.mu.Lock()
		if ps.lastHeard.IsZero() {
			st.LastHeardMS = -1
		} else {
			st.LastHeardMS = time.Since(ps.lastHeard).Milliseconds()
		}
		st.GossipNow = ps.lastNow
		st.GossipHolds = ps.lastHolds
		ps.mu.Unlock()
		out = append(out, st)
	}
	return out
}

func (n *Node) handlePeers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"self": n.self.ID, "peers": n.peerStatuses()})
}

// ClusterCounters digests this node's federation-layer activity; its
// metric tags render the same snapshot on /metrics.
type ClusterCounters struct {
	Forwarded       uint64 `json:"forwarded" metric:"rota_cluster_forwarded_total" help:"Single-owner admissions relayed to the owning peer."`
	Misrouted       uint64 `json:"misrouted" metric:"rota_cluster_misrouted_total" help:"Forwarded admissions refused because this node does not own the footprint."`
	Coordinations   uint64 `json:"coordinations" metric:"rota_cluster_coordinations_total" help:"Two-phase federated admissions coordinated by this node."`
	CoordAdmitted   uint64 `json:"coord_admitted" metric:"rota_cluster_coord_admitted_total" help:"Federated admissions that committed on every owner."`
	CoordRejected   uint64 `json:"coord_rejected" metric:"rota_cluster_coord_rejected_total" help:"Federated admissions rejected on capacity."`
	CoordFailed     uint64 `json:"coord_failed" metric:"rota_cluster_coord_failed_total" help:"Federated admissions that failed on protocol or transport errors."`
	InjectedCrashes uint64 `json:"injected_crashes" metric:"rota_cluster_injected_crashes_total" help:"Simulated coordinator crashes (test instrumentation)."`
	Migrations      uint64 `json:"migrations" metric:"rota_cluster_migrations_total" help:"Commitments re-homed onto another node (make-before-break)."`
	Releases        uint64 `json:"releases" metric:"rota_cluster_releases_total" help:"Cluster-wide releases fanned out from this node."`
	// FanoutQueries counts temporal queries answered against merged
	// remote free views (all-local queries delegate to the server layer).
	FanoutQueries uint64 `json:"fanout_queries" metric:"rota_cluster_fanout_queries_total" help:"Temporal queries answered against merged remote free views."`

	// Dynamic-membership counters. MembershipEpoch is the table version
	// this node currently routes by; Joins/Leaves count changes this node
	// stewarded, Handoffs/Promotions ownership moves it executed.
	MembershipEpoch   uint64 `json:"membership_epoch" metric:"rota_cluster_membership_epoch" help:"Ownership-table epoch this node currently routes by."`
	Joins             uint64 `json:"joins" metric:"rota_cluster_joins_total" help:"Membership joins stewarded by this node."`
	Leaves            uint64 `json:"leaves" metric:"rota_cluster_leaves_total" help:"Membership leaves stewarded by this node."`
	Handoffs          uint64 `json:"handoffs" metric:"rota_cluster_handoffs_total" help:"Make-before-break ownership handoffs executed with this node as source."`
	Promotions        uint64 `json:"promotions" metric:"rota_cluster_promotions_total" help:"Standby promotions executed on this node (failover)."`
	RedirectsServed   uint64 `json:"redirects_served" metric:"rota_cluster_redirects_served_total" help:"421 ownership redirects answered for handed-off locations."`
	RedirectsFollowed uint64 `json:"redirects_followed" metric:"rota_cluster_redirects_followed_total" help:"421 ownership redirects this node consumed and learned from."`
	TableApplies      uint64 `json:"table_applies" metric:"rota_cluster_table_applies_total" help:"Newer membership tables installed (steward, broadcast, or anti-entropy)."`
	ShadowShips       uint64 `json:"shadow_ships" metric:"rota_cluster_shadow_ships_total" help:"Warm-standby shadow shipments sent to rendezvous runners-up."`
	ShadowMisses      uint64 `json:"shadow_misses" metric:"rota_cluster_shadow_misses_total" help:"Locations promoted empty because no shadow had arrived."`

	// Self-healing counters. AutoEvictions counts quorum-agreed
	// force-leaves this node stewarded with no operator involvement;
	// Rejoins counts fence-triggered drop-and-rejoin cycles this node
	// performed after being evicted; IntentRepairs counts partially
	// applied membership plans this node finished or rolled back for a
	// dead steward; FencedGossip counts 421s served to evicted senders;
	// SuspectedPeers is the current number of peers at Suspect or worse.
	AutoEvictions  uint64 `json:"auto_evictions" metric:"rota_cluster_auto_evictions_total" help:"Quorum-agreed automatic force-leaves stewarded by this node."`
	Rejoins        uint64 `json:"rejoins" metric:"rota_cluster_rejoins_total" help:"Fence-triggered drop-and-rejoin cycles performed by this node after eviction."`
	IntentRepairs  uint64 `json:"intent_repairs" metric:"rota_cluster_intent_repairs_total" help:"Dead stewards' partially applied membership plans finished or rolled back by this node."`
	FencedGossip   uint64 `json:"fenced_gossip" metric:"rota_cluster_fenced_gossip_total" help:"Gossip messages answered 421 because the sender was evicted (epoch fence)."`
	SuspectedPeers uint64 `json:"suspected_peers" metric:"rota_cluster_suspected_peers" help:"Peers the failure detector currently holds at Suspect or worse."`

	// The JSON cut of the rota_cluster_coordination_latency_us summary,
	// which CollectMetrics renders whole.
	CoordLatencyMeanUS float64 `json:"coord_latency_mean_us" metric:"-"`
	CoordLatencyP50US  float64 `json:"coord_latency_p50_us" metric:"-"`
	CoordLatencyP99US  float64 `json:"coord_latency_p99_us" metric:"-"`
}

// RPCConfig surfaces the peer-RPC tunables actually in effect (flags or
// defaults) so an operator can read back what a node is running with.
type RPCConfig struct {
	TimeoutMS     int64 `json:"timeout_ms"`
	Retries       int   `json:"retries"`
	BackoffBaseMS int64 `json:"backoff_base_ms"`
	BackoffCapMS  int64 `json:"backoff_cap_ms"`
}

// NodeStats is the combined /v1/stats body in cluster mode: the embedded
// server's digest plus the federation layer's counters, failure-detector
// assessments, RPC tuning, and peer table.
type NodeStats struct {
	server.StatsResponse
	Node    string          `json:"node"`
	Cluster ClusterCounters `json:"cluster"`
	Health  HealthStatus    `json:"health"`
	RPC     RPCConfig       `json:"rpc_config"`
	Peers   []PeerStatus    `json:"peers"`
}

// Stats returns the node's combined digest.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		StatsResponse: n.srv.Stats(),
		Node:          n.self.ID,
		Health:        n.healthStatus(),
		RPC: RPCConfig{
			TimeoutMS:     n.client.timeout.Milliseconds(),
			Retries:       n.client.retries,
			BackoffBaseMS: n.client.backoffBase.Milliseconds(),
			BackoffCapMS:  n.client.backoffCap.Milliseconds(),
		},
		Cluster: n.counters(n.coordLatency.Summary()),
		Peers:   n.peerStatuses(),
	}
}

// counters snapshots the federation-layer counters, with lat as the
// coordination-latency digest they carry.
func (n *Node) counters(lat metrics.HistogramSummary) ClusterCounters {
	return ClusterCounters{
		Forwarded:          n.forwarded.Load(),
		Misrouted:          n.misrouted.Load(),
		Coordinations:      n.coordinations.Load(),
		CoordAdmitted:      n.coordAdmitted.Load(),
		CoordRejected:      n.coordRejected.Load(),
		CoordFailed:        n.coordFailed.Load(),
		InjectedCrashes:    n.crashes.Load(),
		Migrations:         n.migrations.Load(),
		Releases:           n.releases.Load(),
		FanoutQueries:      n.fanouts.Load(),
		MembershipEpoch:    n.reg.Epoch(),
		Joins:              n.joins.Load(),
		Leaves:             n.leaves.Load(),
		Handoffs:           n.handoffs.Load(),
		Promotions:         n.promotions.Load(),
		RedirectsServed:    n.redirectsServed.Load(),
		RedirectsFollowed:  n.redirectsFollowed.Load(),
		TableApplies:       n.tableApplies.Load(),
		ShadowShips:        n.shadowShips.Load(),
		ShadowMisses:       n.shadowMisses.Load(),
		AutoEvictions:      n.autoEvictions.Load(),
		Rejoins:            n.rejoins.Load(),
		IntentRepairs:      n.intentRepairs.Load(),
		FencedGossip:       n.fencedGossip.Load(),
		SuspectedPeers:     n.suspectedNow.Load(),
		CoordLatencyMeanUS: lat.Mean,
		CoordLatencyP50US:  lat.P50,
		CoordLatencyP99US:  lat.P99,
	}
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Stats())
}

// MigrateRequest asks this node to re-home a committed job's remaining
// plan onto the target peer — the paper's migrate rule at system scale.
type MigrateRequest struct {
	Name   string `json:"name"`
	Target string `json:"target"`
}

// handleMigrate re-homes a commitment: the remaining demand is re-mapped
// onto the target's locations, prepared and committed there through the
// standard two-phase path, and only then released locally
// (make-before-break: capacity is briefly double-held, never
// double-promised).
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	body, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	err = json.Unmarshal(body.Bytes(), &req)
	body.Release()
	if err != nil || req.Name == "" || req.Target == "" {
		httpError(w, http.StatusBadRequest, errors.New("cluster: migrate needs {name, target}"))
		return
	}
	target, ok := n.peerByID(req.Target)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown target node %s", req.Target))
		return
	}
	if target.isSelf {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster: %s already lives here", req.Name))
		return
	}
	tbl := n.reg.Snapshot()
	selfLocs := tbl.Locations(n.self.ID)
	targetLocs := tbl.Locations(target.ID)
	if len(targetLocs) == 0 {
		httpError(w, http.StatusConflict, fmt.Errorf("cluster: target %s owns no locations", target.ID))
		return
	}
	demand, info, err := n.srv.Ledger().RemainingDemand(req.Name)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	remapped, mapping := remapDemand(demand, selfLocs, targetLocs)

	// The migration span parents everything downstream — including the
	// detached abort issued if the make-before-break handover fails
	// partway, which would otherwise float free of the trace tree.
	sctx, msp := n.spans.Start(r.Context(), span.KindMigrate)
	defer msp.End()
	msp.Attr("job", req.Name)
	msp.Attr("from", n.self.ID)
	msp.Attr("to", target.ID)
	fail := func(outcome string, status int, err error) {
		msp.SetStatus(span.StatusError)
		msp.Attr("outcome", outcome)
		httpError(w, status, err)
	}

	// Lease against the target's clock, then prepare/commit there.
	_, targetNow, err := n.freeOn(sctx, target, targetLocs)
	if err != nil {
		fail("failed", http.StatusServiceUnavailable, err)
		return
	}
	key := n.nextKey("migrate." + req.Name)
	p := &participant{ps: target, demand: remapped}
	err = n.prepareOn(sctx, p, key, req.Name, info.Finish, info.Deadline, targetNow+n.leaseTTL)
	if errors.Is(err, server.ErrOvercommit) {
		msp.SetStatus(span.StatusReject)
		msp.Attr("outcome", "rejected")
		prov := admission.Explain(err)
		prov.Node = target.ID
		msp.SetProvenance(prov)
		httpError(w, http.StatusConflict, fmt.Errorf("cluster: %s cannot accommodate %s: %w", target.ID, req.Name, err))
		return
	}
	if err != nil {
		fail("failed", http.StatusServiceUnavailable, err)
		return
	}
	if err := n.commitOn(sctx, target, key); err != nil {
		n.abortOn(sctx, target, key)
		fail("aborted", http.StatusServiceUnavailable, err)
		return
	}
	// ReleaseTransferred, not Release: the deadline promise moved with
	// the job (the target adopted it at commit) — this node's record is
	// a transfer, not a kept outcome.
	if err := n.srv.Ledger().ReleaseTransferred(req.Name); err != nil {
		// The job now lives on both nodes; roll the target back so the
		// original commitment remains the single source of truth.
		n.abortOn(sctx, target, key)
		fail("aborted", http.StatusInternalServerError, err)
		return
	}
	n.migrations.Add(1)
	msp.Attr("outcome", "migrated")
	n.obs.Log("migrate.done",
		"trace", obs.Trace(r.Context()), "job", req.Name, "target", target.ID, "key", key)
	writeJSON(w, http.StatusOK, map[string]any{
		"migrated": req.Name,
		"from":     n.self.ID,
		"to":       target.ID,
		"mapping":  mapping,
		"demand":   remapped.Compact(),
	})
}

// remapDemand substitutes source locations with target locations
// (round-robin over the sorted lists), preserving kinds, rates and
// windows — the resource-level meaning of moving a computation.
func remapDemand(demand resource.Set, from, to []resource.Location) (resource.Set, map[string]string) {
	srcs := append([]resource.Location(nil), from...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	dsts := append([]resource.Location(nil), to...)
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	m := make(map[resource.Location]resource.Location, len(srcs))
	mapping := make(map[string]string, len(srcs))
	for i, src := range srcs {
		dst := dsts[i%len(dsts)]
		m[src] = dst
		mapping[string(src)] = string(dst)
	}
	var out resource.Set
	for _, t := range demand.Terms() {
		lt := t.Type
		if dst, ok := m[lt.Loc]; ok {
			lt.Loc = dst
		}
		if lt.Dst != "" {
			if dst, ok := m[lt.Dst]; ok {
				lt.Dst = dst
			}
		}
		out.Add(resource.NewTerm(t.Rate, lt, t.Span))
	}
	return out, mapping
}

// handleClusterAdvance fans a clock advance out to every member, so one
// call moves the whole federation's time forward (and with it, every
// node's lease-expiry sweep).
func (n *Node) handleClusterAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Now interval.Time `json:"now"`
	}
	buf, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The body fans out to the peers, so buf is not released.
	body := buf.Bytes()
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad advance body: %w", err))
		return
	}
	peers := n.peersSnapshot()
	results := make(map[string]any, len(peers))
	failed := false
	for _, ps := range peers {
		if ps.isSelf {
			completed, err := n.srv.Ledger().Advance(req.Now)
			if err != nil {
				results[ps.ID] = map[string]string{"error": err.Error()}
				failed = true
				continue
			}
			results[ps.ID] = map[string]any{"now": req.Now, "completed": len(completed)}
			continue
		}
		if err := n.client.call(r.Context(), http.MethodPost, ps.URL+"/v1/advance", body, nil, nil, ps.rpc); err != nil {
			results[ps.ID] = map[string]string{"error": err.Error()}
			failed = true
			continue
		}
		results[ps.ID] = map[string]any{"now": req.Now}
	}
	status := http.StatusOK
	if failed {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, map[string]any{"nodes": results})
}

// HTTP helpers (the server's equivalents are unexported).

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
