package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

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

// clusterSelftestConfig parameterizes the -selftest -cluster N mode: an
// N-node loopback federation hammered through the real HTTP stack, with
// a deterministic coordinator-crash probe and a migration probe around
// the main load.
type clusterSelftestConfig struct {
	nodes      int
	locs       []resource.Location
	server     server.Config
	leaseTTL   interval.Time
	requests   int
	clients    int
	seed       int64
	slack      float64
	horizon    interval.Time
	csv        bool
	spanCap    int
	assureOn   bool
	flightSize int
}

// nodeServerConfig specializes the shared server config for one member:
// its own promise ledger and flight recorder (both strictly node-local).
func (cfg clusterSelftestConfig) nodeServerConfig(id string, spans *span.Store) server.Config {
	scfg := cfg.server
	if cfg.assureOn {
		scfg.Assure = assure.New(id)
	}
	if cfg.flightSize > 0 {
		scfg.FlightRec = flightrec.New(id, cfg.flightSize, flightrec.DefaultSnapshotCap, spans)
	}
	return scfg
}

// runClusterSelftest boots the loopback cluster, injects a coordinator
// crash between prepare and commit of a cross-node job, drives the main
// load at every node, advances every ledger past the lease TTL, and then
// verifies the Theorem-4 invariant: every surviving node's audit passes
// and no lease outlives its TTL past the advance.
func runClusterSelftest(out io.Writer, cfg clusterSelftestConfig) error {
	if len(cfg.locs) < cfg.nodes {
		return fmt.Errorf("cluster selftest: %d nodes need at least %d locations (raise -locations)", cfg.nodes, cfg.nodes)
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = 50
	}

	// Listeners first, so every peer URL is known before any node starts.
	listeners := make([]net.Listener, cfg.nodes)
	peers := make([]cluster.Peer, cfg.nodes)
	parts := cluster.PartitionLocations(cfg.locs, cfg.nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		peers[i] = cluster.Peer{
			ID:        fmt.Sprintf("n%d", i+1),
			URL:       "http://" + ln.Addr().String(),
			Locations: parts[i],
		}
	}

	// Each node gets its own event-log sink so the trace probe below can
	// assert one trace ID shows up on every node a federated admission
	// touches. The buffers are only read while no traffic is in flight.
	nodes := make([]*cluster.Node, cfg.nodes)
	httpSrvs := make([]*http.Server, cfg.nodes)
	logs := make([]*bytes.Buffer, cfg.nodes)
	spanStores := make([]*span.Store, cfg.nodes)
	for i := range nodes {
		logs[i] = &bytes.Buffer{}
		if cfg.spanCap > 0 {
			spanStores[i] = span.NewStore(cfg.spanCap, peers[i].ID)
		}
		nd, err := cluster.New(cluster.Config{
			Self:           peers[i].ID,
			Peers:          peers,
			Server:         cfg.nodeServerConfig(peers[i].ID, spanStores[i]),
			LeaseTTL:       cfg.leaseTTL,
			GossipInterval: 100 * time.Millisecond,
			Obs:            obs.New(obs.Options{Log: logs[i], Node: peers[i].ID}),
			Spans:          spanStores[i],
		})
		if err != nil {
			return err
		}
		nodes[i] = nd
		httpSrvs[i] = &http.Server{Handler: nd}
		go func(i int) { _ = httpSrvs[i].Serve(listeners[i]) }(i)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for i := range nodes {
			_ = nodes[i].Shutdown(ctx)
			_ = httpSrvs[i].Shutdown(ctx)
		}
	}()

	httpc := &http.Client{Timeout: 10 * time.Second}
	ctx := context.Background()

	// Probe 1: coordinator crash. A job spanning n1's and n2's locations
	// forces two-phase coordination on n1; the armed crash stops the
	// coordinator dead after its prepares succeed, leaving leased holds
	// on both participants for the expiry sweep to reclaim.
	crashJob, err := spanningJob("probe-crash", parts[0][0], parts[1][0], 0, cfg.horizon)
	if err != nil {
		return err
	}
	nodes[0].InjectCrashBeforeCommit()
	status, _, err := postJSON(ctx, httpc, peers[0].URL+"/v1/admit", crashJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: crash probe: %w", err)
	}
	if status != http.StatusInternalServerError {
		return fmt.Errorf("cluster selftest: crash probe returned %d, want 500 (injected crash)", status)
	}
	if got := nodes[0].Stats().Cluster.InjectedCrashes; got != 1 {
		return fmt.Errorf("cluster selftest: crash probe left %d injected crashes, want 1", got)
	}
	orphaned := nodes[0].Server().Ledger().NumHolds() + nodes[1].Server().Ledger().NumHolds()
	if orphaned < 2 {
		return fmt.Errorf("cluster selftest: crash probe left %d orphaned holds, want >= 2", orphaned)
	}

	// Probe 2: trace correlation. A job spanning n1 and n2, submitted to
	// the LAST node with an explicit trace ID, exercises the full
	// federation path: coordination there, prepares and commits over HTTP
	// on both owners. The one trace ID must appear in the event log of
	// every node it touched.
	const probeTrace = "selftest-trace-0001"
	coordIdx := cfg.nodes - 1
	traceJob, err := spanningJob("probe-trace", parts[0][0], parts[1][0], 0, cfg.horizon)
	if err != nil {
		return err
	}
	status, data, err := postJSONTrace(ctx, httpc, peers[coordIdx].URL+"/v1/admit", probeTrace, traceJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: trace probe: %w", err)
	}
	var traceVerdict server.AdmitResponse
	if jerr := json.Unmarshal(data, &traceVerdict); status != http.StatusOK || jerr != nil || !traceVerdict.Admit {
		return fmt.Errorf("cluster selftest: trace probe not admitted (status %d, body %s)", status, bytes.TrimSpace(data))
	}
	for _, i := range []int{0, 1, coordIdx} {
		if !strings.Contains(logs[i].String(), "trace="+probeTrace) {
			return fmt.Errorf("cluster selftest: node %s never logged trace %s (log:\n%s)",
				peers[i].ID, probeTrace, logs[i].String())
		}
	}
	if status, _, err := postJSON(ctx, httpc, peers[coordIdx].URL+"/v1/release", map[string]string{"name": "probe-trace"}); err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: releasing trace probe: status %d, err %v", status, err)
	}

	// Probe 2b: span reconstruction. The trace probe's spans, pulled from
	// every node's dump endpoint and merged, must form ONE connected tree
	// — coordinator spans on the coordinating node, RPC attempts beneath
	// them, participant prepares/commits parented across the wire. The
	// terminal spans may still be closing when the verdict arrives, so
	// poll briefly before declaring the tree broken.
	if cfg.spanCap > 0 {
		var tree *span.Tree
		for deadline := time.Now().Add(2 * time.Second); ; {
			var recs []span.Record
			for _, p := range peers {
				dump, err := fetchSpanDump(ctx, httpc, p.URL, probeTrace)
				if err != nil {
					return fmt.Errorf("cluster selftest: span dump from %s: %w", p.ID, err)
				}
				recs = append(recs, dump...)
			}
			tree = span.BuildTree(probeTrace, recs)
			if tree.Connected() && tree.Spans >= 5 {
				break
			}
			if time.Now().After(deadline) {
				var buf bytes.Buffer
				tree.WriteTree(&buf)
				return fmt.Errorf("cluster selftest: trace probe spans never formed a connected tree (%d roots, %d orphans):\n%s",
					len(tree.Roots), tree.Orphans, buf.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Fprintln(out)
		cp := metrics.NewTable(fmt.Sprintf("trace %s critical path (%d spans, connected)", probeTrace, tree.Spans),
			"kind", "node", "total µs", "self µs")
		for _, n := range tree.CriticalPath() {
			cp.AddRow(n.Kind, n.Node, n.DurationUS, n.SelfUS())
		}
		cp.Render(out)
		fmt.Fprintln(out)
		phases := tree.PhaseBreakdown()
		kinds := make([]string, 0, len(phases))
		for k := range phases {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		pb := metrics.NewTable("per-phase latency breakdown", "phase", "total µs")
		for _, k := range kinds {
			pb.AddRow(k, phases[k])
		}
		pb.Render(out)
		fmt.Fprintln(out)
	}

	// Main load: mixed single- and multi-location jobs at every node.
	jobs, err := workload.Generate(workload.Config{
		Seed:             cfg.seed,
		Locations:        cfg.locs,
		NumJobs:          cfg.requests,
		MeanInterarrival: float64(cfg.horizon) / float64(cfg.requests+1) / 4,
		ActorsMin:        1,
		ActorsMax:        3,
		StepsMin:         1,
		StepsMax:         4,
		SendProb:         0.2,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      cfg.slack,
	})
	if err != nil {
		return err
	}
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.URL
	}
	report, err := server.RunLoad(ctx, server.LoadConfig{
		BaseURLs:        urls,
		Jobs:            jobs,
		Requests:        cfg.requests,
		Clients:         cfg.clients,
		ReleaseAdmitted: true,
	})
	if err != nil {
		return err
	}

	// Every node's invariant must hold while the orphaned leases are
	// still live (they are accounted reservations until they expire).
	for i, nd := range nodes {
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit before sweep: %w", peers[i].ID, err)
		}
	}

	// Advance every ledger past the TTL through the fan-out endpoint:
	// the sweep must reclaim the crash probe's holds on every node.
	sweepAt := cfg.leaseTTL * 2
	status, _, err = postJSON(ctx, httpc, peers[0].URL+"/v1/cluster/advance", map[string]any{"now": sweepAt})
	if err != nil {
		return fmt.Errorf("cluster selftest: advance: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster selftest: advance returned %d", status)
	}
	for i, nd := range nodes {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			return fmt.Errorf("cluster selftest: node %s still has %d holds after sweep at t=%d", peers[i].ID, holds, sweepAt)
		}
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit after sweep: %w", peers[i].ID, err)
		}
	}

	// Probe 3: migration. Admit a job owned wholly by n2 (forwarded from
	// n1), re-home it to the next node via the migrate rule, release it
	// cluster-wide.
	migrateJob, err := pinnedJob("probe-migrate", parts[1][0], sweepAt, cfg.horizon)
	if err != nil {
		return err
	}
	status, data, err = postJSON(ctx, httpc, peers[0].URL+"/v1/admit", migrateJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: migrate probe admit: %w", err)
	}
	var verdict server.AdmitResponse
	if jerr := json.Unmarshal(data, &verdict); status != http.StatusOK || jerr != nil || !verdict.Admit {
		return fmt.Errorf("cluster selftest: migrate probe not admitted (status %d, body %s)", status, bytes.TrimSpace(data))
	}
	target := peers[2%cfg.nodes].ID
	status, data, err = postJSON(ctx, httpc, peers[1].URL+"/v1/cluster/migrate",
		cluster.MigrateRequest{Name: "probe-migrate", Target: target})
	if err != nil {
		return fmt.Errorf("cluster selftest: migrate probe: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster selftest: migrate to %s returned %d: %s", target, status, bytes.TrimSpace(data))
	}
	status, data, err = postJSON(ctx, httpc, peers[0].URL+"/v1/release", map[string]string{"name": "probe-migrate"})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: releasing migrated job: status %d, err %v, body %s", status, err, bytes.TrimSpace(data))
	}

	// Probe 4: the query layer across nodes. A spanning query's fan-out
	// verdict must equal a single merged-ledger evaluation, and a watch
	// on one node must flip when a coordinated admission submitted via
	// another node commits on its ledger.
	probePeers := make([]peerProbe, len(peers))
	for i := range peers {
		probePeers[i] = peerProbe{url: peers[i].URL, loc: parts[i][0]}
	}
	if err := runClusterQueryProbe(ctx, httpc, probePeers, sweepAt, cfg.horizon); err != nil {
		return fmt.Errorf("cluster selftest: query probe: %w", err)
	}
	fmt.Fprintln(out, "cluster query probe ok")

	// Probe 5: dynamic membership under load. A brand-new node joins the
	// live cluster and is pinned one of the last node's locations while
	// background load keeps hammering the OLD owner URLs. Acceptance:
	// zero lost committed reservations and zero admission errors —
	// ownership-moved redirects are followed, never failed.
	memLoc := parts[cfg.nodes-1][0]
	joinerID := fmt.Sprintf("n%d", cfg.nodes+1)
	const memberSeeds = 4
	for i := 0; i < memberSeeds; i++ {
		name := fmt.Sprintf("probe-member-%d", i)
		seedJob, err := pinnedJob(name, memLoc, sweepAt, cfg.horizon)
		if err != nil {
			return err
		}
		status, data, err := postJSON(ctx, httpc, peers[0].URL+"/v1/admit", seedJob)
		var v server.AdmitResponse
		if jerr := json.Unmarshal(data, &v); err != nil || status != http.StatusOK || jerr != nil || !v.Admit {
			return fmt.Errorf("cluster selftest: membership seed %s not admitted (status %d, err %v, body %s)",
				name, status, err, bytes.TrimSpace(data))
		}
	}
	bgJobs, err := workload.Generate(workload.Config{
		Seed:             cfg.seed + 1,
		Locations:        cfg.locs,
		NumJobs:          200,
		MeanInterarrival: float64(cfg.horizon) / 800,
		ActorsMin:        1,
		ActorsMax:        2,
		StepsMin:         1,
		StepsMax:         3,
		SendProb:         0.2,
		EvalWeightMax:    2,
		SlackFactor:      cfg.slack,
	})
	if err != nil {
		return err
	}
	for i := range bgJobs {
		bgJobs[i].Dist.Name = "member-bg-" + bgJobs[i].Dist.Name
	}
	type bgResult struct {
		report server.LoadReport
		err    error
	}
	bgDone := make(chan bgResult, 1)
	go func() {
		r, err := server.RunLoad(ctx, server.LoadConfig{
			BaseURLs:        urls,
			Jobs:            bgJobs,
			Requests:        len(bgJobs),
			Clients:         4,
			ReleaseAdmitted: true,
		})
		bgDone <- bgResult{r, err}
	}()

	jln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var joinerSpans *span.Store
	if cfg.spanCap > 0 {
		joinerSpans = span.NewStore(cfg.spanCap, joinerID)
	}
	joiner, err := cluster.New(cluster.Config{
		Self:           joinerID,
		Peers:          []cluster.Peer{{ID: joinerID, URL: "http://" + jln.Addr().String()}},
		Join:           true,
		Server:         cfg.nodeServerConfig(joinerID, joinerSpans),
		LeaseTTL:       cfg.leaseTTL,
		GossipInterval: 100 * time.Millisecond,
		Obs:            obs.New(obs.Options{Log: &bytes.Buffer{}, Node: joinerID}),
		Spans:          joinerSpans,
	})
	if err != nil {
		return fmt.Errorf("cluster selftest: joiner: %w", err)
	}
	joinerHTTP := &http.Server{Handler: joiner}
	go func() { _ = joinerHTTP.Serve(jln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = joiner.Shutdown(ctx)
		_ = joinerHTTP.Shutdown(ctx)
	}()
	joinCtx, cancelJoin := context.WithTimeout(ctx, 30*time.Second)
	err = joiner.JoinCluster(joinCtx, peers[0].URL, []resource.Location{memLoc})
	cancelJoin()
	if err != nil {
		return fmt.Errorf("cluster selftest: join: %w", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		settled := true
		for _, nd := range nodes {
			if owner, _ := nd.Table().OwnerOf(memLoc); owner != joinerID {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster selftest: ownership of %s never converged on %s", memLoc, joinerID)
		}
		time.Sleep(20 * time.Millisecond)
	}
	bg := <-bgDone
	if bg.err != nil {
		return fmt.Errorf("cluster selftest: background load during join: %w", bg.err)
	}
	if bg.report.Errors > 0 || bg.report.ReleaseErrors > 0 {
		return fmt.Errorf("cluster selftest: %d background requests and %d releases errored during join (redirects must be followed, not failed); first: %s",
			bg.report.Errors, bg.report.ReleaseErrors, bg.report.FirstError)
	}
	everyone := append(append([]*cluster.Node{}, nodes...), joiner)
	for i := 0; i < memberSeeds; i++ {
		name := fmt.Sprintf("probe-member-%d", i)
		if homes := ledgerHomes(everyone, name); homes != 1 {
			return fmt.Errorf("cluster selftest: %s lives on %d ledgers after the join, want exactly 1", name, homes)
		}
		if _, ok := joiner.Server().Ledger().Commitment(name); !ok {
			return fmt.Errorf("cluster selftest: %s did not move to the joiner with its location", name)
		}
	}
	for i, nd := range everyone {
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: audit after join (node %d): %w", i, err)
		}
	}
	fmt.Fprintf(out, "membership join probe ok (%d redirects followed, 0 lost reservations)\n", bg.report.Redirects)

	// Probe 6: shard-primary failover mid-2PC. Arm a coordinator crash
	// so a leased hold sits prepared-but-uncommitted on the joiner, wait
	// for gossip to ship the shadow, kill the joiner, and
	// force-leave it. The standby must promote with every committed
	// reservation, the lease sweep must reclaim the orphaned hold, and a
	// fresh admission must land on the new primary.
	standbyID := joiner.Table().StandbyOf(memLoc)
	var standby *cluster.Node
	for i := range peers {
		if peers[i].ID == standbyID {
			standby = nodes[i]
		}
	}
	if standby == nil {
		return fmt.Errorf("cluster selftest: standby %q of %s is not a live peer", standbyID, memLoc)
	}
	// The joiner may have won the rendezvous hash for locations beyond
	// its pin, so pick the cross-node half of the 2PC from whatever an
	// original node still owns — that node receives the admit and
	// coordinates (its part local, the joiner's under a leased hold).
	coordIdx, otherLoc := -1, resource.Location("")
	for i := range peers {
		if locs := joiner.Table().Locations(peers[i].ID); len(locs) > 0 {
			coordIdx, otherLoc = i, locs[0]
			break
		}
	}
	if coordIdx < 0 {
		return fmt.Errorf("cluster selftest: the joiner owns every location; no original node left to coordinate a cross-node 2PC")
	}
	failJob, err := spanningJob("probe-failover-2pc", memLoc, otherLoc, sweepAt, cfg.horizon)
	if err != nil {
		return err
	}
	nodes[coordIdx].InjectCrashBeforeCommit()
	status, _, err = postJSON(ctx, httpc, peers[coordIdx].URL+"/v1/admit", failJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: failover 2PC probe: %w", err)
	}
	if status != http.StatusInternalServerError {
		return fmt.Errorf("cluster selftest: failover 2PC probe returned %d, want 500 (injected crash)", status)
	}
	if holds := joiner.Server().Ledger().NumHolds(); holds < 1 {
		return fmt.Errorf("cluster selftest: joiner holds %d leases mid-2PC, want >= 1", holds)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		cms, holds, ok := standby.ShadowFor(memLoc)
		if ok && cms >= memberSeeds && holds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster selftest: standby %s shadow never caught up (cms=%d holds=%d ok=%v)",
				standbyID, cms, holds, ok)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Hard stop, mid-protocol: inbound gone, then outbound. A node that
	// only lost its listener keeps gossiping, gets fenced by the
	// force-leave below and rejoins — back in the table this probe
	// requires it to be gone from.
	joinerHTTP.Close()
	killCtx, cancelKill := context.WithTimeout(ctx, 10*time.Second)
	err = joiner.Shutdown(killCtx)
	cancelKill()
	if err != nil {
		return fmt.Errorf("cluster selftest: killing %s: %w", joinerID, err)
	}
	failoverStart := time.Now() // the primary is dead from here
	status, data, err = postJSON(ctx, httpc, peers[0].URL+"/v1/cluster/leave",
		map[string]any{"id": joinerID, "force": true})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: force leave: status %d, err %v, body %s", status, err, bytes.TrimSpace(data))
	}
	var failoverAdmitMS float64
	for attempt := 0; ; attempt++ {
		probe, err := pinnedJob(fmt.Sprintf("probe-failover-admit-%d", attempt), memLoc, sweepAt, cfg.horizon)
		if err != nil {
			return err
		}
		status, data, err := postJSON(ctx, httpc, peers[0].URL+"/v1/admit", probe)
		var v server.AdmitResponse
		if err == nil && status == http.StatusOK && json.Unmarshal(data, &v) == nil && v.Admit {
			failoverAdmitMS = float64(time.Since(failoverStart).Microseconds()) / 1000
			break
		}
		if time.Since(failoverStart) > 10*time.Second {
			return fmt.Errorf("cluster selftest: no successful admit on %s within 10s of failover (last status %d, err %v)",
				memLoc, status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, nd := range nodes {
		if _, ok := nd.Table().Member(joinerID); ok {
			return fmt.Errorf("cluster selftest: dead primary %s still in the table", joinerID)
		}
		if owner, _ := nd.Table().OwnerOf(memLoc); owner != standbyID {
			return fmt.Errorf("cluster selftest: %s owned by %q after failover, want standby %s", memLoc, owner, standbyID)
		}
	}
	for i := 0; i < memberSeeds; i++ {
		name := fmt.Sprintf("probe-member-%d", i)
		if homes := ledgerHomes(nodes, name); homes != 1 {
			return fmt.Errorf("cluster selftest: %s lives on %d survivor ledgers after failover, want 1", name, homes)
		}
		if _, ok := standby.Server().Ledger().Commitment(name); !ok {
			return fmt.Errorf("cluster selftest: committed reservation %s lost in failover", name)
		}
	}
	if got := standby.Stats().Cluster.Promotions; got != 1 {
		return fmt.Errorf("cluster selftest: standby recorded %d promotions, want 1", got)
	}
	// Sweep the orphaned mid-2PC lease and re-audit every survivor: no
	// overcommitment, no leased hold outliving its TTL.
	failSweepAt := sweepAt + 2*cfg.leaseTTL
	status, _, err = postJSON(ctx, httpc, peers[0].URL+"/v1/cluster/advance", map[string]any{"now": failSweepAt})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: advance after failover: status %d, err %v", status, err)
	}
	for i, nd := range nodes {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			return fmt.Errorf("cluster selftest: node %s still has %d leased holds after the failover sweep", peers[i].ID, holds)
		}
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit after failover: %w", peers[i].ID, err)
		}
	}
	fmt.Fprintf(out, "failover probe ok (first admit %.1f ms after kill)\n", failoverAdmitMS)

	// Probe 7: deadline-assurance continuity. Nothing in the whole run —
	// handoff, migration, failover — may have violated a promise, and the
	// seeds that rode the promotion must be accounted for on the new
	// primary (kept once complete, active until then), never orphaned.
	if cfg.assureOn {
		var aresp cluster.ClusterAssureResponse
		if err := getJSON(ctx, httpc, peers[0].URL+"/v1/assure", &aresp); err != nil {
			return fmt.Errorf("cluster selftest: assure fan-out: %w", err)
		}
		if aresp.Totals.Violated != 0 {
			return fmt.Errorf("cluster selftest: %d promises violated, want 0", aresp.Totals.Violated)
		}
		if aresp.Totals.Kept == 0 {
			return errors.New("cluster selftest: no kept promises recorded despite released admissions")
		}
		for i := 0; i < memberSeeds; i++ {
			name := fmt.Sprintf("probe-member-%d", i)
			var jresp cluster.ClusterAssureJobResponse
			if err := getJSON(ctx, httpc, peers[0].URL+"/v1/assure?job="+name, &jresp); err != nil {
				return fmt.Errorf("cluster selftest: assure lookup %s: %w", name, err)
			}
			if !jresp.Found {
				return fmt.Errorf("cluster selftest: no node accounts for %s's promise after failover", name)
			}
			if st := jresp.Promise.State; st == assure.StateOrphaned || st == assure.StateViolated {
				return fmt.Errorf("cluster selftest: %s's promise is %s after failover, want kept or active", name, st)
			}
		}
		fmt.Fprintf(out, "assure continuity probe ok (%d kept, %d transferred, attainment %.3f)\n",
			aresp.Totals.Kept, aresp.Totals.Transferred, aresp.Totals.Attainment)
	}

	// Report.
	t := metrics.NewTable(
		fmt.Sprintf("rotad cluster selftest: %d nodes, %d requests, %d clients", cfg.nodes, cfg.requests, cfg.clients),
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
	var coords, coordAdmitted, forwarded, migrations uint64
	for i, nd := range nodes {
		st := nd.Stats()
		coords += st.Cluster.Coordinations
		coordAdmitted += st.Cluster.CoordAdmitted
		forwarded += st.Cluster.Forwarded
		migrations += st.Cluster.Migrations
		t.AddRow(fmt.Sprintf("%s decisions", peers[i].ID), st.Decisions)
		t.AddRow(fmt.Sprintf("%s shards", peers[i].ID), st.Shards)
	}
	var joins, handoffs, promotions, redirectsServed uint64
	for _, nd := range nodes {
		st := nd.Stats().Cluster
		joins += st.Joins
		handoffs += st.Handoffs
		promotions += st.Promotions
		redirectsServed += st.RedirectsServed
	}
	t.AddRow("coordinations", coords)
	t.AddRow("coordinated admits", coordAdmitted)
	t.AddRow("forwarded", forwarded)
	t.AddRow("migrations", migrations)
	t.AddRow("injected crashes", nodes[0].Stats().Cluster.InjectedCrashes)
	t.AddRow("orphaned holds swept", orphaned)
	t.AddRow("membership epoch", nodes[0].Table().Epoch)
	t.AddRow("joins stewarded", joins)
	t.AddRow("handoffs", handoffs)
	t.AddRow("promotions", promotions)
	t.AddRow("redirects served", redirectsServed)
	t.AddRow("join-load redirects followed", bg.report.Redirects)
	t.AddRow("failover to first admit ms", failoverAdmitMS)
	if cfg.csv {
		t.RenderCSV(out)
	} else {
		t.Render(out)
	}

	if report.Errors > 0 {
		return fmt.Errorf("cluster selftest: %d requests errored", report.Errors)
	}
	if report.Admitted == 0 {
		return errors.New("cluster selftest: nothing admitted; workload or availability misconfigured")
	}
	if migrations != 1 {
		return fmt.Errorf("cluster selftest: %d migrations recorded, want 1", migrations)
	}

	// Span acceptance: no rejection left the cluster without provenance,
	// and under the full load every span store stayed within its bound
	// (overflow shows up as evictions, never as growth).
	if cfg.spanCap > 0 {
		if report.UnexplainedRejects > 0 {
			return fmt.Errorf("cluster selftest: %d rejections carried no provenance", report.UnexplainedRejects)
		}
		for i, st := range spanStores {
			stats := st.Stats()
			if stats.Live > stats.Capacity {
				return fmt.Errorf("cluster selftest: node %s span store holds %d spans, bound %d",
					peers[i].ID, stats.Live, stats.Capacity)
			}
			for _, rec := range st.Snapshot() {
				if rec.Status == span.StatusReject && rec.Provenance == nil {
					return fmt.Errorf("cluster selftest: node %s recorded a %s reject span without provenance",
						peers[i].ID, rec.Kind)
				}
			}
		}
	}
	fmt.Fprintln(out, "cluster selftest ok")
	return nil
}

// fetchSpanDump pulls one node's span records for a trace from its
// /debug/rota/trace endpoint.
func fetchSpanDump(ctx context.Context, client *http.Client, baseURL, trace string) ([]span.Record, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/debug/rota/trace/"+trace, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s returned %d: %s", req.URL, resp.StatusCode, bytes.TrimSpace(data))
	}
	var dump span.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return nil, fmt.Errorf("%s returned unparsable dump: %w", req.URL, err)
	}
	return dump.Spans, nil
}

// spanningJob builds a two-actor job whose footprint spans two locations
// (and thus, in the selftest partition, two owners), forcing two-phase
// coordination.
func spanningJob(name string, locA, locB resource.Location, start, deadline interval.Time) (workload.Job, error) {
	model := cost.Paper()
	c1, err := cost.Realize(model, "a1", compute.Evaluate("a1", locA, 1))
	if err != nil {
		return workload.Job{}, err
	}
	c2, err := cost.Realize(model, "a2", compute.Evaluate("a2", locB, 1))
	if err != nil {
		return workload.Job{}, err
	}
	dist, err := compute.NewDistributed(name, start, deadline, c1, c2)
	if err != nil {
		return workload.Job{}, err
	}
	return workload.Job{Dist: dist}, nil
}

// pinnedJob builds a single-actor job confined to one location.
func pinnedJob(name string, loc resource.Location, start, deadline interval.Time) (workload.Job, error) {
	c, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", loc, 1))
	if err != nil {
		return workload.Job{}, err
	}
	dist, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		return workload.Job{}, err
	}
	return workload.Job{Dist: dist}, nil
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

// postJSON posts a JSON body and returns (status, body) without treating
// non-2xx as an error — the selftest asserts on exact statuses.
func postJSON(ctx context.Context, client *http.Client, url string, v any) (int, []byte, error) {
	return postJSONTrace(ctx, client, url, "", v)
}

// postJSONTrace is postJSON with an explicit trace ID on the request, so
// the selftest can follow one admission across the cluster's event logs.
func postJSONTrace(ctx context.Context, client *http.Client, url, trace string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.HeaderTraceID, trace)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}
