package selftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs/assure"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
)

// runCluster boots an N-node loopback federation, injects a coordinator
// crash between prepare and commit of a cross-node job, drives the main
// load at every node, advances every ledger past the lease TTL, and
// verifies the Theorem-4 invariant: every surviving node's audit passes
// and no lease outlives its TTL past the advance. Migration, query,
// join, failover and promise-continuity probes run around the load.
func runCluster(out io.Writer, cfg Config, locs []resource.Location) error {
	f, err := boot(cfg.Nodes, locs, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	seeds := f.members
	nodes := f.nodes()
	parts := cluster.PartitionLocations(locs, cfg.Nodes) // what boot gave each seed

	httpc := &http.Client{Timeout: 10 * time.Second}
	ctx := context.Background()

	// Probe 1: coordinator crash. A job spanning n1's and n2's locations
	// forces two-phase coordination on n1; the armed crash stops the
	// coordinator dead after its prepares succeed, leaving leased holds
	// on both participants for the expiry sweep to reclaim.
	crashJob, err := probeJob("probe-crash", 0, parts[0][0], parts[1][0])
	if err != nil {
		return err
	}
	nodes[0].InjectCrashBeforeCommit()
	status, _, err := postJSON(ctx, httpc, seeds[0].url+"/v1/admit", crashJob)
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
	coordIdx := cfg.Nodes - 1
	traceJob, err := probeJob("probe-trace", 0, parts[0][0], parts[1][0])
	if err != nil {
		return err
	}
	r, err := send(ctx, httpc, seeds[coordIdx].url+"/v1/admit", probeTrace, traceJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: trace probe: %w", err)
	}
	var traceVerdict server.AdmitResponse
	if jerr := json.Unmarshal(r.body, &traceVerdict); r.status != http.StatusOK || jerr != nil || !traceVerdict.Admit {
		return fmt.Errorf("cluster selftest: trace probe not admitted (status %d, body %s)", r.status, bytes.TrimSpace(r.body))
	}
	for _, i := range []int{0, 1, coordIdx} {
		if log := seeds[i].log.String(); !strings.Contains(log, "trace="+probeTrace) {
			return fmt.Errorf("cluster selftest: node %s never logged trace %s (log:\n%s)", seeds[i].id, probeTrace, log)
		}
	}
	if status, _, err := postJSON(ctx, httpc, seeds[coordIdx].url+"/v1/release", map[string]string{"name": "probe-trace"}); err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: releasing trace probe: status %d, err %v", status, err)
	}

	// Probe 2b: span reconstruction. The trace probe's spans, pulled from
	// every node's dump endpoint and merged, must form ONE connected tree
	// — coordinator spans on the coordinating node, RPC attempts beneath
	// them, participant prepares/commits parented across the wire. The
	// terminal spans may still be closing when the verdict arrives, so
	// poll briefly before declaring the tree broken.
	var tree *span.Tree
	var dumpErr error
	connected := waitFor(2*time.Second, func() bool {
		var recs []span.Record
		for _, m := range seeds {
			var dump span.Dump
			if dumpErr = GetJSON(ctx, httpc, m.url+"/debug/rota/trace/"+probeTrace, &dump); dumpErr != nil {
				return true
			}
			recs = append(recs, dump.Spans...)
		}
		tree = span.BuildTree(probeTrace, recs)
		return tree.Connected() && tree.Spans >= 5
	})
	if dumpErr != nil {
		return fmt.Errorf("cluster selftest: span dump: %w", dumpErr)
	}
	if !connected {
		var buf bytes.Buffer
		tree.WriteTree(&buf)
		return fmt.Errorf("cluster selftest: trace probe spans never formed a connected tree (%d roots, %d orphans):\n%s",
			len(tree.Roots), tree.Orphans, buf.String())
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

	// Main load: mixed single- and multi-location jobs at every node.
	jobs, err := Jobs(Mixed, cfg.Seed, locs, cfg.Requests, spread(cfg.Requests), cfg.Slack)
	if err != nil {
		return err
	}
	urls := f.urls()
	report, err := RunLoad(ctx, LoadConfig{
		BaseURLs:        urls,
		Jobs:            jobs,
		Requests:        cfg.Requests,
		Clients:         cfg.Clients,
		ReleaseAdmitted: true,
	})
	if err != nil {
		return err
	}

	// Every node's invariant must hold while the orphaned leases are
	// still live (they are accounted reservations until they expire).
	for i, nd := range nodes {
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit before sweep: %w", seeds[i].id, err)
		}
	}

	// Advance every ledger past the TTL through the fan-out endpoint:
	// the sweep must reclaim the crash probe's holds on every node.
	sweepAt := leaseTTL * 2
	status, _, err = postJSON(ctx, httpc, seeds[0].url+"/v1/cluster/advance", map[string]any{"now": sweepAt})
	if err != nil {
		return fmt.Errorf("cluster selftest: advance: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster selftest: advance returned %d", status)
	}
	for i, nd := range nodes {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			return fmt.Errorf("cluster selftest: node %s still has %d holds after sweep at t=%d", seeds[i].id, holds, sweepAt)
		}
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit after sweep: %w", seeds[i].id, err)
		}
	}

	// Probe 3: migration. Admit a job owned wholly by n2 (forwarded from
	// n1), re-home it to the next node via the migrate rule, release it
	// cluster-wide.
	migrateJob, err := probeJob("probe-migrate", sweepAt, parts[1][0])
	if err != nil {
		return err
	}
	if ok, status, data, err := admitted(ctx, httpc, seeds[0].url, migrateJob); !ok {
		return fmt.Errorf("cluster selftest: migrate probe not admitted (status %d, err %v, body %s)", status, err, bytes.TrimSpace(data))
	}
	target := seeds[2%cfg.Nodes].id
	status, data, err := postJSON(ctx, httpc, seeds[1].url+"/v1/cluster/migrate",
		cluster.MigrateRequest{Name: "probe-migrate", Target: target})
	if err != nil {
		return fmt.Errorf("cluster selftest: migrate probe: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster selftest: migrate to %s returned %d: %s", target, status, bytes.TrimSpace(data))
	}
	status, data, err = postJSON(ctx, httpc, seeds[0].url+"/v1/release", map[string]string{"name": "probe-migrate"})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: releasing migrated job: status %d, err %v, body %s", status, err, bytes.TrimSpace(data))
	}

	// Probe 4: the query layer across nodes. A spanning query's fan-out
	// verdict must equal a single merged-ledger evaluation, and a watch
	// on one node must flip when a coordinated admission submitted via
	// another node commits on its ledger.
	probePeers := make([]peerProbe, len(seeds))
	for i, m := range seeds {
		probePeers[i] = peerProbe{url: m.url, loc: parts[i][0]}
	}
	if err := runClusterQueryProbe(ctx, httpc, probePeers, sweepAt); err != nil {
		return fmt.Errorf("cluster selftest: query probe: %w", err)
	}
	fmt.Fprintln(out, "cluster query probe ok")

	// Probe 5: dynamic membership under load. A brand-new node joins the
	// live cluster and is pinned one of the last node's locations while
	// background load keeps hammering the OLD owner URLs. Acceptance:
	// zero lost committed reservations and zero admission errors —
	// ownership-moved redirects are followed, never failed.
	memLoc := parts[cfg.Nodes-1][0]
	const memberSeeds = 4
	for i := 0; i < memberSeeds; i++ {
		name := fmt.Sprintf("probe-member-%d", i)
		seedJob, err := probeJob(name, sweepAt, memLoc)
		if err != nil {
			return err
		}
		if ok, status, data, err := admitted(ctx, httpc, seeds[0].url, seedJob); !ok {
			return fmt.Errorf("cluster selftest: membership seed %s not admitted (status %d, err %v, body %s)",
				name, status, err, bytes.TrimSpace(data))
		}
	}
	bgJobs, err := Jobs(light, cfg.Seed+1, locs, 200, float64(horizon)/800, cfg.Slack)
	if err != nil {
		return err
	}
	for i := range bgJobs {
		bgJobs[i].Dist.Name = "member-bg-" + bgJobs[i].Dist.Name
	}
	type bgResult struct {
		report LoadReport
		err    error
	}
	bgDone := make(chan bgResult, 1)
	go func() {
		r, err := RunLoad(ctx, LoadConfig{
			BaseURLs:        urls,
			Jobs:            bgJobs,
			Requests:        len(bgJobs),
			Clients:         4,
			ReleaseAdmitted: true,
		})
		bgDone <- bgResult{r, err}
	}()

	joiner := &member{id: fmt.Sprintf("n%d", cfg.Nodes+1), log: &syncLog{}}
	f.members = append(f.members, joiner)
	if err := f.join(joiner, seeds[0].url, []resource.Location{memLoc}); err != nil {
		return fmt.Errorf("cluster selftest: join: %w", err)
	}
	if !waitFor(5*time.Second, func() bool {
		for _, nd := range nodes {
			if owner, _ := nd.Table().OwnerOf(memLoc); owner != joiner.id {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("cluster selftest: ownership of %s never converged on %s", memLoc, joiner.id)
	}
	bg := <-bgDone
	if bg.err != nil {
		return fmt.Errorf("cluster selftest: background load during join: %w", bg.err)
	}
	if bg.report.Errors > 0 || bg.report.ReleaseErrors > 0 {
		return fmt.Errorf("cluster selftest: %d background requests and %d releases errored during join (redirects must be followed, not failed); first: %s",
			bg.report.Errors, bg.report.ReleaseErrors, bg.report.FirstError)
	}
	everyone := f.nodes()
	for i := 0; i < memberSeeds; i++ {
		name := fmt.Sprintf("probe-member-%d", i)
		if homes := ledgerHomes(everyone, name); homes != 1 {
			return fmt.Errorf("cluster selftest: %s lives on %d ledgers after the join, want exactly 1", name, homes)
		}
		if _, ok := joiner.nd.Server().Ledger().Commitment(name); !ok {
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
	standbyID := joiner.nd.Table().StandbyOf(memLoc)
	var standby *cluster.Node
	for _, m := range seeds {
		if m.id == standbyID {
			standby = m.nd
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
	for i, m := range seeds {
		if owned := joiner.nd.Table().Locations(m.id); len(owned) > 0 {
			coordIdx, otherLoc = i, owned[0]
			break
		}
	}
	if coordIdx < 0 {
		return fmt.Errorf("cluster selftest: the joiner owns every location; no original node left to coordinate a cross-node 2PC")
	}
	failJob, err := probeJob("probe-failover-2pc", sweepAt, memLoc, otherLoc)
	if err != nil {
		return err
	}
	nodes[coordIdx].InjectCrashBeforeCommit()
	status, _, err = postJSON(ctx, httpc, seeds[coordIdx].url+"/v1/admit", failJob)
	if err != nil {
		return fmt.Errorf("cluster selftest: failover 2PC probe: %w", err)
	}
	if status != http.StatusInternalServerError {
		return fmt.Errorf("cluster selftest: failover 2PC probe returned %d, want 500 (injected crash)", status)
	}
	if holds := joiner.nd.Server().Ledger().NumHolds(); holds < 1 {
		return fmt.Errorf("cluster selftest: joiner holds %d leases mid-2PC, want >= 1", holds)
	}
	var cms, holds int
	var shadowed bool
	if !waitFor(5*time.Second, func() bool {
		cms, holds, shadowed = standby.ShadowFor(memLoc)
		return shadowed && cms >= memberSeeds && holds >= 1
	}) {
		return fmt.Errorf("cluster selftest: standby %s shadow never caught up (cms=%d holds=%d ok=%v)",
			standbyID, cms, holds, shadowed)
	}

	// Hard stop, mid-protocol: a node that only lost its listener keeps
	// gossiping, gets fenced by the force-leave below and rejoins — back
	// in the table this probe requires it to be gone from.
	if err := joiner.kill(); err != nil {
		return fmt.Errorf("cluster selftest: killing %s: %w", joiner.id, err)
	}
	failoverStart := time.Now() // the primary is dead from here
	status, data, err = postJSON(ctx, httpc, seeds[0].url+"/v1/cluster/leave",
		map[string]any{"id": joiner.id, "force": true})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: force leave: status %d, err %v, body %s", status, err, bytes.TrimSpace(data))
	}
	failoverAdmitMS, err := firstAdmit(ctx, httpc, seeds[0].url, "probe-failover-admit", memLoc, sweepAt, failoverStart, 10*time.Second)
	if err != nil {
		return fmt.Errorf("cluster selftest: after failover: %w", err)
	}
	for _, nd := range nodes {
		if _, ok := nd.Table().Member(joiner.id); ok {
			return fmt.Errorf("cluster selftest: dead primary %s still in the table", joiner.id)
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
	failSweepAt := sweepAt + 2*leaseTTL
	status, _, err = postJSON(ctx, httpc, seeds[0].url+"/v1/cluster/advance", map[string]any{"now": failSweepAt})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cluster selftest: advance after failover: status %d, err %v", status, err)
	}
	for i, nd := range nodes {
		if holds := nd.Server().Ledger().NumHolds(); holds != 0 {
			return fmt.Errorf("cluster selftest: node %s still has %d leased holds after the failover sweep", seeds[i].id, holds)
		}
		if err := nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("cluster selftest: node %s audit after failover: %w", seeds[i].id, err)
		}
	}
	fmt.Fprintf(out, "failover probe ok (first admit %.1f ms after kill)\n", failoverAdmitMS)

	// Probe 7: deadline-assurance continuity. Nothing in the whole run —
	// handoff, migration, failover — may have violated a promise, and the
	// seeds that rode the promotion must be accounted for on the new
	// primary (kept once complete, active until then), never orphaned.
	var aresp cluster.ClusterAssureResponse
	if err := GetJSON(ctx, httpc, seeds[0].url+"/v1/assure", &aresp); err != nil {
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
		if err := GetJSON(ctx, httpc, seeds[0].url+"/v1/assure?job="+name, &jresp); err != nil {
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

	// Report.
	t := Table(fmt.Sprintf("rotad cluster selftest: %d nodes, %d requests, %d clients", cfg.Nodes, cfg.Requests, cfg.Clients), report, nil)
	var coords, coordAdmitted, forwarded, migrations, joins, handoffs, promotions, redirectsServed uint64
	for i, nd := range nodes {
		st := nd.Stats()
		coords += st.Cluster.Coordinations
		coordAdmitted += st.Cluster.CoordAdmitted
		forwarded += st.Cluster.Forwarded
		migrations += st.Cluster.Migrations
		joins += st.Cluster.Joins
		handoffs += st.Cluster.Handoffs
		promotions += st.Cluster.Promotions
		redirectsServed += st.Cluster.RedirectsServed
		t.AddRow(fmt.Sprintf("%s decisions", seeds[i].id), st.Decisions)
		t.AddRow(fmt.Sprintf("%s shards", seeds[i].id), st.Shards)
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
	t.Print(out, cfg.CSV)

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
	if report.UnexplainedRejects > 0 {
		return fmt.Errorf("cluster selftest: %d rejections carried no provenance", report.UnexplainedRejects)
	}
	for _, m := range seeds {
		st := m.spans
		if stats := st.Stats(); stats.Live > stats.Capacity {
			return fmt.Errorf("cluster selftest: node %s span store holds %d spans, bound %d",
				m.id, stats.Live, stats.Capacity)
		}
		for _, rec := range st.Snapshot() {
			if rec.Status == span.StatusReject && rec.Provenance == nil {
				return fmt.Errorf("cluster selftest: node %s recorded a %s reject span without provenance",
					m.id, rec.Kind)
			}
		}
	}
	fmt.Fprintln(out, "cluster selftest ok")
	return nil
}
