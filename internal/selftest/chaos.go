package selftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs/flightrec"
	"repro/internal/resource"
	"repro/internal/server"
)

// The chaos selftest is the acceptance harness for the self-healing
// layer: an N-node loopback federation wired through the fault-injection
// transport, a seeded kill/partition/heal schedule applied while a load
// generator keeps hammering the stable nodes, and no operator anywhere —
// every eviction must come from the φ-accrual detector plus the quorum
// rule, every promotion from the deterministic runner-up steward, and
// every fenced node must find its own way back in.
//
// Acceptance, enforced below:
//   - no committed reservation is lost across any kill or partition
//     (one home per seed commitment, on every surviving ledger set);
//   - every node's no-overcommitment audit stays clean throughout;
//   - ownership converges: one table, every location owned by a live
//     member, after the schedule ends;
//   - detection-to-first-admit latency on a killed owner's location is
//     bounded (chaosAdmitBound, generous for race-detector runs).
const (
	// chaosGossip is deliberately fast so φ crosses the eviction level in
	// well under a second of silence; chaosEvictPhi is set high enough
	// that a scheduler stall of several intervals does not read as death
	// under the race detector.
	chaosGossip     = 40 * time.Millisecond
	chaosSuspectPhi = 6
	chaosEvictPhi   = 9
	chaosRPCTimeout = 500 * time.Millisecond
	chaosRPCRetries = 1
	chaosAdmitBound = 30 * time.Second
)

// dumpLogs prints every failover-relevant log line the nodes wrote,
// grouped by node, so a failed schedule leaves a usable trail instead of
// a bare assertion message.
func dumpLogs(out io.Writer, ms []*member) {
	for _, m := range ms {
		fmt.Fprintf(out, "--- %s failover log ---\n", m.id)
		for _, line := range strings.Split(m.log.String(), "\n") {
			if strings.Contains(line, "health.") || strings.Contains(line, "membership.") || strings.Contains(line, "rpc.") {
				fmt.Fprintln(out, line)
			}
		}
	}
}

// runChaos is the acceptance harness for the self-healing layer.
func runChaos(out io.Writer, cfg Config, locs []resource.Location) (err error) {
	net0 := fault.NewNetwork(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctx := context.Background()
	httpc := &http.Client{Timeout: 10 * time.Second}

	f, err := boot(cfg.Nodes, locs, func(m *member, c *cluster.Config) {
		net0.Register(m.id, m.url)
		c.GossipInterval = chaosGossip
		c.RPCTimeout, c.RPCRetries = chaosRPCTimeout, chaosRPCRetries
		c.RPCBackoffBase, c.RPCBackoffCap = 10*time.Millisecond, 100*time.Millisecond
		c.SuspectPhi = chaosSuspectPhi
		c.EvictPhi = chaosEvictPhi // > 0: automatic quorum eviction ON
		c.Transport = net0.Transport(m.id, nil)
	})
	if err != nil {
		return err
	}
	defer f.stop()
	members := f.members
	defer func() {
		if err != nil {
			dumpLogs(out, members)
		}
	}()

	// Seed one pinned commitment per location: the reservations whose
	// survival the whole schedule is judged by.
	for _, loc := range locs {
		job, err := probeJob("chaos-seed-"+string(loc), 0, loc)
		if err != nil {
			return err
		}
		if ok, status, data, err := admitted(ctx, httpc, members[0].url, job); !ok {
			return fmt.Errorf("chaos selftest: seed on %s not admitted (status %d, err %v, body %s)",
				loc, status, err, bytes.TrimSpace(data))
		}
	}
	if err := waitShadowsWarm(members, locs, 15*time.Second); err != nil {
		return fmt.Errorf("chaos selftest: %w", err)
	}

	// A mildly hostile wire for the whole run: every peer RPC is delayed
	// and occasionally dropped, so the retry/backoff stack and the
	// detector's adaptive window run against realistic jitter.
	net0.SetRule(fault.Wildcard, fault.Wildcard, fault.Rule{Delay: time.Millisecond, Drop: 0.01})

	// Background load against the stable nodes (index 0 and 1 are never
	// victims), batch after batch until the schedule ends. Request errors
	// during a failure window are expected — what must hold is the ledger
	// invariant, not per-request success.
	stableURLs := []string{members[0].url, members[1].url}
	stopLoad := make(chan struct{})
	type loadTotals struct {
		batches int
		LoadReport
		err error
	}
	loadDone := make(chan loadTotals, 1)
	go func() {
		var tot loadTotals
		defer func() { loadDone <- tot }()
		for batch := int64(0); ; batch++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			jobs, err := Jobs(light, cfg.Seed+100+batch, locs, cfg.Requests, spread(cfg.Requests), cfg.Slack)
			if err != nil {
				tot.err = err
				return
			}
			for i := range jobs {
				jobs[i].Dist.Name = fmt.Sprintf("chaos-%d-%s", batch, jobs[i].Dist.Name)
			}
			r, err := RunLoad(ctx, LoadConfig{
				BaseURLs:        stableURLs,
				Jobs:            jobs,
				Requests:        len(jobs),
				Clients:         cfg.Clients,
				ReleaseAdmitted: true,
			})
			if err != nil {
				tot.err = err
				return
			}
			tot.batches++
			tot.add(r)
		}
	}()

	// The schedule: at least one kill and one partition, victims drawn
	// from the non-stable slots by the seeded RNG.
	type roundResult struct {
		kind     string
		victim   string
		detectMS float64 // kill/partition to victim gone from every survivor table
		admitMS  float64 // kill to first successful admit on the victim's location (kill rounds)
	}
	var results []roundResult
	killSerial := 0
	for _, kind := range []string{"kill", "partition"} {
		// A cold φ detector cannot tell silence from a peer that never
		// spoke: every member needs its inter-arrival baseline (MinSamples
		// observations of every other member) before a failure is staged.
		if err := waitDetectorsWarm(f.live(), 45*time.Second); err != nil {
			return fmt.Errorf("chaos selftest: before %s round: %w", kind, err)
		}
		vi := 2 + rng.Intn(cfg.Nodes-2)
		victim := members[vi]
		vlocs := victim.nd.Table().Locations(victim.id)
		if len(vlocs) == 0 {
			// The rendezvous shuffle can leave a node location-less; the
			// failover latency probe needs an owned location, so fall
			// back to any slot that has one.
			for off := 1; off < cfg.Nodes-2; off++ {
				alt := members[2+(vi-2+off)%(cfg.Nodes-2)]
				if owned := alt.nd.Table().Locations(alt.id); len(owned) > 0 {
					victim, vlocs = alt, owned
					break
				}
			}
		}
		if len(vlocs) == 0 {
			return fmt.Errorf("chaos selftest: no non-stable node owns a location; cannot stage a %s round", kind)
		}
		res := roundResult{kind: kind, victim: victim.id}

		switch kind {
		case "kill":
			killedAt := time.Now()
			if err := victim.kill(); err != nil { // inbound and outbound gone: true silence
				return fmt.Errorf("chaos selftest: killing %s: %w", victim.id, err)
			}
			if !waitFor(chaosAdmitBound, listedBy(f.live(), victim.id, false)) {
				return fmt.Errorf("chaos selftest: kill round: %s was never auto-evicted within %s", victim.id, chaosAdmitBound)
			}
			res.detectMS = msSince(killedAt)

			// Detection-to-first-admit: hammer the dead owner's first
			// location through a stable node until an admission lands on
			// the promoted standby.
			res.admitMS, err = firstAdmit(ctx, httpc, members[0].url, fmt.Sprintf("chaos-kill-%d", killSerial), vlocs[0], 0, killedAt, chaosAdmitBound)
			if err != nil {
				return fmt.Errorf("chaos selftest: after killing %s: %w", victim.id, err)
			}
			killSerial++

			// Restart the slot as a brand-new dynamic joiner under the
			// same ID: the fresh node must be handed ownership while the
			// load keeps running.
			if err := f.join(victim, members[0].url, nil); err != nil {
				return fmt.Errorf("chaos selftest: %s rejoining after kill: %w", victim.id, err)
			}
			if !waitFor(15*time.Second, listedBy(f.live(), victim.id, true)) {
				return fmt.Errorf("chaos selftest: restarted %s never appeared in every member's table", victim.id)
			}

		case "partition":
			cutAt := time.Now()
			net0.Partition([]string{victim.id}) // victim alone vs. everyone
			var survivors []*member
			for _, m := range f.live() {
				if m != victim {
					survivors = append(survivors, m)
				}
			}
			if !waitFor(chaosAdmitBound, listedBy(survivors, victim.id, false)) {
				return fmt.Errorf("chaos selftest: partition round: %s was never auto-evicted within %s", victim.id, chaosAdmitBound)
			}
			res.detectMS = msSince(cutAt)

			// Heal. The victim is alive with a stale table; its next
			// gossip push is fenced with 421 by the survivors, and it
			// must drop its state and rejoin entirely on its own.
			net0.Heal()
			if !waitFor(chaosAdmitBound, listedBy(f.live(), victim.id, true)) {
				return fmt.Errorf("chaos selftest: %s never rejoined after heal within %s", victim.id, chaosAdmitBound)
			}
			// The survivors list the victim as soon as the steward
			// commits the join; the victim bumps its own counter only
			// after its JoinCluster call returns — poll briefly rather
			// than racing that gap.
			if !waitFor(5*time.Second, func() bool { return victim.nd.Stats().Cluster.Rejoins >= 1 }) {
				return fmt.Errorf("chaos selftest: healed %s recorded %d rejoins, want >= 1 (rejoin must be automatic)",
					victim.id, victim.nd.Stats().Cluster.Rejoins)
			}
		}
		results = append(results, res)
	}

	// Schedule over: stop the load, clean the wire, and let the cluster
	// settle into one converged table.
	close(stopLoad)
	tot := <-loadDone
	if tot.err != nil {
		return fmt.Errorf("chaos selftest: load generator: %w", tot.err)
	}
	net0.ClearRules()
	net0.Heal()
	if err := waitConverged(f.live(), locs, 20*time.Second); err != nil {
		return fmt.Errorf("chaos selftest: %w", err)
	}

	// No committed reservation lost: every seed lives on exactly one
	// surviving ledger. Checked before the sweep below — the ledger
	// clock has not moved during the schedule, so a missing seed here
	// means failover dropped it; after Advance the seeds complete
	// legitimately (their plans finish long before the sweep point) and
	// vanish from the commit table by design.
	liveNodes := f.nodes()
	for _, loc := range locs {
		name := "chaos-seed-" + string(loc)
		if homes := ledgerHomes(liveNodes, name); homes != 1 {
			owner, _ := liveNodes[0].Table().OwnerOf(loc)
			var held []string
			for _, m := range f.live() {
				if _, ok := m.nd.Server().Ledger().Commitment(name); ok {
					held = append(held, m.id)
				}
			}
			return fmt.Errorf("chaos selftest: %s lives on %d ledgers after the schedule, want exactly 1 (loc owned by %s, held on %v)",
				name, homes, owner, held)
		}
	}

	// Sweep every lease orphaned by a mid-protocol failure, then audit.
	sweepAt := leaseTTL * 4
	status, _, err := postJSON(ctx, httpc, members[0].url+"/v1/cluster/advance", map[string]any{"now": sweepAt})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("chaos selftest: advance sweep: status %d, err %v", status, err)
	}
	for _, m := range f.live() {
		if holds := m.nd.Server().Ledger().NumHolds(); holds != 0 {
			return fmt.Errorf("chaos selftest: node %s still has %d leased holds after the sweep", m.id, holds)
		}
		if err := m.nd.Server().Ledger().Audit(); err != nil {
			return fmt.Errorf("chaos selftest: node %s audit: %w", m.id, err)
		}
	}

	// Counter cross-checks: the evictions really were automatic (nothing
	// in this harness ever calls /v1/cluster/leave), the fence fired, and
	// the partitioned node came back by itself.
	var evictions, rejoins, fenced, repairs, promotions uint64
	for _, nd := range f.nodes() {
		st := nd.Stats().Cluster
		evictions += st.AutoEvictions
		rejoins += st.Rejoins
		fenced += st.FencedGossip
		repairs += st.IntentRepairs
		promotions += st.Promotions
	}
	if evictions < 1 {
		return errors.New("chaos selftest: no automatic evictions recorded; the failure detector never fired")
	}
	if rejoins < 1 {
		return errors.New("chaos selftest: no automatic rejoins recorded; the healed partition never fenced its victim back in")
	}
	if fenced < 1 {
		return errors.New("chaos selftest: no gossip was fenced with 421; the epoch fence never engaged")
	}
	if tot.Admitted == 0 {
		return errors.New("chaos selftest: background load admitted nothing; the schedule was not exercised under load")
	}

	// Deadline-assurance acceptance: across every kill, partition, and
	// promotion, no node may report a violated promise — failover must
	// carry each admitted job's deadline window intact — and kept
	// promises must exist, or the ledger tracked nothing. Read through
	// the cluster fan-out so the endpoint itself is exercised.
	var aresp cluster.ClusterAssureResponse
	if err := GetJSON(ctx, httpc, members[0].url+"/v1/assure", &aresp); err != nil {
		return fmt.Errorf("chaos selftest: cluster assure fan-out: %w", err)
	}
	for id, rep := range aresp.Nodes {
		if rep.Stats.Violated != 0 {
			return fmt.Errorf("chaos selftest: node %s reports %d violated promises; failover broke a deadline window", id, rep.Stats.Violated)
		}
	}
	if aresp.Totals.Violated != 0 {
		return fmt.Errorf("chaos selftest: %d promises violated across the cluster, want 0", aresp.Totals.Violated)
	}
	if aresp.Totals.Kept == 0 {
		return errors.New("chaos selftest: no kept promises recorded despite admitted load")
	}

	// Flight-recorder acceptance: the automatic evictions above must have
	// frozen snapshots on the survivors, and merging them — the exact
	// code path rotadoctor runs — must reconstruct at least one connected
	// trace spanning two or more nodes.
	var snaps []flightrec.Snapshot
	for _, m := range f.live() {
		var idx server.FlightRecIndex
		if err := GetJSON(ctx, httpc, m.url+"/debug/rota/flightrec", &idx); err != nil {
			return fmt.Errorf("chaos selftest: flightrec index from %s: %w", m.id, err)
		}
		snaps = append(snaps, idx.Snapshots...)
	}
	if len(snaps) == 0 {
		return errors.New("chaos selftest: no flight-recorder snapshots despite quorum evictions")
	}
	incident := flightrec.Merge(snaps)
	if len(incident.CrossNode) == 0 {
		var buf bytes.Buffer
		incident.WriteReport(&buf, 40)
		return fmt.Errorf("chaos selftest: %d snapshots from %v merged into no connected cross-node trace:\n%s",
			len(snaps), incident.Nodes, buf.String())
	}

	fc := net0.Counters()
	t := metrics.NewTable(
		fmt.Sprintf("rotad chaos selftest: %d nodes, seed %d, %d load batches", cfg.Nodes, cfg.Seed, tot.batches),
		"metric", "value")
	t.AddRow("load requests", tot.Requests)
	t.AddRow("load admitted", tot.Admitted)
	t.AddRow("load rejected", tot.Rejected)
	t.AddRow("load errors (failure windows)", tot.Errors)
	t.AddRow("load release errors", tot.ReleaseErrors)
	t.AddRow("load redirects followed", tot.Redirects)
	for i, r := range results {
		t.AddRow(fmt.Sprintf("round %d", i+1), fmt.Sprintf("%s %s", r.kind, r.victim))
		t.AddRow(fmt.Sprintf("round %d detect+evict ms", i+1), r.detectMS)
		if r.kind == "kill" {
			t.AddRow(fmt.Sprintf("round %d kill to first admit ms", i+1), r.admitMS)
		}
	}
	t.AddRow("auto evictions", evictions)
	t.AddRow("auto rejoins", rejoins)
	t.AddRow("fenced gossip 421s", fenced)
	t.AddRow("intent repairs", repairs)
	t.AddRow("standby promotions", promotions)
	t.AddRow("promises kept", aresp.Totals.Kept)
	t.AddRow("promises violated", aresp.Totals.Violated)
	t.AddRow("promises transferred", aresp.Totals.Transferred)
	t.AddRow("promises evicted with job", aresp.Totals.EvictedWithJob)
	t.AddRow("slo attainment", aresp.Totals.Attainment)
	t.AddRow("flight snapshots merged", len(incident.Snapshots))
	t.AddRow("cross-node traces", len(incident.CrossNode))
	t.AddRow("wire passed", fc.Passed)
	t.AddRow("wire dropped", fc.Dropped)
	t.AddRow("wire partition drops", fc.Partition)
	t.AddRow("membership epoch", members[0].nd.Table().Epoch)
	t.Print(out, cfg.CSV)
	fmt.Fprintln(out)
	incident.WriteReport(out, 20)
	fmt.Fprintln(out, "chaos selftest ok")
	return nil
}

// waitShadowsWarm blocks until every location's rendezvous runner-up
// holds a shadow with at least one commitment — the seeds must be
// survivable before anything is allowed to die.
func waitShadowsWarm(members []*member, locs []resource.Location, timeout time.Duration) error {
	byID := make(map[string]*member, len(members))
	for _, m := range members {
		byID[m.id] = m
	}
	var cold resource.Location
	var err error
	if waitFor(timeout, func() bool {
		tbl := members[0].nd.Table()
		for _, loc := range locs {
			standby := byID[tbl.StandbyOf(loc)]
			if standby == nil {
				err = fmt.Errorf("standby of %s is not a member", loc)
				return true
			}
			if cms, _, ok := standby.nd.ShadowFor(loc); !ok || cms < 1 {
				cold = loc
				return false
			}
		}
		return true
	}) {
		return err
	}
	return fmt.Errorf("shadow for %s never warmed on its standby", cold)
}

// waitDetectorsWarm blocks until every live member's φ detector holds at
// least MinSamples inter-arrival observations for every other live
// member — the baseline without which silence carries no suspicion.
func waitDetectorsWarm(ms []*member, timeout time.Duration) error {
	var cold string
	if waitFor(timeout, func() bool {
		for _, m := range ms {
			samples := make(map[string]int)
			for _, ph := range m.nd.Stats().Health.Peers {
				samples[ph.Peer] = ph.Samples
			}
			for _, other := range ms {
				if other.id != m.id && samples[other.id] < 3 {
					cold = fmt.Sprintf("%s has %d samples for %s", m.id, samples[other.id], other.id)
					return false
				}
			}
		}
		return true
	}) {
		return nil
	}
	return fmt.Errorf("failure detectors never warmed within %s (%s)", timeout, cold)
}

// waitConverged blocks until all nodes agree on one table epoch and every
// location is owned by a live member.
func waitConverged(ms []*member, locs []resource.Location, timeout time.Duration) error {
	live := make(map[string]bool, len(ms))
	for _, m := range ms {
		live[m.id] = true
	}
	if waitFor(timeout, func() bool {
		epoch := ms[0].nd.Table().Epoch
		for _, m := range ms {
			tbl := m.nd.Table()
			if tbl.Epoch != epoch {
				return false
			}
			for _, loc := range locs {
				if owner, found := tbl.OwnerOf(loc); !found || !live[owner] {
					return false
				}
			}
		}
		return true
	}) {
		return nil
	}
	return fmt.Errorf("ownership never converged within %s (epochs and owners still disagree)", timeout)
}
