package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/health"
	"repro/internal/membership"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
)

// Automatic failure detection and self-healing failover.
//
// Gossip receipt is the heartbeat: every /v1/cluster/gossip arrival
// feeds the φ-accrual detector, so no extra channel or message type is
// needed. Each gossip tick this node also evaluates the detector
// (healthTick) and advertises its current suspects in its own gossip —
// that advertisement is an *accusation*, and the accusation ledger is
// what turns local suspicion into cluster-level consensus:
//
//   - a peer is only auto-evicted when a quorum (strict majority of
//     the FULL roster, victim included) independently accuses it
//     within a freshness window, so one node with a broken link cannot
//     evict a healthy peer, no minority of a partition can ever evict
//     across the cut, and an exact even split stalls on both sides
//     instead of producing two live clusters;
//
//   - the steward of the eviction is deterministic — the warm standby
//     of the victim's first owned location (the node already holding
//     its shadows), falling back to the lowest-ID healthy survivor —
//     so concurrent evictions of the same victim collapse onto one
//     node instead of racing;
//
//   - the eviction itself is the existing force-leave choreography
//     (standby promotion from gossip-fed shadows), now initiated
//     automatically; the forward-only registry epoch is the fence that
//     keeps a partitioned-but-alive victim from split-braining: when it
//     comes back, every member answers its gossip with 421, and it
//     drops its stale state and rejoins as a fresh member.
//
// Crash-safety of the steward itself is covered by the intent journal
// (membership.Intent): a steward records its full membership plan the
// moment the choreography starts and gossips it until the final table
// lands. Any survivor that still sees an open intent from a steward it
// has declared dead takes the plan to its final table through the
// runner its steward used (runIntent), as the repairer: it probes each
// move's target for what actually arrived, keeps the moves that
// completed, promotes what a leave still needs, and publishes the final
// table itself.

// stage fires the test gate hook at a named protocol point.
func (n *Node) stage(stage, key string) {
	if n.gate != nil {
		n.gate(stage, key)
	}
}

// acquireSteward takes the 1-slot membership semaphore, queueing behind
// an in-flight join/leave for at most stewardWait before failing with a
// clear error (satellite: a graceful leave racing a join must queue,
// not fail opaquely).
func (n *Node) acquireSteward(ctx context.Context) error {
	select {
	case n.mmu <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(n.stewardWait)
	defer timer.Stop()
	select {
	case n.mmu <- struct{}{}:
		return nil
	case <-timer.C:
		return fmt.Errorf("cluster: steward busy with another membership change (waited %s)", n.stewardWait)
	case <-ctx.Done():
		return fmt.Errorf("cluster: steward wait abandoned: %w", ctx.Err())
	case <-n.shutdownCh:
		return errors.New("cluster: draining, not stewarding membership changes")
	}
}

func (n *Node) releaseSteward() { <-n.mmu }

// Intent journal bookkeeping. The node's own open intent lives in the
// same map as intents heard from peers, keyed by steward ID.

// setOwnIntent journals this node's choreography plan.
func (n *Node) setOwnIntent(it *membership.Intent) {
	n.imu.Lock()
	n.intents[n.self.ID] = it.Clone()
	n.imu.Unlock()
}

// ownIntent returns a copy of this node's open intent for gossip.
func (n *Node) ownIntent() *membership.Intent {
	n.imu.Lock()
	defer n.imu.Unlock()
	return n.intents[n.self.ID].Clone()
}

// intentFor returns a copy of the last open intent heard from steward.
func (n *Node) intentFor(steward string) *membership.Intent {
	n.imu.Lock()
	defer n.imu.Unlock()
	return n.intents[steward].Clone()
}

// clearIntentFor drops a stored intent (repaired, or finished by its
// steward).
func (n *Node) clearIntentFor(steward string) {
	n.imu.Lock()
	delete(n.intents, steward)
	n.imu.Unlock()
}

// observeGossip is the health half of gossip receipt: heartbeat the
// sender, record its accusations, and journal its open intent. The
// sender is already verified to be a roster member.
func (n *Node) observeGossip(g Gossip, now time.Time) {
	n.detector.Observe(g.Node, now)
	n.hmu.Lock()
	for _, victim := range g.Suspects {
		if victim == n.self.ID || victim == g.Node {
			continue
		}
		acc, ok := n.accusals[victim]
		if !ok {
			acc = make(map[string]time.Time)
			n.accusals[victim] = acc
		}
		acc[g.Node] = now
	}
	n.hmu.Unlock()
	if g.Intent != nil {
		if g.Intent.Steward == g.Node && g.Intent.Validate() == nil &&
			g.Intent.TargetEpoch > n.reg.Epoch() {
			n.imu.Lock()
			n.intents[g.Node] = g.Intent.Clone()
			n.imu.Unlock()
		}
	} else {
		// The sender stewards nothing right now; if we hold an intent of
		// theirs whose target the sender's own epoch has reached, it
		// finished (the final-table broadcast to us was lost).
		n.imu.Lock()
		if it := n.intents[g.Node]; it != nil && g.Epoch >= it.TargetEpoch {
			delete(n.intents, g.Node)
		}
		n.imu.Unlock()
	}
}

// accusalWindow is how long a gossip accusation stays fresh: three
// gossip intervals, matching how quickly a recovered peer's gossip
// stops carrying the accusation.
func (n *Node) accusalWindow() time.Duration {
	if n.gossipEvery <= 0 {
		return 3 * time.Second
	}
	return 3 * n.gossipEvery
}

// healthTick runs on the gossip goroutine: evaluate the detector over
// the current roster, refresh the advertised suspect set, and — when
// auto-eviction is enabled and a quorum agrees a peer is dead — start
// the failover if this node is the deterministic steward.
func (n *Node) healthTick(now time.Time) {
	tbl := n.reg.Snapshot()
	roster := make(map[string]bool, len(tbl.Members))
	for _, m := range tbl.Members {
		roster[m.ID] = true
	}
	// Forget departed peers so their stale histories cannot accuse.
	for _, id := range n.detector.Peers() {
		if !roster[id] {
			n.detector.Forget(id)
		}
	}
	// Register every roster member with the detector, so one we have
	// never heard from (a joiner announced by a steward that died
	// before the joiner ever gossiped) accrues bootstrap suspicion
	// instead of holding φ = 0 forever — with the full-roster quorum
	// an unjudgeable member could otherwise wedge every eviction.
	for _, m := range tbl.Members {
		if m.ID != n.self.ID {
			n.detector.Expect(m.ID, now)
		}
	}
	assessments := n.detector.Evaluate(now)
	var suspects []string
	dead := make([]health.Assessment, 0, 1)
	for _, a := range assessments {
		if !roster[a.Peer] || a.State == health.Alive {
			continue
		}
		suspects = append(suspects, a.Peer)
		if a.State == health.Dead {
			dead = append(dead, a)
		}
	}
	window := n.accusalWindow()
	n.hmu.Lock()
	n.suspects = suspects
	for victim, acc := range n.accusals {
		for accuser, at := range acc {
			if now.Sub(at) > window || !roster[accuser] || !roster[victim] {
				delete(acc, accuser)
			}
		}
		if len(acc) == 0 {
			delete(n.accusals, victim)
		}
	}
	n.hmu.Unlock()
	n.suspectedNow.Store(uint64(len(suspects)))

	// Quorum eviction needs at least 3 members: with 2, the full-roster
	// quorum is 2 and the single survivor can never muster it, so the
	// guard only spares pointless bookkeeping.
	if !n.autoEvict || len(tbl.Members) < 3 || n.draining() {
		return
	}
	bad := make(map[string]bool, len(suspects)+1)
	for _, id := range suspects {
		bad[id] = true
	}
	for _, a := range dead {
		victim := a.Peer
		accusers := map[string]bool{n.self.ID: true} // our detector holds the victim Dead
		n.hmu.Lock()
		for accuser, at := range n.accusals[victim] {
			if accuser != n.self.ID && now.Sub(at) <= window {
				accusers[accuser] = true
			}
		}
		n.hmu.Unlock()
		// Quorum over the FULL roster, victim included. Counting only
		// survivors (len-1) looks natural but is unsafe: in an even N|N
		// split of a 2N-node cluster each half has N accusers against a
		// survivor-majority of N, so both halves would evict the other
		// and admit against the same capacity. Against N/2+1 an exact
		// half can never win — a tied split stalls safely (operator
		// force-leave remains available) while every single-failure case
		// still evicts.
		quorum := len(tbl.Members)/2 + 1
		if len(accusers) < quorum {
			continue
		}
		// The member whose membership the dead steward was choreographing
		// cannot steward the eviction: a leave victim would have to
		// publish a table excluding itself (which its own registry
		// refuses), and a joiner's own half-applied membership is exactly
		// what the repair must adjudicate — its failed JoinCluster call
		// has returned an error and it may abandon the join entirely.
		// Every quorum member holds the same gossiped intent, so the
		// exclusion is as deterministic as the rest of the election.
		if it := n.intentFor(victim); it != nil {
			bad[it.Member.ID] = true
		}
		steward := n.electSteward(tbl, victim, bad, accusers)
		if steward != n.self.ID {
			continue
		}
		n.hmu.Lock()
		already := n.evicting[victim]
		if !already {
			n.evicting[victim] = true
		}
		n.hmu.Unlock()
		if already {
			continue
		}
		n.obs.Log("health.evict_start",
			"node", n.self.ID, "victim", victim, "phi", a.Phi,
			"accusers", len(accusers), "quorum", quorum, "suspect_for_ms", a.SuspectFor.Milliseconds())
		go n.autoEvictVictim(victim)
	}
}

// electSteward picks the deterministic failover steward for victim:
// the warm standby of the victim's first (sorted) owned location — the
// node already holding its shadows — when that standby itself accuses
// the victim, falling back to the lowest-ID healthy accuser. Only
// accusers are eligible: a member whose detector does not hold the
// victim dead (a fresh joiner still inside its φ bootstrap window, or
// the minority side of a partition) would be elected and then never
// act, stalling the failover forever. Every quorum member computes the
// same answer from the same table and (converged) accusal view, so
// concurrent evictions collapse onto one steward; a transient
// divergence at worst elects two, and the forward-only epoch CAS makes
// the second force-leave a harmless no-op.
func (n *Node) electSteward(tbl *membership.Table, victim string, bad, accusers map[string]bool) string {
	good := func(id string) bool {
		_, member := tbl.Member(id)
		return member && id != victim && !bad[id] && accusers[id]
	}
	for _, loc := range tbl.Locations(victim) {
		if sb := tbl.StandbyOf(loc); sb != "" && good(sb) {
			return sb
		}
		break // only the first owned location elects; fall back otherwise
	}
	for _, m := range tbl.Members { // sorted by ID
		if good(m.ID) {
			return m.ID
		}
	}
	return ""
}

// autoEvictVictim runs one automatic failover: acquire the steward
// semaphore, re-verify the victim is still a dead member, finish any
// membership plan the victim left open (it may itself have died
// mid-steward), then run the standard forced leave.
func (n *Node) autoEvictVictim(victim string) {
	defer func() {
		n.hmu.Lock()
		delete(n.evicting, victim)
		n.hmu.Unlock()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 3*n.stewardWait)
	defer cancel()
	if err := n.acquireSteward(ctx); err != nil {
		n.obs.Log("health.evict_blocked", "node", n.self.ID, "victim", victim, "error", err)
		return
	}
	defer n.releaseSteward()
	tbl := n.reg.Snapshot()
	if _, ok := tbl.Member(victim); !ok {
		return // someone else already evicted it
	}
	if n.detector.Phi(victim, time.Now()) < n.detector.Options().EvictPhi {
		return // it came back while we queued for the semaphore
	}
	if it := n.intentFor(victim); it != nil {
		if _, _, err := n.runIntent(ctx, it); err != nil {
			n.obs.Log("health.repair_failed", "node", n.self.ID, "steward", victim, "error", err)
		}
	}
	next, _, err := n.stewardLeave(ctx, membership.LeaveRequest{ID: victim, Force: true})
	if err != nil {
		n.obs.Log("health.evict_failed", "node", n.self.ID, "victim", victim, "error", err)
		return
	}
	n.autoEvictions.Add(1)
	n.detector.Forget(victim)
	n.hmu.Lock()
	delete(n.accusals, victim)
	n.hmu.Unlock()
	n.clearIntentFor(victim)
	n.obs.Log("health.evicted",
		"node", n.self.ID, "victim", victim, "epoch", next.Epoch)
}

// ownedResponse answers GET /v1/cluster/owned: which of the queried
// locations this node's ledger currently owns. Intent repair probes a
// move's target with it to learn whether the handoff completed.
type ownedResponse struct {
	Owned []string `json:"owned"`
}

func (n *Node) handleOwned(w http.ResponseWriter, r *http.Request) {
	var owned []string
	for _, part := range strings.Split(r.URL.Query().Get("locs"), ",") {
		if part = strings.TrimSpace(part); part != "" {
			if n.srv.Ledger().Owned(resource.Location(part)) {
				owned = append(owned, part)
			}
		}
	}
	server.WriteJSON(w, http.StatusOK, ownedResponse{Owned: owned})
}

// rpcOwned probes which of locs a member's ledger owns; this node's
// own ledger is read directly.
func (n *Node) rpcOwned(ctx context.Context, m membership.Member, locs []resource.Location) (map[resource.Location]bool, error) {
	out := make(map[resource.Location]bool, len(locs))
	if m.ID == n.self.ID {
		for _, loc := range locs {
			if n.srv.Ledger().Owned(loc) {
				out[loc] = true
			}
		}
		return out, nil
	}
	parts := make([]string, len(locs))
	for i, loc := range locs {
		parts[i] = string(loc)
	}
	var resp ownedResponse
	ps := n.peerFor(ownerRef{id: m.ID, url: m.URL})
	target := m.URL + "/v1/cluster/owned?locs=" + url.QueryEscape(strings.Join(parts, ","))
	if err := n.client.call(ctx, http.MethodGet, target, nil, &resp, nil, ps.rpc); err != nil {
		return nil, fmt.Errorf("cluster: owned probe on %s: %w", m.ID, err)
	}
	for _, loc := range resp.Owned {
		out[resource.Location(loc)] = true
	}
	return out, nil
}

// maybeRejoin reacts to a 421 fence on our own gossip: we were evicted
// (typically while partitioned). Drop all stale cluster state and
// rejoin as a fresh member — the clean alternative to split-braining.
// Each via is tried in turn: the caller may only have a table to go on,
// and some of its members may be dead too. A node that gracefully left
// is fenced too, and stays out.
func (n *Node) maybeRejoin(vias ...string) {
	if len(vias) == 0 || n.draining() || n.left.Load() || !n.rejoining.CompareAndSwap(false, true) {
		return
	}
	go n.rejoin(vias)
}

// rejoin demotes this node to a blank joiner and re-enters the cluster
// through the first reachable via. Everything epoch-fenced is
// discarded: owned locations
// (their committed state lives on with the promoted standbys), the
// routing overlay, shadows, detector histories, accusations, journaled
// intents. Reservations committed here after the cluster evicted us are
// lost by design — the fenced side of a partition loses, which is
// exactly what keeps both sides from promising the same capacity.
func (n *Node) rejoin(vias []string) {
	defer n.rejoining.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 3*n.stewardWait)
	defer cancel()
	sctx, sp := n.spans.Start(ctx, span.KindRejoin)
	defer sp.End()
	sp.Attr("via", vias[0])

	n.flowMu.Lock()
	dropped := n.srv.Ledger().OwnedLocations()
	// Every promise still open here dies with the fenced state: the jobs
	// leave with their locations (the promoted standbys adopted them), so
	// the terminal outcome on this node is evicted-with-job, not the
	// `transferred` a deliberate handoff would record.
	if evicted := n.srv.Assure().EvictAll(n.srv.Ledger().Now()); evicted > 0 {
		n.obs.Log("assure.evicted_with_job", "node", n.self.ID, "promises", evicted)
	}
	n.srv.Ledger().DropLocations(dropped)
	n.omu.Lock()
	n.overlay = make(map[resource.Location]ownerRef)
	n.omu.Unlock()
	n.flowMu.Unlock()
	n.smu.Lock()
	n.shadows = make(map[resource.Location]server.LocationExport)
	n.smu.Unlock()
	for _, id := range n.detector.Peers() {
		n.detector.Forget(id)
	}
	n.hmu.Lock()
	n.accusals = make(map[string]map[string]time.Time)
	n.suspects = nil
	n.hmu.Unlock()
	n.imu.Lock()
	n.intents = make(map[string]*membership.Intent)
	n.imu.Unlock()
	n.suspectedNow.Store(0)

	sp.Attr("dropped", len(dropped))
	var err error
	for _, via := range vias {
		if err = n.JoinCluster(sctx, via, nil); err == nil {
			n.rejoins.Add(1)
			n.obs.Log("health.rejoined",
				"node", n.self.ID, "via", via, "dropped", len(dropped), "epoch", n.reg.Epoch())
			return
		}
		n.obs.Log("health.rejoin_via_failed", "node", n.self.ID, "via", via, "error", err)
	}
	sp.SetStatus(span.StatusError)
	sp.Attr("error", err)
	n.obs.Log("health.rejoin_failed", "node", n.self.ID, "vias", len(vias), "error", err)
}

// PeerHealth is one peer's failure-detector verdict as surfaced by
// /v1/stats.
type PeerHealth struct {
	Peer         string  `json:"peer"`
	Phi          float64 `json:"phi"`
	State        string  `json:"state"`
	Samples      int     `json:"samples"`
	SuspectForMS int64   `json:"suspect_for_ms,omitempty"`
}

// HealthStatus is the /v1/stats health section: detector configuration
// plus the live per-peer assessments.
type HealthStatus struct {
	SuspectPhi float64      `json:"suspect_phi"`
	EvictPhi   float64      `json:"evict_phi"`
	AutoEvict  bool         `json:"auto_evict"`
	Peers      []PeerHealth `json:"peers,omitempty"`
}

// healthStatus assembles the stats section. Evaluate's transitions are
// deterministic in elapsed time, so a stats scrape advancing the state
// machine is indistinguishable from the next healthTick doing it.
func (n *Node) healthStatus() HealthStatus {
	opts := n.detector.Options()
	st := HealthStatus{SuspectPhi: opts.SuspectPhi, EvictPhi: opts.EvictPhi, AutoEvict: n.autoEvict}
	for _, a := range n.detector.Evaluate(time.Now()) {
		ph := PeerHealth{Peer: a.Peer, Phi: a.Phi, State: a.State.String(), Samples: a.Samples}
		if a.SuspectFor > 0 {
			ph.SuspectForMS = a.SuspectFor.Milliseconds()
		}
		st.Peers = append(st.Peers, ph)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Peer < st.Peers[j].Peer })
	return st
}
