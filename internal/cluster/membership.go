package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/server"
)

// Dynamic membership: nodes join and leave at runtime, ownership of
// locations follows an epoch-versioned table (rendezvous hashing plus
// explicit pins), and each ownership handoff rides the same
// make-before-break discipline as the paper's migrate rule — the new
// owner holds the location's full ledger state before the old owner
// drops it, so committed reservations are never lost and the
// no-overcommitment invariant holds on every node at every step.
//
// The moving parts:
//
//   - Every node publishes an immutable *membership.Table through a
//     Registry; epochs only move forward. The steward of a membership
//     change (whichever member received the join/leave request) builds
//     the next table, executes the implied handoffs, applies the table
//     locally and broadcasts it. Peers also converge by anti-entropy:
//     gossip carries the sender's epoch, and a node that hears a higher
//     one fetches the table.
//
//   - Between an ownership move and the table that publishes it
//     reaching everyone, routing is covered by one per-node overlay: a
//     location maps to the owner this node last saw it move to and the
//     epoch of that move. An install or promotion here names this node
//     (it accepts traffic the table does not grant it yet), a handoff
//     names the new owner (the old owner answers 421 Misdirected Request
//     with its coordinates), and a followed redirect names whoever the
//     redirect did. Routing reads the overlay, then the table; an entry
//     dies as soon as a table of an equal-or-higher epoch lands.
//
//   - Two-phase reservations whose location moved keep working, leased
//     (mid-2PC) or already committed (the coordinator may still roll a
//     partial commit back): the old owner remembers their keys
//     (movedKeys) and forwards the coordinator's eventual commit/abort
//     to the new owner.
//
//   - Each owned location has a warm standby — the rendezvous runner-up,
//     which is exactly the node LeaveMoves would hand the location to —
//     fed by gossip-shipped ledger exports (shadows). A dead primary is
//     force-left: standbys promote from their shadows without the
//     primary's cooperation.

// ownerRef is one overlay routing entry: where a location (or a moved
// reservation's key) now lives, and the table epoch the move belongs to.
// A location has one owner at each epoch, so one entry per location is
// the whole routing fact.
type ownerRef struct {
	id    string
	url   string
	epoch uint64
}

// errStaleOwner signals that a coordination step discovered mid-flight
// that a participant no longer owns part of the footprint; the caller
// re-resolves owners and retries. It wraps server.ErrNotOwned, the
// ledger's word for the same thing.
var errStaleOwner = fmt.Errorf("cluster: ownership moved, retry with refreshed owners: %w", server.ErrNotOwned)

// maxOwnerRetries bounds how many times one admission re-resolves
// ownership after a redirect before giving up.
const maxOwnerRetries = 3

// Table returns the node's current membership table (tests, stats).
func (n *Node) Table() *membership.Table { return n.reg.Snapshot() }

// peersSnapshot returns the live peer list (membership order).
func (n *Node) peersSnapshot() []*peerState {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	out := make([]*peerState, len(n.peers))
	copy(out, n.peers)
	return out
}

// peerByID resolves a member ID to its live peer state.
func (n *Node) peerByID(id string) (*peerState, bool) {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	ps, ok := n.byID[id]
	return ps, ok
}

// peerFor resolves an owner reference to a peer state, minting one for
// a member learned via redirect before its table arrived.
func (n *Node) peerFor(ref ownerRef) *peerState {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if ps, ok := n.byID[ref.id]; ok {
		return ps
	}
	ps := &peerState{Peer: Peer{ID: ref.id, URL: ref.url}, rpc: metrics.NewRPCStats()}
	ps.isSelf = ref.id == n.self.ID
	n.byID[ref.id] = ps
	return ps
}

// lookupOwner resolves a location to its current owner: the overlay
// first (it is newer than the published table during a move), then the
// table.
func (n *Node) lookupOwner(loc resource.Location) (ownerRef, bool) {
	tbl := n.reg.Snapshot()
	n.omu.Lock()
	ref, ok := n.overlay[loc]
	n.omu.Unlock()
	if ok && ref.epoch > tbl.Epoch {
		return ref, true
	}
	if id, ok := tbl.OwnerOf(loc); ok {
		m, _ := tbl.Member(id)
		return ownerRef{id: id, url: m.URL, epoch: tbl.Epoch}, true
	}
	return ownerRef{}, false
}

// redirectFor builds the 421 body for a request touching locations
// owned elsewhere: the owner of the first foreign location plus every
// requested location living with that same owner. Owners are resolved
// like every other routing decision (lookupOwner: the overlay, then the
// published table), which covers the handoff window before the new
// table lands and the window after it (the table itself) — and keeps a
// new owner from bouncing requests back to the old one while its own
// table still lags the install.
func (n *Node) redirectFor(locs []resource.Location) (membership.RedirectResponse, bool) {
	for _, loc := range locs {
		ref, ok := n.lookupOwner(loc)
		if !ok || ref.id == n.self.ID {
			continue
		}
		red := membership.RedirectResponse{OwnerID: ref.id, OwnerURL: ref.url, Epoch: ref.epoch}
		for _, l2 := range locs {
			if r2, ok := n.lookupOwner(l2); ok && r2.id == ref.id {
				red.Locs = append(red.Locs, l2)
			}
		}
		return red, true
	}
	return membership.RedirectResponse{}, false
}

// serveRedirect answers 421 Misdirected Request with the new owner.
func (n *Node) serveRedirect(w http.ResponseWriter, red membership.RedirectResponse) {
	n.redirectsServed.Add(1)
	server.WriteJSON(w, http.StatusMisdirectedRequest, red)
}

// learnRedirect records a followed redirect in the overlay so later
// requests route straight to the new owner.
func (n *Node) learnRedirect(red membership.RedirectResponse) {
	n.place(red.Locs, ownerRef{id: red.OwnerID, url: red.OwnerURL, epoch: red.Epoch}, true)
	n.redirectsFollowed.Add(1)
}

// place records locs as living with ref in the overlay. A move this
// node's own ledger made (an install, a promotion, a handoff) always
// lands: the entry must name whoever now holds what the ledger took in
// or shipped out. A followed redirect is hearsay, and lands only when
// its epoch is newer than the entry's and the entry is not an install
// here that no table has granted or rolled back yet.
func (n *Node) place(locs []resource.Location, ref ownerRef, heard bool) {
	n.omu.Lock()
	defer n.omu.Unlock()
	for _, loc := range locs {
		if cur, ok := n.overlay[loc]; heard && ok && (cur.epoch >= ref.epoch || cur.id == n.self.ID) {
			continue
		}
		n.overlay[loc] = ref
	}
}

// staleOwner inspects a peer-RPC failure for an ownership redirect;
// when found, the new owner is learned and the caller should retry
// against refreshed ownership. A local ErrNotOwned on a self
// participant means the same thing: the location left this node while
// the coordination was in flight.
func (n *Node) staleOwner(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, server.ErrNotOwned) {
		return true
	}
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusMisdirectedRequest {
		return false
	}
	red, derr := membership.DecodeRedirect([]byte(se.body))
	if derr != nil {
		return false
	}
	n.learnRedirect(red)
	return true
}

// applyTable installs a newer membership table: the registry advances,
// the peer list is rebuilt (existing peer states survive so RPC stats
// and gossip history carry over), overlay entries the table supersedes
// are cleared, and standing watches re-evaluate against the new
// ownership.
//
// A newer table that excludes this node is refused: it means the
// cluster evicted us (we were partitioned, presumed dead, failed over).
// Applying it would leave the node routing a cluster it no longer
// belongs to; instead the fence-and-rejoin path runs — drop all stale
// state and re-enter as a fresh member via any member of that table.
func (n *Node) applyTable(t *membership.Table) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Member(n.self.ID); !ok {
		if n.left.Load() {
			// Our own graceful leave, published: follow the cluster's
			// tables from outside it rather than rejoin.
			return n.installTable(t)
		}
		if t.Epoch > n.reg.Epoch() && len(t.Members) > 0 {
			n.obs.Log("membership.evicted",
				"node", n.self.ID, "epoch", t.Epoch)
			// Any member of the fencing table can readmit us — and some
			// of them may themselves be dead (the table that fenced us
			// may predate their own eviction), so offer every URL.
			vias := make([]string, 0, len(t.Members))
			for _, m := range t.Members {
				if m.ID != n.self.ID {
					vias = append(vias, m.URL)
				}
			}
			n.maybeRejoin(vias...)
		}
		return false
	}
	return n.installTable(t)
}

// installTable is applyTable without the self-membership check — the
// graceful self-leave path applies a table that excludes this node on
// purpose.
func (n *Node) installTable(t *membership.Table) bool {
	prev := n.reg.Snapshot()
	if !n.reg.Apply(t) {
		return false
	}
	n.tableApplies.Add(1)
	n.pmu.Lock()
	peers := make([]*peerState, 0, len(t.Members))
	byID := make(map[string]*peerState, len(t.Members))
	for _, m := range t.Members {
		ps, ok := n.byID[m.ID]
		if !ok || ps.URL != m.URL {
			// A member can rejoin under the same ID at a new address, and
			// a stale overlay ref can re-mint the old address (peerFor)
			// between its eviction and its return. The table is
			// authoritative for member URLs: re-seat the peer whenever
			// they disagree, or gossip to the dead incarnation forever.
			ps = &peerState{Peer: Peer{ID: m.ID, URL: m.URL}, rpc: metrics.NewRPCStats()}
			ps.isSelf = m.ID == n.self.ID
		}
		peers = append(peers, ps)
		byID[m.ID] = ps
	}
	n.peers = peers
	n.byID = byID
	n.pmu.Unlock()
	// A member absent from the previous table is a (re)joiner. Any
	// detector history or accusations held under its ID describe a dead
	// incarnation — including the very silence that evicted it — so a
	// rejoiner would otherwise arrive with φ already above the eviction
	// level and be force-left again before it ships its first shadow.
	// Forget it: the fresh incarnation restarts inside the detector's
	// bootstrap window, immune until a new inter-arrival baseline forms.
	for _, m := range t.Members {
		if m.ID == n.self.ID {
			continue
		}
		if _, was := prev.Member(m.ID); !was {
			n.detector.Forget(m.ID)
			n.hmu.Lock()
			delete(n.accusals, m.ID)
			n.hmu.Unlock()
		}
	}
	var rollback []resource.Location
	n.omu.Lock()
	for loc, ref := range n.overlay {
		owner, _ := t.OwnerOf(loc)
		switch {
		case ref.id == n.self.ID && owner == n.self.ID:
			// Granted: the table now records us as the owner.
			delete(n.overlay, loc)
		case ref.epoch <= t.Epoch:
			delete(n.overlay, loc)
			if ref.id == n.self.ID {
				// Superseded: the epoch this install belonged to has been
				// published and assigned the location elsewhere — a
				// repaired (rolled-back) plan. Drop the un-granted install
				// so we stop accepting traffic the table routes to someone
				// else.
				rollback = append(rollback, loc)
			}
		}
	}
	n.omu.Unlock()
	if len(rollback) > 0 {
		n.srv.Ledger().DropLocations(rollback)
		n.obs.Log("membership.rollback",
			"node", n.self.ID, "epoch", t.Epoch, "locations", len(rollback))
	}
	// Close journaled intents the new table proves finished.
	n.imu.Lock()
	for steward, it := range n.intents {
		if it.TargetEpoch <= t.Epoch {
			delete(n.intents, steward)
		}
	}
	n.imu.Unlock()
	n.obs.Log("membership.apply",
		"node", n.self.ID, "epoch", t.Epoch, "members", len(t.Members))
	// A member present before and gone now was evicted (or left). Freeze
	// a flight-recorder snapshot on every node applying the shrink: the
	// run-up evidence — suspicion, accusations, the quorum forming — is
	// exactly what an incident review needs, and snapshots landing on
	// several nodes at once are what lets rotadoctor stitch the eviction
	// into one cross-node timeline.
	if rec := n.srv.FlightRecorder(); rec != nil {
		for _, m := range prev.Members {
			if m.ID == n.self.ID {
				continue
			}
			if _, still := t.Member(m.ID); !still {
				rec.Trigger(flightrec.TriggerEviction, m.ID)
			}
		}
	}
	// Ownership changed: standing watches whose footprint touches moved
	// locations must re-evaluate through the fan-out evaluator.
	n.srv.Queries().Bump(n.srv.Ledger().Epoch(), "membership")
	return true
}

// broadcastTable pushes a freshly applied table to every other member
// (best effort; gossip anti-entropy repairs any miss).
func (n *Node) broadcastTable(ctx context.Context, t *membership.Table) {
	body, err := json.Marshal(t.ToWire())
	if err != nil {
		return
	}
	for _, ps := range n.peersSnapshot() {
		if ps.isSelf {
			continue
		}
		_ = n.client.call(ctx, http.MethodPost, ps.URL+"/v1/cluster/table", body, nil, nil, ps.rpc)
	}
}

// fetchTable pulls a peer's table and applies it if newer (anti-entropy
// after gossip advertised a higher epoch).
func (n *Node) fetchTable(url string) {
	ctx, cancel := context.WithTimeout(context.Background(), n.client.timeout)
	defer cancel()
	var w membership.WireTable
	if err := n.client.call(ctx, http.MethodGet, url+"/v1/cluster/table", nil, &w, nil, nil); err != nil {
		return
	}
	if t, err := membership.FromWire(w); err == nil {
		n.applyTable(t)
	}
}

// installRequest ships exported location state between nodes: handoff
// installs and standby shadow feeds use the same body. Epoch is the
// table epoch the install belongs to (handoffs only; zero for shadow
// feeds): the receiver stamps its overlay entry with it so a final
// table that rolls the plan back can also roll back the install.
type installRequest struct {
	Epoch   uint64                  `json:"epoch,omitempty"`
	Exports []server.LocationExport `json:"exports"`
}

// promoteRequest asks a standby to take ownership of locations from its
// shadows (the force-leave path, when the primary cannot hand off).
type promoteRequest struct {
	Locs []resource.Location `json:"locs"`
}

// executeHandoff moves locations from this node to a new owner,
// make-before-break: freeze the flow paths, export, install on the new
// owner, and only then drop locally. On install failure nothing is
// dropped — the locations simply stay here (a retried install is
// idempotent: imports merge by name and key). After the drop, the
// routing overlay covers the window until the new table propagates.
func (n *Node) executeHandoff(ctx context.Context, locs []resource.Location, toID, toURL string, epoch uint64) error {
	sctx, sp := n.spans.Start(ctx, span.KindHandoff)
	defer sp.End()
	sp.Attr("to", toID)
	sp.Attr("locations", len(locs))
	sp.Attr("epoch", epoch)
	n.flowMu.Lock()
	defer n.flowMu.Unlock()
	exports := n.srv.Ledger().ExportLocations(locs)
	body, err := json.Marshal(installRequest{Epoch: epoch, Exports: exports})
	if err != nil {
		sp.SetStatus(span.StatusError)
		return err
	}
	to := n.peerFor(ownerRef{id: toID, url: toURL, epoch: epoch})
	if err := n.client.call(sctx, http.MethodPost, toURL+"/v1/cluster/install", body, nil, nil, to.rpc); err != nil {
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		return fmt.Errorf("cluster: installing %d locations on %s: %w", len(locs), toID, err)
	}
	moved := n.srv.Ledger().DropLocations(locs)
	ref := ownerRef{id: toID, url: toURL, epoch: epoch}
	n.place(locs, ref, false)
	n.omu.Lock()
	for _, key := range moved {
		n.movedKeys[key] = ref
	}
	n.omu.Unlock()
	n.handoffs.Add(1)
	sp.Attr("moved_keys", len(moved))
	n.obs.Log("membership.handoff",
		"node", n.self.ID, "to", toID, "locations", len(locs), "moved_keys", len(moved), "epoch", epoch)
	return nil
}

// ShadowFor reports the warm-standby shadow this node holds for loc —
// how many commitment slices and leased holds it carries. Callers
// (e.g. the failover selftest) poll it before killing a primary so the
// promotion is judged against a shadow that has actually caught up.
func (n *Node) ShadowFor(loc resource.Location) (commitments, holds int, ok bool) {
	n.smu.Lock()
	defer n.smu.Unlock()
	exp, found := n.shadows[loc]
	if !found {
		return 0, 0, false
	}
	return len(exp.Commitments), len(exp.Holds), true
}

// promoteLocal takes ownership of locations from local shadows — the
// standby half of failover. A location without a shadow is still
// adopted (an empty shard) so the cluster keeps routing; the miss is
// counted.
func (n *Node) promoteLocal(ctx context.Context, locs []resource.Location, epoch uint64) error {
	_, sp := n.spans.Start(ctx, span.KindPromote)
	defer sp.End()
	sp.Attr("locations", len(locs))
	sp.Attr("epoch", epoch)
	var exports []server.LocationExport
	misses := 0
	n.smu.Lock()
	for _, loc := range locs {
		if exp, ok := n.shadows[loc]; ok {
			exports = append(exports, exp)
		} else {
			misses++
		}
	}
	n.smu.Unlock()
	n.srv.Ledger().AddOwned(locs)
	if err := n.srv.Ledger().ImportLocations(exports); err != nil {
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		return fmt.Errorf("cluster: promoting from shadows: %w", err)
	}
	n.place(locs, ownerRef{id: n.self.ID, url: n.self.URL, epoch: epoch}, false)
	if misses > 0 {
		n.shadowMisses.Add(uint64(misses))
	}
	n.promotions.Add(1)
	sp.Attr("shadow_misses", misses)
	n.obs.Log("membership.promote",
		"node", n.self.ID, "locations", len(locs), "shadow_misses", misses, "epoch", epoch)
	return nil
}

// JoinCluster asks an existing member (the steward) to admit this node:
// the steward plans the rebalance, drives the handoffs (this node's
// install endpoint receives the ledger state before the reply arrives),
// and returns the new table. Pins force specific locations onto this
// node regardless of the hash.
func (n *Node) JoinCluster(ctx context.Context, steward string, pins []resource.Location) error {
	req := membership.JoinRequest{ID: n.self.ID, URL: n.self.URL, Pins: pins}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var w membership.WireTable
	if err := n.client.call(ctx, http.MethodPost, steward+"/v1/cluster/join", body, &w, nil, nil); err != nil {
		return fmt.Errorf("cluster: joining via %s: %w", steward, err)
	}
	t, err := membership.FromWire(w)
	if err != nil {
		return fmt.Errorf("cluster: join reply: %w", err)
	}
	if !n.applyTable(t) && n.reg.Epoch() < t.Epoch {
		return fmt.Errorf("cluster: join table (epoch %d) rejected locally", t.Epoch)
	}
	n.left.Store(false)
	return nil
}

// handleJoin is the steward side of /v1/cluster/join: announce the new
// member (roster only, no ownership change), journal the full plan as
// an intent, execute the implied moves as make-before-break handoffs,
// publish the final table, and hand it back to the joiner. A handoff
// that fails simply leaves its location with the old owner — the table
// only records moves that completed. If this steward dies partway, any
// survivor holding the gossiped intent repairs the plan (repairIntent)
// and publishes the final table itself.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	if n.draining() {
		server.HTTPError(w, http.StatusServiceUnavailable, errors.New("cluster: draining, not accepting members"))
		return
	}
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	req, err := membership.DecodeJoinRequest(body.Bytes())
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	if err := n.acquireSteward(r.Context()); err != nil {
		server.HTTPError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer n.releaseSteward()
	cur := n.reg.Snapshot()
	if m, ok := cur.Member(req.ID); ok && m.URL == req.URL {
		// Idempotent re-join: already a member, hand back the table.
		server.WriteJSON(w, http.StatusOK, cur.ToWire())
		return
	}
	sctx, sp := n.spans.Start(r.Context(), span.KindJoin)
	defer sp.End()
	sp.Attr("member", req.ID)
	member := membership.Member{ID: req.ID, URL: req.URL}
	moves := cur.JoinMoves(member, req.Pins)
	// Announce the member before moving any data. Release, coordination,
	// and query fan-outs target the roster, so a commitment that lands on
	// the joiner mid-handoff is only reachable from nodes whose roster
	// already includes it. The announce table grows the roster one epoch
	// early and changes no ownership; the handoffs and the final table
	// then land at the epoch after it.
	announce := cur.Joined(member, nil, nil)
	if !n.applyTable(announce) {
		sp.SetStatus(span.StatusError)
		server.HTTPError(w, http.StatusConflict, errors.New("cluster: membership changed concurrently, retry the join"))
		return
	}
	// Journal the plan and push it to the survivors before any data
	// moves: from here on, a steward crash is repairable by anyone who
	// heard this gossip.
	pinStrs := make([]string, len(req.Pins))
	for i, loc := range req.Pins {
		pinStrs[i] = string(loc)
	}
	n.setOwnIntent(&membership.Intent{
		Steward: n.self.ID, Kind: membership.IntentJoin, Member: member,
		AnnounceEpoch: announce.Epoch, TargetEpoch: announce.Epoch + 1,
		Moves: moves, Pins: pinStrs, Stage: membership.StageAnnounced,
	})
	n.broadcastTable(sctx, announce)
	n.sendGossip(sctx)
	n.stage("join.announced", req.ID)
	nextEpoch := announce.Epoch + 1
	n.setOwnIntentStage(membership.StageMoving)
	n.stage("join.moving", req.ID)
	executed := make([]membership.Move, 0, len(moves))
	for _, grp := range groupMovesByFrom(moves) {
		var herr error
		if grp.from == n.self.ID {
			herr = n.executeHandoff(sctx, grp.locs, req.ID, req.URL, nextEpoch)
		} else if from, ok := cur.Member(grp.from); ok {
			herr = n.rpcHandoff(sctx, from, membership.HandoffRequest{
				Epoch: nextEpoch, Locs: grp.locs, To: req.ID, ToURL: req.URL})
		} else {
			herr = fmt.Errorf("cluster: move source %s not a member", grp.from)
		}
		if herr != nil {
			n.obs.Log("membership.handoff_failed",
				"from", grp.from, "to", req.ID, "error", herr)
			continue
		}
		executed = append(executed, grp.moves...)
		n.stage("join.handoff", grp.from)
	}
	gained := make(map[resource.Location]bool, len(executed))
	for _, mv := range executed {
		gained[mv.Loc] = true
	}
	pins := make([]resource.Location, 0, len(req.Pins))
	for _, loc := range req.Pins {
		if owner, ok := cur.OwnerOf(loc); gained[loc] || (ok && owner == req.ID) {
			pins = append(pins, loc)
		}
	}
	n.stage("join.committing", req.ID)
	next := announce.Joined(member, executed, pins)
	if !n.applyTable(next) {
		n.clearOwnIntent()
		// A survivor may have declared us dead mid-choreography and
		// repaired the plan; if the current table already publishes the
		// target epoch with the member aboard, the join succeeded —
		// return the repaired table instead of a spurious conflict.
		if repaired := n.reg.Snapshot(); repaired.Epoch >= next.Epoch {
			if _, ok := repaired.Member(req.ID); ok {
				n.obs.Log("membership.join_repaired",
					"member", req.ID, "epoch", repaired.Epoch)
				server.WriteJSON(w, http.StatusOK, repaired.ToWire())
				return
			}
		}
		sp.SetStatus(span.StatusError)
		server.HTTPError(w, http.StatusConflict, errors.New("cluster: membership changed concurrently, retry the join"))
		return
	}
	n.clearOwnIntent()
	n.joins.Add(1)
	sp.Attr("epoch", next.Epoch)
	sp.Attr("moves", len(executed))
	n.obs.Log("membership.join",
		"member", req.ID, "epoch", next.Epoch, "moves", len(executed), "failed_moves", len(moves)-len(executed))
	n.broadcastTable(sctx, next)
	server.WriteJSON(w, http.StatusOK, next.ToWire())
}

// handleLeave is the steward side of /v1/cluster/leave: take the
// steward semaphore (queueing behind an in-flight join with a bounded
// wait) and run the leave choreography.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	req, err := membership.DecodeLeaveRequest(body.Bytes())
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	if err := n.acquireSteward(r.Context()); err != nil {
		server.HTTPError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer n.releaseSteward()
	next, status, err := n.stewardLeave(r.Context(), req)
	if err != nil {
		server.HTTPError(w, status, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, next.ToWire())
}

// stewardLeave runs the leave choreography with this node as steward
// (caller holds the steward semaphore). Graceful: the leaving node
// hands each location to its rendezvous successor (which is its warm
// standby) before the table drops it. Forced: the node is presumed
// dead, so each successor promotes from its gossip-fed shadow instead —
// committed state survives up to the last shadow shipment, and the
// ledger's lease sweep reclaims anything mid-2PC. The plan is journaled
// as an intent before any promotion so a steward crash is repairable.
func (n *Node) stewardLeave(ctx context.Context, req membership.LeaveRequest) (*membership.Table, int, error) {
	cur := n.reg.Snapshot()
	victim, ok := cur.Member(req.ID)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("cluster: %s is not a member", req.ID)
	}
	if len(cur.Members) == 1 {
		return nil, http.StatusBadRequest, errors.New("cluster: refusing to remove the last member")
	}
	sctx, sp := n.spans.Start(ctx, span.KindLeave)
	defer sp.End()
	sp.Attr("member", req.ID)
	sp.Attr("force", req.Force)
	moves := cur.LeaveMoves(req.ID)
	nextEpoch := cur.Epoch + 1
	// Journal the plan before any data moves (leaves announce no roster
	// change, so the intent itself is the announcement).
	n.setOwnIntent(&membership.Intent{
		Steward: n.self.ID, Kind: membership.IntentLeave, Member: victim, Force: req.Force,
		AnnounceEpoch: cur.Epoch, TargetEpoch: nextEpoch,
		Moves: moves, Stage: membership.StageAnnounced,
	})
	n.sendGossip(sctx)
	n.stage("leave.announced", req.ID)
	n.setOwnIntentStage(membership.StageMoving)
	n.stage("leave.moving", req.ID)
	for _, grp := range groupMovesByTo(moves) {
		if grp.to == "" {
			continue // roster would be empty; Validate blocks this anyway
		}
		toM, _ := cur.Member(grp.to)
		if !req.Force {
			var herr error
			if req.ID == n.self.ID {
				herr = n.executeHandoff(sctx, grp.locs, grp.to, toM.URL, nextEpoch)
			} else {
				herr = n.rpcHandoff(sctx, victim, membership.HandoffRequest{
					Epoch: nextEpoch, Locs: grp.locs, To: grp.to, ToURL: toM.URL, Leave: true})
			}
			if herr != nil {
				n.clearOwnIntent()
				sp.SetStatus(span.StatusError)
				sp.Attr("error", herr)
				return nil, http.StatusBadGateway,
					fmt.Errorf("cluster: graceful leave of %s failed (use force if it is dead): %w", req.ID, herr)
			}
			n.stage("leave.handoff", grp.to)
			continue
		}
		var perr error
		if grp.to == n.self.ID {
			perr = n.promoteLocal(sctx, grp.locs, nextEpoch)
		} else {
			perr = n.rpcPromote(sctx, toM, grp.locs)
		}
		if perr != nil {
			// Forced removal proceeds regardless: membership must converge
			// even if a standby cannot promote right now.
			n.obs.Log("membership.promote_failed", "to", grp.to, "error", perr)
		}
		n.stage("leave.handoff", grp.to)
	}
	n.stage("leave.committing", req.ID)
	next := cur.Left(req.ID, moves)
	applied := false
	if req.ID == n.self.ID {
		// Removing ourselves: the self-membership check must not refuse
		// the table we are publishing on purpose, and a graceful
		// departure must not rejoin.
		applied = n.installTable(next)
		n.left.Store(applied && !req.Force)
	} else {
		applied = n.applyTable(next)
	}
	if !applied {
		n.clearOwnIntent()
		// A survivor may have repaired this plan after declaring us dead.
		if repaired := n.reg.Snapshot(); repaired.Epoch >= next.Epoch {
			if _, still := repaired.Member(req.ID); !still {
				n.obs.Log("membership.leave_repaired",
					"member", req.ID, "epoch", repaired.Epoch)
				return repaired, http.StatusOK, nil
			}
		}
		sp.SetStatus(span.StatusError)
		return nil, http.StatusConflict, errors.New("cluster: membership changed concurrently, retry the leave")
	}
	n.clearOwnIntent()
	n.leaves.Add(1)
	sp.Attr("epoch", next.Epoch)
	n.obs.Log("membership.leave",
		"member", req.ID, "force", req.Force, "epoch", next.Epoch, "moves", len(moves))
	n.broadcastTable(sctx, next)
	return next, http.StatusOK, nil
}

// moveGroup is one handoff's worth of moves: same source, same target.
type moveGroup struct {
	from, to string
	locs     []resource.Location
	moves    []membership.Move
}

func groupMovesByFrom(moves []membership.Move) []moveGroup {
	return groupMoves(moves, func(m membership.Move) string { return m.From })
}

func groupMovesByTo(moves []membership.Move) []moveGroup {
	return groupMoves(moves, func(m membership.Move) string { return m.To })
}

func groupMoves(moves []membership.Move, keyOf func(membership.Move) string) []moveGroup {
	byKey := make(map[string]*moveGroup)
	var keys []string
	for _, mv := range moves {
		k := keyOf(mv)
		g, ok := byKey[k]
		if !ok {
			g = &moveGroup{from: mv.From, to: mv.To}
			byKey[k] = g
			keys = append(keys, k)
		}
		g.locs = append(g.locs, mv.Loc)
		g.moves = append(g.moves, mv)
	}
	sort.Strings(keys)
	out := make([]moveGroup, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

func (n *Node) rpcHandoff(ctx context.Context, from membership.Member, req membership.HandoffRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ps := n.peerFor(ownerRef{id: from.ID, url: from.URL})
	if err := n.client.call(ctx, http.MethodPost, from.URL+"/v1/cluster/handoff", body, nil, nil, ps.rpc); err != nil {
		return fmt.Errorf("cluster: handoff on %s: %w", from.ID, err)
	}
	return nil
}

func (n *Node) rpcPromote(ctx context.Context, to membership.Member, locs []resource.Location) error {
	body, err := json.Marshal(promoteRequest{Locs: locs})
	if err != nil {
		return err
	}
	ps := n.peerFor(ownerRef{id: to.ID, url: to.URL})
	if err := n.client.call(ctx, http.MethodPost, to.URL+"/v1/cluster/promote", body, nil, nil, ps.rpc); err != nil {
		return fmt.Errorf("cluster: promote on %s: %w", to.ID, err)
	}
	return nil
}

// handleHandoff executes a steward-ordered handoff with this node as
// the source.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	req, err := membership.DecodeHandoffRequest(body.Bytes())
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	if req.To == n.self.ID {
		server.HTTPError(w, http.StatusBadRequest, errors.New("cluster: handoff to self"))
		return
	}
	if err := n.executeHandoff(r.Context(), req.Locs, req.To, req.ToURL, req.Epoch); err != nil {
		server.HTTPError(w, http.StatusBadGateway, err)
		return
	}
	if req.Leave {
		n.left.Store(true)
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"handed_off": len(req.Locs), "to": req.To})
}

// handleInstall is the receiving half of a handoff: adopt the exported
// locations (ownership first, so concurrent traffic is accepted), then
// install their ledger state. On import failure the adoption is rolled
// back — the source has not dropped anything yet.
func (n *Node) handleInstall(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	var req installRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		server.HTTPError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad install body: %w", err))
		return
	}
	locs := make([]resource.Location, 0, len(req.Exports))
	for _, exp := range req.Exports {
		locs = append(locs, exp.Loc)
	}
	n.srv.Ledger().AddOwned(locs)
	if err := n.srv.Ledger().ImportLocations(req.Exports); err != nil {
		n.srv.Ledger().DropLocations(locs)
		server.HTTPError(w, http.StatusConflict, err)
		return
	}
	epoch := req.Epoch
	if epoch == 0 {
		epoch = n.reg.Epoch() + 1 // older senders: assume the next epoch
	}
	n.place(locs, ownerRef{id: n.self.ID, url: n.self.URL, epoch: epoch}, false)
	n.obs.Log("membership.install", "node", n.self.ID, "locations", len(locs))
	server.WriteJSON(w, http.StatusOK, map[string]any{"installed": len(locs)})
}

// handlePromote promotes this node from standby to primary for the
// given locations (steward-ordered, force-leave path).
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	var req promoteRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil || len(req.Locs) == 0 {
		server.HTTPError(w, http.StatusBadRequest, errors.New("cluster: promote needs locs"))
		return
	}
	if err := n.promoteLocal(r.Context(), req.Locs, n.reg.Epoch()+1); err != nil {
		server.HTTPError(w, http.StatusConflict, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"promoted": len(req.Locs)})
}

// handleShadow stores a primary's shipped exports as this node's warm
// standby state for those locations.
func (n *Node) handleShadow(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	var req installRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		server.HTTPError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad shadow body: %w", err))
		return
	}
	n.smu.Lock()
	for _, exp := range req.Exports {
		n.shadows[exp.Loc] = exp
	}
	n.smu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]any{"shadowed": len(req.Exports)})
}

// handleTableGet serves the current table (anti-entropy pulls, joiners).
func (n *Node) handleTableGet(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, n.reg.Snapshot().ToWire())
}

// handleTablePost applies a broadcast table if it is newer.
func (n *Node) handleTablePost(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	defer body.Release()
	t, err := membership.DecodeTable(body.Bytes())
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	applied := n.applyTable(t)
	server.WriteJSON(w, http.StatusOK, map[string]any{"applied": applied, "epoch": n.reg.Epoch()})
}

// shipShadows sends each owned location's export to its rendezvous
// standby whenever the ledger changed since the last shipment — the
// gossip-ticked feed that keeps standbys warm.
func (n *Node) shipShadows(ctx context.Context, tbl *membership.Table) {
	ep := n.srv.Ledger().Epoch()
	if ep == n.lastShipped {
		return
	}
	byStandby := make(map[string][]resource.Location)
	for _, loc := range tbl.Locations(n.self.ID) {
		if sb := tbl.StandbyOf(loc); sb != "" && sb != n.self.ID {
			byStandby[sb] = append(byStandby[sb], loc)
		}
	}
	ids := make([]string, 0, len(byStandby))
	for id := range byStandby {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m, ok := tbl.Member(id)
		if !ok {
			continue
		}
		exports := n.srv.Ledger().ExportLocations(byStandby[id])
		body, err := json.Marshal(installRequest{Exports: exports})
		if err != nil {
			continue
		}
		ps := n.peerFor(ownerRef{id: m.ID, url: m.URL})
		if err := n.client.call(ctx, http.MethodPost, m.URL+"/v1/cluster/shadow", body, nil, nil, ps.rpc); err == nil {
			n.shadowShips.Add(1)
		}
	}
	n.lastShipped = ep
}

// releaseTargets is the peer set a cluster-wide release fans out to:
// the live member list plus any overlay owner — a node that just
// received locations may hold commitments before the table naming it
// reaches this node.
func (n *Node) releaseTargets() []*peerState {
	out := n.peersSnapshot()
	seen := make(map[string]bool, len(out)+1)
	seen[n.self.ID] = true
	for _, ps := range out {
		seen[ps.ID] = true
	}
	n.omu.Lock()
	var extra []ownerRef
	for _, ref := range n.overlay {
		if !seen[ref.id] {
			seen[ref.id] = true
			extra = append(extra, ref)
		}
	}
	n.omu.Unlock()
	for _, ref := range extra {
		out = append(out, n.peerFor(ref))
	}
	return out
}

// handlePrepareIntercept fronts the embedded server's /v1/cluster/
// prepare: requests touching handed-off locations get a 421 redirect to
// the new owner; the rest run under the handoff freeze so an export/
// drop pair never interleaves with a reservation.
func (n *Node) handlePrepareIntercept(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	req, demand, err := server.DecodePrepareRequest(body.Bytes())
	body.Release()
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	n.flowMu.RLock()
	defer n.flowMu.RUnlock()
	if red, ok := n.redirectFor(demand.Locations()); ok {
		n.serveRedirect(w, red)
		return
	}
	n.srv.ServePrepare(r.Context(), w, req, demand)
}

// handleFreeIntercept fronts GET /v1/cluster/free the same way.
func (n *Node) handleFreeIntercept(w http.ResponseWriter, r *http.Request) {
	locs, err := server.FreeLocations(r)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	n.flowMu.RLock()
	defer n.flowMu.RUnlock()
	if red, ok := n.redirectFor(locs); ok {
		n.serveRedirect(w, red)
		return
	}
	n.srv.ServeFree(r.Context(), w, locs)
}

// handleFinishIntercept fronts /v1/cluster/commit and /v1/cluster/abort,
// verb naming which: a key whose hold moved mid-2PC is finished here
// (the slice that stayed, if any) and forwarded to the new owner, so the
// coordinator's commit or abort lands everywhere the hold now lives.
func (n *Node) handleFinishIntercept(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := server.ReadBody(w, r)
		if err != nil {
			server.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		req, err := server.DecodeFinishRequest(body.Bytes())
		body.Release()
		if err != nil {
			server.HTTPError(w, http.StatusBadRequest, err)
			return
		}
		// The moved-check must run under the handoff freeze: a handoff
		// between reading movedKeys and taking the flow lock would export
		// the hold and leave a stale moved=false, and the commit would then
		// 404 against the already-dropped hold.
		n.flowMu.RLock()
		n.omu.Lock()
		_, moved := n.movedKeys[req.Key]
		n.omu.Unlock()
		if !moved {
			// The common path: the embedded server's finish, under the
			// handoff freeze.
			defer n.flowMu.RUnlock()
			n.srv.ServeFinish(r.Context(), w, verb, req.Key)
			return
		}
		n.flowMu.RUnlock()
		if err := n.finishMoved(r.Context(), req.Key, verb); err != nil {
			switch {
			case errors.Is(err, server.ErrUnknownHold):
				server.HTTPError(w, http.StatusNotFound, err)
			case errors.Is(err, server.ErrLeaseExpired):
				server.HTTPError(w, http.StatusGone, err)
			default:
				server.HTTPError(w, http.StatusBadGateway, err)
			}
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"key": req.Key, "outcome": verb})
	}
}

// finishMoved applies a commit/abort locally and, when the key's
// reservation was moved by a handoff, forwards it to the new owner as
// well — the slice that stayed behind and the slice that moved resolve
// together.
// The moved-key entry survives a forwarding failure so the
// coordinator's retry is forwarded again.
func (n *Node) finishMoved(ctx context.Context, key, verb string) error {
	// Read movedKeys only after taking the flow lock: executeHandoff
	// records moves while holding it exclusively, so a read under RLock
	// can never miss a handoff that already dropped the hold.
	n.flowMu.RLock()
	n.omu.Lock()
	ref, moved := n.movedKeys[key]
	n.omu.Unlock()
	var err error
	if verb == "commit" {
		err = n.srv.Ledger().Commit(key)
		if moved && errors.Is(err, server.ErrUnknownHold) {
			err = nil // the whole hold moved; nothing stayed behind
		}
	} else {
		err = n.srv.Ledger().Abort(key)
	}
	n.flowMu.RUnlock()
	if err != nil || !moved {
		return err
	}
	body, err := json.Marshal(server.FinishRequest{Key: key})
	if err != nil {
		return err
	}
	headers := map[string]string{headerIdempotency: key}
	if err := n.client.call(ctx, http.MethodPost, ref.url+"/v1/cluster/"+verb, body, nil, headers, n.peerFor(ref).rpc); err != nil {
		return fmt.Errorf("cluster: forwarding %s of moved key %s to %s: %w", verb, key, ref.id, err)
	}
	// The entry stays: commit/abort are idempotent on the new owner, and
	// keeping it means a coordinator retry (even one whose first success
	// response was lost) is forwarded again instead of 404ing here. The
	// map is bounded by the two-phase reservations that were live on a
	// location when it was handed off.
	return nil
}
