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
//     partial commit back): the key travels with each slice, and the
//     coordinator sends each finish with the locations it prepared on.
//     An owner finishes its own record and answers 421 for the
//     locations it no longer holds; the coordinator follows. No node
//     remembers which keys it handed off.
//
//   - Each owned location has a warm standby — the rendezvous runner-up,
//     which is exactly the node LeaveMoves would hand the location to —
//     fed by gossip-shipped ledger exports (shadows). A dead primary is
//     force-left: standbys promote from their shadows without the
//     primary's cooperation.

// ownerRef is one overlay routing entry: where a location now lives,
// and the table epoch the move belongs to.
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
	red, ok := redirected(err)
	if ok {
		n.learnRedirect(red)
	}
	return ok
}

// redirected reads an ownership redirect out of a peer-RPC failure.
func redirected(err error) (membership.RedirectResponse, bool) {
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusMisdirectedRequest {
		return membership.RedirectResponse{}, false
	}
	red, derr := membership.DecodeRedirect([]byte(se.body))
	return red, derr == nil
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

// broadcastTable pushes a freshly applied table to every other member,
// all at once (callEach); best effort, gossip anti-entropy repairs any
// miss.
func (n *Node) broadcastTable(ctx context.Context, t *membership.Table) {
	if body, err := json.Marshal(t.ToWire()); err == nil {
		n.callEach(ctx, "", func(ctx context.Context, ps *peerState) {
			_ = n.client.call(ctx, http.MethodPost, ps.URL+"/v1/cluster/table", body, nil, nil, ps.rpc)
		})
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
// shadows (the force-leave path, when the primary cannot hand off), as
// of the intent's target epoch.
type promoteRequest struct {
	Epoch uint64              `json:"epoch"`
	Locs  []resource.Location `json:"locs"`
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
	n.srv.Ledger().DropLocations(locs)
	n.place(locs, ownerRef{id: toID, url: toURL, epoch: epoch}, false)
	n.handoffs.Add(1)
	n.obs.Log("membership.handoff",
		"node", n.self.ID, "to", toID, "locations", len(locs), "epoch", epoch)
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

// handleJoin is the steward side of /v1/cluster/join: plan the join
// (announce the member, then move what the grown roster assigns it)
// and run it, handing the final table back to the joiner.
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
	member := membership.Member{ID: req.ID, URL: req.URL}
	pins := make([]string, len(req.Pins))
	for i, loc := range req.Pins {
		pins[i] = string(loc)
	}
	next, status, err := n.runIntent(r.Context(), &membership.Intent{
		Steward: n.self.ID, Kind: membership.IntentJoin, Member: member,
		AnnounceEpoch: cur.Epoch + 1, TargetEpoch: cur.Epoch + 2,
		Moves: cur.JoinMoves(member, req.Pins), Pins: pins,
	})
	if err != nil {
		server.HTTPError(w, status, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, next.ToWire())
}

// handleLeave is the steward side of /v1/cluster/leave: take the
// steward semaphore (queueing behind an in-flight join with a bounded
// wait) and run the leave.
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

// stewardLeave plans the departure of req.ID with this node as steward
// and runs it (caller holds the steward semaphore). Each of the
// member's locations goes to its rendezvous successor, which is its
// warm standby: handed off on a graceful leave, promoted from the
// gossip-fed shadow on a forced one.
func (n *Node) stewardLeave(ctx context.Context, req membership.LeaveRequest) (*membership.Table, int, error) {
	cur := n.reg.Snapshot()
	victim, ok := cur.Member(req.ID)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("cluster: %s is not a member", req.ID)
	}
	if len(cur.Members) == 1 {
		return nil, http.StatusBadRequest, errors.New("cluster: refusing to remove the last member")
	}
	return n.runIntent(ctx, &membership.Intent{
		Steward: n.self.ID, Kind: membership.IntentLeave, Member: victim, Force: req.Force,
		AnnounceEpoch: cur.Epoch, TargetEpoch: cur.Epoch + 1, Moves: cur.LeaveMoves(req.ID),
	})
}

// runIntent takes one membership change, journaled as it, to its final
// table. Its steward runs it, and so does a survivor repairing the plan
// of a steward it holds dead; the two differ only in how a move group
// lands (landGroup). The steps:
//
//   - a join's roster announcement is applied first, one epoch before
//     any data moves: release, coordination and query fan-outs target
//     the roster, so a commitment that lands on the joiner mid-handoff
//     is reachable only from nodes whose roster already lists it. A
//     leave announces nothing; the intent itself is the announcement;
//   - the steward journals the plan and gossips it before any data
//     moves, so from then on its crash is repairable by anyone who
//     heard it;
//   - each (from, to) move group lands, in pair order;
//   - the final table records exactly the moves that landed. It is
//     applied, or a table someone else already published at the target
//     epoch with the same outcome is accepted (a survivor repaired this
//     steward's plan, or a steward outran its repairer); then it is
//     broadcast and the journal entry closed.
//
// The forward-only epoch makes a rerun harmless. The caller holds the
// steward semaphore.
func (n *Node) runIntent(ctx context.Context, it *membership.Intent) (*membership.Table, int, error) {
	cur := n.reg.Snapshot()
	if cur.Epoch >= it.TargetEpoch {
		n.clearIntentFor(it.Steward) // finished by its steward or an earlier repair
		return cur, http.StatusOK, nil
	}
	steward, join := it.Steward == n.self.ID, it.Kind == membership.IntentJoin
	kind := span.KindLeave
	if !steward {
		kind = span.KindRepair
	} else if join {
		kind = span.KindJoin
	}
	sctx, sp := n.spans.Start(ctx, kind)
	defer sp.End()
	sp.Attr("steward", it.Steward)
	sp.Attr("kind", it.Kind)
	sp.Attr("member", it.Member.ID)
	sp.Attr("force", it.Force)
	fail := func(status int, err error) (*membership.Table, int, error) {
		if steward {
			n.clearIntentFor(n.self.ID)
		}
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		return nil, status, err
	}
	var announce *membership.Table
	if join && cur.Epoch+1 == it.AnnounceEpoch {
		if announce = cur.Joined(it.Member, nil, nil); n.applyTable(announce) {
			cur = announce
		} else {
			announce, cur = nil, n.reg.Snapshot()
		}
	}
	if _, ok := cur.Member(it.Member.ID); !ok || cur.Epoch != it.AnnounceEpoch {
		return fail(http.StatusConflict, fmt.Errorf("cluster: membership changed concurrently (epoch %d, %s of %s planned at %d), retry",
			cur.Epoch, it.Kind, it.Member.ID, it.AnnounceEpoch))
	}
	if steward {
		n.setOwnIntent(it)
	}
	if announce != nil {
		n.broadcastTable(sctx, announce)
	}
	if steward {
		// Off-tick gossip carrying the plan, waited for, so it reaches
		// the survivors before any data moves. A forced leave's victim
		// is presumed dead: waiting on it would only delay the
		// promotions.
		skip := ""
		if it.Force {
			skip = it.Member.ID
		}
		if body, err := json.Marshal(n.buildGossip()); err == nil {
			n.callEach(sctx, skip, func(ctx context.Context, ps *peerState) { n.gossipTo(ctx, ps, body) })
		}
	}
	n.stage(it.Kind+".announced", it.Member.ID)
	n.stage(it.Kind+".moving", it.Member.ID)
	var landed []membership.Move
	for _, g := range groupMoves(it.Moves) {
		moves, err := n.landGroup(sctx, cur, it, g)
		if err != nil {
			if steward && !join && !it.Force {
				return fail(http.StatusBadGateway, fmt.Errorf("cluster: graceful leave of %s failed (use force if it is dead): %w", it.Member.ID, err))
			}
			n.obs.Log("membership.move_failed",
				"node", n.self.ID, "kind", it.Kind, "from", g[0].From, "to", g[0].To, "error", err)
		}
		landed = append(landed, moves...)
		if join {
			n.stage("join.handoff", g[0].From)
		} else {
			n.stage("leave.handoff", g[0].To)
		}
	}
	var next *membership.Table
	if join {
		gained := make(map[resource.Location]bool, len(landed))
		for _, mv := range landed {
			gained[mv.Loc] = true
		}
		var pins []resource.Location
		for _, p := range it.Pins {
			loc := resource.Location(p)
			if owner, ok := cur.OwnerOf(loc); gained[loc] || (ok && owner == it.Member.ID) {
				pins = append(pins, loc)
			}
		}
		next = cur.Joined(it.Member, landed, pins)
	} else {
		next = cur.Left(it.Member.ID, landed)
	}
	n.stage(it.Kind+".committing", it.Member.ID)
	applied := false
	if it.Member.ID == n.self.ID && !join {
		// Removing ourselves: the self-membership check must not refuse
		// the table we are publishing on purpose, and a graceful
		// departure must not rejoin.
		applied = n.installTable(next)
		n.left.Store(applied && !it.Force)
	} else {
		applied = n.applyTable(next)
	}
	if !applied {
		published := n.reg.Snapshot()
		if _, member := published.Member(it.Member.ID); published.Epoch < it.TargetEpoch || member != join {
			return fail(http.StatusConflict, fmt.Errorf("cluster: membership changed concurrently, retry the %s", it.Kind))
		}
		next = published
	}
	n.clearIntentFor(it.Steward)
	n.broadcastTable(sctx, next)
	switch {
	case !steward:
		n.intentRepairs.Add(1)
	case join:
		n.joins.Add(1)
	default:
		n.leaves.Add(1)
	}
	sp.Attr("epoch", next.Epoch)
	sp.Attr("moves", len(landed))
	n.obs.Log("membership."+it.Kind,
		"node", n.self.ID, "steward", it.Steward, "member", it.Member.ID, "force", it.Force,
		"epoch", next.Epoch, "published_here", applied, "moves", len(landed), "planned", len(it.Moves))
	return next, http.StatusOK, nil
}

// landGroup lands one (from, to) group of the intent's moves and
// returns the moves that now stand. A steward hands the group off, or
// for a forced leave promotes the target from its shadows. A repairer
// cannot ask the dead steward how far it got, so it probes the target
// first: a join keeps exactly what arrived (the old owners still hold
// the rest), and a leave promotes what is missing — a graceful one is
// force-completed, its targets being the victim's standbys either way.
func (n *Node) landGroup(ctx context.Context, tbl *membership.Table, it *membership.Intent, g []membership.Move) ([]membership.Move, error) {
	from, _ := tbl.Member(g[0].From)
	to, _ := tbl.Member(g[0].To)
	locs := make([]resource.Location, len(g))
	for i, mv := range g {
		locs[i] = mv.Loc
	}
	switch {
	case it.Steward == n.self.ID && it.Force:
		return g, n.promote(ctx, to, locs, it.TargetEpoch)
	case it.Steward == n.self.ID:
		var err error
		if from.ID == n.self.ID {
			err = n.executeHandoff(ctx, locs, to.ID, to.URL, it.TargetEpoch)
		} else {
			err = n.rpcHandoff(ctx, from, membership.HandoffRequest{
				Epoch: it.TargetEpoch, Locs: locs, To: to.ID, ToURL: to.URL, Leave: it.Kind == membership.IntentLeave})
		}
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	arrived, err := n.rpcOwned(ctx, to, locs)
	var kept []membership.Move
	var missing []resource.Location
	for _, mv := range g {
		if arrived[mv.Loc] {
			kept = append(kept, mv)
		} else {
			missing = append(missing, mv.Loc)
		}
	}
	if it.Kind == membership.IntentJoin {
		return kept, err
	}
	if len(missing) == 0 {
		return g, nil
	}
	return g, n.promote(ctx, to, missing, it.TargetEpoch)
}

// groupMoves splits a plan into its (from, to) groups in pair order: a
// join's moves share their target, so its groups run by source, and a
// leave's share their source, so its groups run by target.
func groupMoves(moves []membership.Move) [][]membership.Move {
	sorted := append([]membership.Move(nil), moves...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		return a.From < b.From || (a.From == b.From && a.To < b.To)
	})
	var groups [][]membership.Move
	for i, mv := range sorted {
		if i == 0 || mv.From != sorted[i-1].From || mv.To != sorted[i-1].To {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], mv)
	}
	return groups
}

// promote has the standby take locs over from its shadows: here when
// this node is the standby, over RPC otherwise.
func (n *Node) promote(ctx context.Context, to membership.Member, locs []resource.Location, epoch uint64) error {
	if to.ID == n.self.ID {
		return n.promoteLocal(ctx, locs, epoch)
	}
	return n.rpcPromote(ctx, to, locs, epoch)
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

func (n *Node) rpcPromote(ctx context.Context, to membership.Member, locs []resource.Location, epoch uint64) error {
	body, err := json.Marshal(promoteRequest{Epoch: epoch, Locs: locs})
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
	if req.Epoch == 0 {
		server.HTTPError(w, http.StatusBadRequest, errors.New("cluster: install needs an epoch"))
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
	n.place(locs, ownerRef{id: n.self.ID, url: n.self.URL, epoch: req.Epoch}, false)
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
	if err := json.Unmarshal(body.Bytes(), &req); err != nil || len(req.Locs) == 0 || req.Epoch == 0 {
		server.HTTPError(w, http.StatusBadRequest, errors.New("cluster: promote needs locs and an epoch"))
		return
	}
	if err := n.promoteLocal(r.Context(), req.Locs, req.Epoch); err != nil {
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
// standby whenever the ledger moved past what that standby last
// received — the gossip-ticked feed that keeps standbys warm. A standby
// counts as fed only once a shipment to it succeeds, so one lost to a
// partition is sent again on the next tick. Each shipment runs on its
// own goroutine under its own deadline (spawnOnce), so a standby that
// never answers delays no other standby and no other gossip.
func (n *Node) shipShadows(tbl *membership.Table) {
	ep := n.srv.Ledger().Epoch()
	byStandby := make(map[string][]resource.Location)
	for _, loc := range tbl.Locations(n.self.ID) {
		if sb := tbl.StandbyOf(loc); sb != "" && sb != n.self.ID {
			byStandby[sb] = append(byStandby[sb], loc)
		}
	}
	for id, locs := range byStandby {
		m, _ := tbl.Member(id)
		ps := n.peerFor(ownerRef{id: m.ID, url: m.URL})
		if ps.shadowEpoch.Load() == ep {
			continue
		}
		n.spawnOnce(&ps.shipping, func(ctx context.Context) {
			body, err := json.Marshal(installRequest{Exports: n.srv.Ledger().ExportLocations(locs)})
			if err == nil && n.client.call(ctx, http.MethodPost, m.URL+"/v1/cluster/shadow", body, nil, nil, ps.rpc) == nil {
				ps.shadowEpoch.Store(ep)
				n.shadowShips.Add(1)
			}
		})
	}
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
// verb naming which, the same way: the finish runs under the handoff
// freeze, and when some of its locations moved, the 421 naming their
// owner answers it once this node's own record is finished.
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
		n.flowMu.RLock()
		defer n.flowMu.RUnlock()
		if red, ok := n.redirectFor(req.Locs); ok {
			n.srv.ServeFinish(r.Context(), w, verb, req, func(w http.ResponseWriter) { n.serveRedirect(w, red) })
			return
		}
		n.srv.ServeFinish(r.Context(), w, verb, req, nil)
	}
}
