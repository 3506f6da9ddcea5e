package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"

	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
)

// Cluster temporal queries. The embedded server parses, evaluates,
// serves and watches every query (/v1/query and /v1/watch reach it
// through the mux's "/" fallback); the cluster supplies only the
// snapshot: the owners' merged free views, the exact views a coordinated
// admission plans against, so a federation answers as one ledger over
// the union Θ.

// querySnapshot is the cluster's query-snapshot hook. It resolves the
// query's names on every member, groups the footprint by owner under the
// live ownership table and reads the owners' views through freeViews,
// retrying when ownership moves underneath it. Because owners are
// resolved per evaluation, a standing watch keeps answering correctly
// when its locations change hands. Locations no node owns contribute no
// free resources, so atoms over them are false, as on an empty shard.
// The snapshot is scoped exactly when the query names nothing and every
// location is this node's own: only then do this ledger's writes say
// everything that can change the verdict.
func (n *Node) querySnapshot(ctx context.Context, c *query.Compiled) (query.Snapshot, error) {
	if ctx.Done() == nil {
		// A standing watch, evaluated on the manager's one sweep
		// goroutine with no request to cancel it: one RPC timeout bounds
		// its whole fan-out, as a request's context bounds a one-shot's.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.client.timeout)
		defer cancel()
	}
	snap := query.Snapshot{Epoch: n.srv.Ledger().Epoch()}
	for _, name := range c.Names() {
		cm, ok, err := n.resolveCommitment(ctx, name)
		if err != nil {
			return query.Snapshot{}, server.Unavailable(err)
		}
		if ok {
			snap.Commitments = append(snap.Commitments, cm)
		}
	}
	snap.Footprint = c.Footprint(snap.Commitments)
	for attempt := 0; ; attempt++ {
		// Resolve owners per attempt: a 421 consumed below refreshes the
		// routing overlay, so the retry routes to the new owner.
		snap.Scoped = len(c.Names()) == 0
		byOwner := make(map[*peerState][]resource.Location)
		for _, loc := range snap.Footprint {
			ref, ok := n.lookupOwner(loc)
			if !ok || ref.id != n.self.ID {
				snap.Scoped = false
			}
			if ok {
				ps := n.peerFor(ref)
				byOwner[ps] = append(byOwner[ps], loc)
			}
		}
		var err error
		snap.Free, snap.Now, err = n.freeViews(ctx, participants(byOwner))
		switch {
		case err == nil:
			if len(byOwner) == 0 {
				snap.Now = n.srv.Ledger().Now()
			}
			if !snap.Scoped {
				n.fanouts.Add(1)
			}
			return snap, nil
		case !errors.Is(err, errStaleOwner) || attempt >= maxOwnerRetries:
			return query.Snapshot{}, server.Unavailable(err)
		}
	}
}

// resolveCommitment finds a named commitment on every member: this
// node's ledger and each peer's commitment lookup. A coordinated job
// leaves a share on each of its owners, and located types are disjoint,
// so the job is the union of its shares — their remaining demand and
// locations, the earliest admission, the latest finish and deadline —
// which is what one ledger over the union Θ holds. A name committed
// nowhere resolves to nothing (feasible/Allen atoms over it are false),
// matching single-node semantics.
func (n *Node) resolveCommitment(ctx context.Context, name string) (query.Commitment, bool, error) {
	var shares []query.Commitment
	for _, ps := range n.peersSnapshot() {
		if ps.isSelf {
			if cm, ok := n.srv.Ledger().QueryCommitment(name); ok {
				shares = append(shares, cm)
			}
			continue
		}
		var info server.CommitmentInfo
		target := ps.URL + "/v1/query?name=" + url.QueryEscape(name)
		if err := n.client.call(ctx, http.MethodGet, target, nil, &info, nil, ps.rpc); err != nil {
			var se *httpStatusError
			if errors.As(err, &se) && se.status == http.StatusNotFound {
				continue
			}
			return query.Commitment{}, false, fmt.Errorf("cluster: resolving %s on %s: %w", name, ps.ID, err)
		}
		demand, err := resource.ParseSet(info.Demand)
		if err != nil {
			return query.Commitment{}, false, fmt.Errorf("cluster: commitment %s demand unparsable: %w", name, err)
		}
		shares = append(shares, info.QueryCommitment(demand))
	}
	if len(shares) == 0 {
		return query.Commitment{}, false, nil
	}
	cm := shares[0]
	for _, sh := range shares[1:] {
		cm.Admitted = min(cm.Admitted, sh.Admitted)
		cm.Finish = max(cm.Finish, sh.Finish)
		cm.Deadline = max(cm.Deadline, sh.Deadline)
		cm.Locations = append(cm.Locations, sh.Locations...)
		cm.Demand = cm.Demand.Union(sh.Demand)
	}
	slices.Sort(cm.Locations)
	cm.Locations = slices.Compact(cm.Locations)
	return cm, true, nil
}
