package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/server"
)

// Cluster-aware temporal queries. A query whose footprint lives entirely
// on this node delegates to the embedded server; one spanning locations
// owned by other nodes is answered against the merged free views of the
// owners — the same views a coordinated admission plans against, so a
// fan-out verdict always equals a single merged-ledger evaluation.
// Standing queries (/v1/watch) stay node-local by design: each node
// watches its own ledger epochs, and the mux's "/" fallback already
// routes them to the embedded server.

// handleQuery is the cluster-aware GET /v1/query: commitment lookups
// (?name=) and all-local queries delegate to the embedded server;
// anything touching remote owners fans out.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	if name := params.Get("name"); name != "" {
		n.srv.ServeCommitment(w, name)
		return
	}
	q := params.Get("q")
	if q == "" {
		server.HTTPError(w, http.StatusBadRequest, errors.New("cluster: query needs ?name= or ?q="))
		return
	}
	c, err := query.ParseText(q)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	n.serveQuery(w, r, c)
}

// handleQueryPost is the cluster-aware POST /v1/query.
func (n *Node) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r, n.maxBody)
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	c, err := server.DecodeQueryRequest(body.Bytes())
	body.Release()
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	n.serveQuery(w, r, c)
}

// serveQuery routes a compiled query: local footprints take the embedded
// server's path (and its span, log line and metrics), spanning ones are
// merged here.
func (n *Node) serveQuery(w http.ResponseWriter, r *http.Request, c *query.Compiled) {
	if len(c.Names()) == 0 && n.allSelf(c.Footprint(nil)) {
		n.srv.ServeQuery(r.Context(), w, c)
		return
	}
	_, sp := n.spans.Start(r.Context(), span.KindQuery)
	defer sp.End()
	sp.Str("query", c.Source())
	resp, err := n.fanoutQuery(r.Context(), c)
	if err != nil {
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		server.HTTPError(w, http.StatusServiceUnavailable, err)
		return
	}
	sp.Attr("holds", resp.Holds)
	sp.Int("epoch", int64(resp.Epoch))
	n.obs.Log("query.fanout",
		"trace", obs.Trace(r.Context()), "query", resp.Query,
		"holds", resp.Holds, "elapsed_us", resp.ElapsedUS)
	server.WriteJSON(w, http.StatusOK, resp)
}

// allSelf reports whether every location is owned by this node under
// the live ownership table (including its handoff overlays).
func (n *Node) allSelf(locs []resource.Location) bool {
	for _, loc := range locs {
		if ref, ok := n.lookupOwner(loc); !ok || ref.id != n.self.ID {
			return false
		}
	}
	return true
}

// clusterEval is the standing-watch evaluator in cluster mode: a watch
// whose footprint stays on this node evaluates against the local ledger
// exactly as before; one touching remote owners evaluates through the
// same fan-out path as a one-shot query. Because ownership is resolved
// per evaluation, a watch keeps answering correctly when its footprint
// locations change owners mid-subscription.
func (n *Node) clusterEval(c *query.Compiled) (query.Verdict, error) {
	if len(c.Names()) == 0 && n.allSelf(c.Footprint(nil)) {
		return n.srv.LocalEval(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.client.timeout)
	defer cancel()
	resp, err := n.fanoutQuery(ctx, c)
	if err != nil {
		return query.Verdict{}, err
	}
	return query.Verdict{Holds: resp.Holds, Epoch: resp.Epoch, Now: resp.Now}, nil
}

// resolveCommitment finds a named commitment anywhere in the cluster:
// locally first, then on each peer via its commitment-lookup endpoint. A
// name committed nowhere resolves to nothing (feasible/Allen atoms over
// it are false), matching single-node semantics.
func (n *Node) resolveCommitment(ctx context.Context, name string) (query.Commitment, bool, error) {
	if cm, ok := n.srv.Ledger().QueryCommitment(name); ok {
		return cm, true, nil
	}
	for _, ps := range n.peersSnapshot() {
		if ps.isSelf {
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
		return info.QueryCommitment(demand), true, nil
	}
	return query.Commitment{}, false, nil
}

// fanoutQuery evaluates a query against the merged free views of every
// owner in its footprint — the exact views a coordinated admission plans
// against. Locations no node owns contribute no free resources, so atoms
// over them are false rather than errors, matching an empty shard.
func (n *Node) fanoutQuery(ctx context.Context, c *query.Compiled) (server.QueryResponse, error) {
	start := time.Now()
	n.fanouts.Add(1)
	comms := make(map[string]query.Commitment)
	for _, name := range c.Names() {
		cm, ok, err := n.resolveCommitment(ctx, name)
		if err != nil {
			return server.QueryResponse{}, err
		}
		if ok {
			comms[name] = cm
		}
	}
	footprint := c.Footprint(comms)
	var free resource.Set
	var now interval.Time
	for attempt := 0; ; attempt++ {
		// Resolve owners per attempt: a 421 consumed below refreshes the
		// learned overlay, so the retry routes to the new owner.
		byOwner := make(map[*peerState][]resource.Location)
		for _, loc := range footprint {
			if ref, ok := n.lookupOwner(loc); ok {
				ps := n.peerFor(ref)
				byOwner[ps] = append(byOwner[ps], loc)
			}
		}
		var err error
		free, now, err = n.freeViews(ctx, participants(byOwner))
		if err == nil {
			if len(byOwner) == 0 {
				now = n.srv.Ledger().Now()
			}
			break
		}
		if !errors.Is(err, errStaleOwner) {
			return server.QueryResponse{}, err
		}
		if attempt >= maxOwnerRetries {
			return server.QueryResponse{}, errStaleOwner
		}
	}
	snap := query.Snapshot{
		Now:         now,
		Epoch:       n.srv.Ledger().Epoch(),
		Free:        free,
		Commitments: comms,
	}
	res, err := c.Evaluate(snap)
	if err != nil {
		return server.QueryResponse{}, err
	}
	return server.QueryResponse{
		Query:     c.Source(),
		Holds:     res.Holds,
		Formula:   res.Formula.String(),
		Now:       snap.Now,
		Epoch:     snap.Epoch,
		ElapsedUS: time.Since(start).Microseconds(),
	}, nil
}
