package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/query"
	"repro/internal/resource"
)

// The rotaquery surface: one-shot temporal queries (GET/POST /v1/query)
// and continuous feasibility subscriptions (/v1/watch) whose verdicts
// are re-evaluated on every ledger epoch change and streamed as
// verdict-flip events over SSE, or POSTed to a webhook.

// QueryRequest is the POST /v1/query body: exactly one of the compact
// text form or the JSON AST.
type QueryRequest struct {
	Query string          `json:"query,omitempty"`
	AST   json.RawMessage `json:"ast,omitempty"`
}

// QueryResponse is a one-shot query verdict.
type QueryResponse struct {
	// Query is the canonical text rendering of what was evaluated.
	Query string `json:"query"`
	Holds bool   `json:"holds"`
	// Formula is the core formula the query compiled to, paper notation.
	Formula string `json:"formula"`
	// Now and Epoch identify the ledger state the verdict was taken
	// against.
	Now       interval.Time `json:"now"`
	Epoch     uint64        `json:"epoch"`
	ElapsedUS int64         `json:"elapsed_us"`
}

// DecodeQueryRequest decodes and compiles one query body. Exported so
// the fuzz harness exercises exactly the wire path.
func DecodeQueryRequest(body []byte) (*query.Compiled, error) {
	var req QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("server: bad query body: %w", err)
	}
	switch {
	case req.Query != "" && req.AST != nil:
		return nil, errors.New("server: query body needs query or ast, not both")
	case req.Query != "":
		return query.ParseText(req.Query)
	case req.AST != nil:
		return query.ParseJSON(req.AST)
	default:
		return nil, errors.New("server: query body needs query or ast")
	}
}

// evalQuery resolves the query's named refs and footprint against the
// ledger, snapshots the free view and evaluates, returning the footprint
// the verdict was read from. The epoch is read before the free view: a
// mutation racing the snapshot lands a later epoch, so the subscription
// manager's next sweep re-checks — verdicts are never stale across a
// quiet epoch.
func (s *Server) evalQuery(c *query.Compiled) (query.Result, query.Snapshot, []resource.Location, error) {
	epoch := s.ledger.Epoch()
	comms := make(map[string]query.Commitment)
	for _, name := range c.Names() {
		// Absent refs evaluate to false, not errors.
		if cm, ok := s.ledger.QueryCommitment(name); ok {
			comms[name] = cm
		}
	}
	var (
		free resource.Set
		now  interval.Time
	)
	locs := c.Footprint(comms)
	if len(locs) > 0 {
		var err error
		free, now, err = s.ledger.FreeView(locs)
		if err != nil {
			return query.Result{}, query.Snapshot{}, nil, err
		}
	} else {
		now = s.ledger.Now()
	}
	snap := query.Snapshot{Now: now, Epoch: epoch, Free: free, Commitments: comms}
	res, err := c.Evaluate(snap)
	return res, snap, locs, err
}

// QueryCommitment resolves a live commitment for a query evaluation,
// its remaining demand kept as a set: nothing is rendered to text that
// does not leave the process.
func (l *Ledger) QueryCommitment(name string) (query.Commitment, bool) {
	demand, info, ok := l.committed(name)
	if !ok {
		return query.Commitment{}, false
	}
	return info.QueryCommitment(demand), true
}

// QueryCommitment is the query layer's view of the commitment, with
// demand its remaining demand (the set Demand renders).
func (info CommitmentInfo) QueryCommitment(demand resource.Set) query.Commitment {
	locs := make([]resource.Location, len(info.Locations))
	for i, loc := range info.Locations {
		locs[i] = resource.Location(loc)
	}
	return query.Commitment{
		Name:      info.Name,
		Admitted:  info.Admitted,
		Finish:    info.Finish,
		Deadline:  info.Deadline,
		Locations: locs,
		Demand:    demand,
	}
}

// managerEval adapts evalQuery for the subscription manager. An
// installed override (SetWatchEvaluator) takes precedence: the cluster
// layer injects one that fans footprints spanning other owners out to
// the live ownership table, so a standing watch keeps evaluating
// correctly after the locations it names change hands.
func (s *Server) managerEval(c *query.Compiled) (query.Verdict, error) {
	if fn, ok := s.watchEval.Load().(query.Evaluator); ok && fn != nil {
		return fn(c)
	}
	return s.LocalEval(c)
}

// LocalEval evaluates a compiled query against this node's ledger only
// — the building block a cluster-aware watch evaluator falls back to
// for all-local footprints. The verdict is scoped: a write to none of
// its footprint's shards, for none of the query's names, cannot flip it.
func (s *Server) LocalEval(c *query.Compiled) (query.Verdict, error) {
	res, snap, locs, err := s.evalQuery(c)
	if err != nil {
		return query.Verdict{}, err
	}
	return query.Verdict{Holds: res.Holds, Epoch: snap.Epoch, Now: snap.Now,
		Footprint: locs, Scoped: true}, nil
}

// SetWatchEvaluator overrides the evaluator standing watches re-run on
// every ledger epoch. Intended to be called once, before the server
// accepts subscriptions.
func (s *Server) SetWatchEvaluator(fn query.Evaluator) {
	s.watchEval.Store(fn)
}

// Queries exposes the subscription manager (selftest and tests).
func (s *Server) Queries() *query.Manager {
	return s.queries
}

// EvalQuery runs a compiled query against the live ledger (cluster
// fan-out delegates single-owner queries here, and the selftest uses it
// for merged-view equivalence checks).
func (s *Server) EvalQuery(c *query.Compiled) (QueryResponse, error) {
	start := time.Now()
	res, snap, _, err := s.evalQuery(c)
	if err != nil {
		return QueryResponse{}, err
	}
	s.queryCount.Add(1)
	elapsed := time.Since(start).Microseconds()
	s.queryLatencyUS.Observe(float64(elapsed))
	return QueryResponse{
		Query:     c.Source(),
		Holds:     res.Holds,
		Formula:   res.Formula.String(),
		Now:       snap.Now,
		Epoch:     snap.Epoch,
		ElapsedUS: elapsed,
	}, nil
}

// handleQuery serves GET /v1/query. ?name= is the commitment lookup the
// endpoint has always answered; ?q= evaluates a one-shot temporal
// query in the compact text form.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("name"); name != "" {
		s.ServeCommitment(w, name)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("server: query needs ?name= or ?q="))
		return
	}
	c, err := query.ParseText(q)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.ServeQuery(r.Context(), w, c)
}

// ServeCommitment answers the commitment lookup GET /v1/query?name=.
func (s *Server) ServeCommitment(w http.ResponseWriter, name string) {
	info, ok := s.ledger.Commitment(name)
	if !ok {
		HTTPError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknown, name))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleQueryPost serves POST /v1/query: the text or JSON-AST wire form.
func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	c, err := DecodeQueryRequest(body.Bytes())
	body.Release()
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.ServeQuery(r.Context(), w, c)
}

// ServeQuery evaluates a compiled one-shot query against this node's
// ledger and writes the verdict.
func (s *Server) ServeQuery(ctx context.Context, w http.ResponseWriter, c *query.Compiled) {
	_, sp := s.cfg.Spans.Start(ctx, span.KindQuery)
	defer sp.End()
	sp.Str("query", c.Source())
	resp, err := s.EvalQuery(c)
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotOwned) {
			status = http.StatusUnprocessableEntity
		}
		HTTPError(w, status, err)
		return
	}
	sp.Attr("holds", resp.Holds)
	sp.Int("epoch", int64(resp.Epoch))
	s.obs.Log("query.oneshot",
		"trace", obs.Trace(ctx), "query", resp.Query,
		"holds", resp.Holds, "epoch", resp.Epoch, "elapsed_us", resp.ElapsedUS)
	WriteJSON(w, http.StatusOK, resp)
}

// watchQueueLen parses the optional ?queue= bound on the subscriber's
// event queue.
func watchQueueLen(r *http.Request) int {
	if raw := r.URL.Query().Get("queue"); raw != "" {
		if n, err := strconv.Atoi(raw); err == nil {
			return n
		}
	}
	return 16
}

// handleWatch serves GET /v1/watch?q=: a standing query delivered as
// server-sent events. The first event is the current verdict; every
// subsequent one is a verdict flip tagged with the epoch and mutation
// kind that caused it. The stream ends when the client disconnects or
// the daemon shuts down.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("server: watch needs ?q="))
		return
	}
	c, err := query.ParseText(q)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, errors.New("server: response writer cannot stream"))
		return
	}
	_, sp := s.cfg.Spans.Start(r.Context(), span.KindWatch)
	defer sp.End()
	sp.Str("query", c.Source())
	sub, err := s.queries.Subscribe(c, watchQueueLen(r))
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotOwned) {
			status = http.StatusUnprocessableEntity
		}
		HTTPError(w, status, err)
		return
	}
	defer sub.Close()
	sp.Attr("sub", sub.ID())

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	delivered := 0
	defer func() { sp.Attr("events", delivered) }()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				return // manager shut down
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: verdict\ndata: %s\n\n", data); err != nil {
				return
			}
			flusher.Flush()
			delivered++
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// webhookRequest registers a standing query delivered by POSTing each
// verdict event as JSON to URL.
type webhookRequest struct {
	Query string `json:"query"`
	URL   string `json:"url"`
}

// handleWatchHook serves POST /v1/watch: webhook-delivered standing
// queries. Returns the subscription id; DELETE /v1/watch?id= removes it.
func (s *Server) handleWatchHook(w http.ResponseWriter, r *http.Request) {
	var req webhookRequest
	if err := decodeInto(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" || req.URL == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("server: watch hook needs query and url"))
		return
	}
	c, err := query.ParseText(req.Query)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	sub, err := s.queries.SubscribeWebhook(c, req.URL, nil, watchQueueLen(r))
	if err != nil {
		s.errored.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotOwned) {
			status = http.StatusUnprocessableEntity
		}
		HTTPError(w, status, err)
		return
	}
	s.webhookMu.Lock()
	s.webhooks[sub.ID()] = sub
	s.webhookMu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{"sub": sub.ID(), "query": sub.Query()})
}

// handleWatchDrop serves DELETE /v1/watch?id=: removes a webhook
// subscription.
func (s *Server) handleWatchDrop(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, errors.New("server: watch delete needs ?id="))
		return
	}
	s.webhookMu.Lock()
	sub, ok := s.webhooks[id]
	delete(s.webhooks, id)
	s.webhookMu.Unlock()
	if !ok {
		HTTPError(w, http.StatusNotFound, fmt.Errorf("server: unknown watch subscription %d", id))
		return
	}
	sub.Close()
	WriteJSON(w, http.StatusOK, map[string]any{"removed": id})
}
