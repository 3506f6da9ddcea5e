package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
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

// decodeQueryRequest decodes and compiles one POST /v1/query body.
func decodeQueryRequest(body []byte) (*query.Compiled, error) {
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

// A QuerySnapshot returns the Snapshot a compiled query is evaluated
// against: its resolved names, the free view of its footprint, the
// clock and the epoch, and whether that footprint is its whole read set.
// ctx carries the evaluating request's span, so the spans of any RPC
// the hook makes nest under it.
type QuerySnapshot func(ctx context.Context, c *query.Compiled) (query.Snapshot, error)

// SetQuerySnapshot replaces the hook every query evaluation, one-shot
// or standing, reads its snapshot through. A cluster node installs one
// that reads the footprint's owners. Call it once, before the server
// accepts queries or subscriptions.
func (s *Server) SetQuerySnapshot(fn QuerySnapshot) { s.snapshot = fn }

// ledgerSnapshot is the default hook: this node's ledger. The epoch is
// read before the free view, so a mutation racing the snapshot lands a
// later epoch. Absent names are left out, not errors. The snapshot is
// scoped: a write to none of its footprint's shards, for none of the
// query's names, cannot change the verdict.
func (s *Server) ledgerSnapshot(_ context.Context, c *query.Compiled) (query.Snapshot, error) {
	snap := query.Snapshot{Epoch: s.ledger.Epoch(), Scoped: true}
	for _, name := range c.Names() {
		if cm, ok := s.ledger.QueryCommitment(name); ok {
			snap.Commitments = append(snap.Commitments, cm)
		}
	}
	snap.Footprint = c.Footprint(snap.Commitments)
	if len(snap.Footprint) == 0 {
		snap.Now = s.ledger.Now()
		return snap, nil
	}
	var err error
	snap.Free, snap.Now, err = s.ledger.FreeView(snap.Footprint)
	return snap, err
}

// evalQuery is the one query evaluation: the hook's snapshot, decided.
// A one-shot answer and a standing watch's verdict are both built from
// what it returns.
func (s *Server) evalQuery(ctx context.Context, c *query.Compiled) (query.Result, query.Verdict, error) {
	snap, err := s.snapshot(ctx, c)
	if err != nil {
		return query.Result{}, query.Verdict{}, err
	}
	res, err := c.Evaluate(snap)
	return res, query.Verdict{Holds: res.Holds, Epoch: snap.Epoch, Now: snap.Now,
		Reads: res.Reads, Typed: res.Typed, Footprint: snap.Footprint, Scoped: snap.Scoped}, err
}

// watchEval is the subscription manager's evaluator.
func (s *Server) watchEval(c *query.Compiled) (query.Verdict, error) {
	_, v, err := s.evalQuery(context.Background(), c)
	return v, err
}

// QueryCommitment resolves a live commitment for a query evaluation,
// its remaining demand kept as a set and its locations read once from
// the reservation: nothing is rendered to text that does not leave the
// process.
func (l *Ledger) QueryCommitment(name string) (query.Commitment, bool) {
	now := l.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.liveLocked(name)
	if r == nil {
		return query.Commitment{}, false
	}
	return query.Commitment{
		Name:      r.name,
		Admitted:  r.admitted,
		Finish:    r.finish,
		Deadline:  r.deadline,
		Locations: r.locs(),
		Demand:    r.demand().TrimmedBefore(now),
	}, true
}

// QueryCommitment is the query layer's view of a commitment read off
// the wire (a peer's ?name= lookup), with demand its remaining demand
// (the set Demand renders).
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

// Queries exposes the subscription manager (selftest and tests).
func (s *Server) Queries() *query.Manager {
	return s.queries
}

// EvalQuery answers a compiled one-shot query (the benchmark's replay
// times this call).
func (s *Server) EvalQuery(c *query.Compiled) (QueryResponse, error) {
	resp, _, err := s.answerQuery(context.Background(), c)
	return resp, err
}

// answerQuery evaluates, counts and answers one one-shot query. scoped
// reports whether it read this node's ledger alone.
func (s *Server) answerQuery(ctx context.Context, c *query.Compiled) (resp QueryResponse, scoped bool, err error) {
	start := time.Now()
	res, v, err := s.evalQuery(ctx, c)
	if err != nil {
		return resp, false, err
	}
	s.queryCount.Add(1)
	elapsed := time.Since(start).Microseconds()
	s.queryLatencyUS.Observe(float64(elapsed))
	return QueryResponse{
		Query:     c.Source(),
		Holds:     res.Holds,
		Formula:   res.Formula.String(),
		Now:       v.Now,
		Epoch:     v.Epoch,
		ElapsedUS: elapsed,
	}, v.Scoped, nil
}

// queryStatus is the HTTP status of a failed query evaluation: 503 when
// an owner could not be read, 422 when a location is not this node's.
func queryStatus(err error) int {
	var u unavailable
	switch {
	case errors.As(err, &u):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotOwned):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// handleQuery serves GET /v1/query. ?name= is the commitment lookup the
// endpoint has always answered; ?q= evaluates a one-shot temporal
// query in the compact text form.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	args := r.URL.Query()
	if name := args.Get("name"); name != "" {
		info, ok := s.ledger.Commitment(name)
		if !ok {
			HTTPError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknown, name))
			return
		}
		WriteJSON(w, http.StatusOK, info)
		return
	}
	q := args.Get("q")
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
	s.serveQuery(r.Context(), w, c)
}

// handleQueryPost serves POST /v1/query: the text or JSON-AST wire form.
func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	c, err := decodeQueryRequest(body.Bytes())
	body.Release()
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.serveQuery(r.Context(), w, c)
}

// serveQuery evaluates a compiled one-shot query and writes the
// verdict. The query span's context reaches the snapshot hook.
func (s *Server) serveQuery(ctx context.Context, w http.ResponseWriter, c *query.Compiled) {
	ctx, sp := s.cfg.Spans.Start(ctx, span.KindQuery)
	defer sp.End()
	sp.Str("query", c.Source())
	resp, scoped, err := s.answerQuery(ctx, c)
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		HTTPError(w, queryStatus(err), err)
		return
	}
	sp.Attr("holds", resp.Holds)
	sp.Int("epoch", int64(resp.Epoch))
	s.obs.Log("query.oneshot",
		"trace", obs.Trace(ctx), "query", resp.Query, "holds", resp.Holds,
		"epoch", resp.Epoch, "fanout", !scoped, "elapsed_us", resp.ElapsedUS)
	WriteJSON(w, http.StatusOK, resp)
}

// watchQueueLen parses the optional ?queue= bound on the subscriber's
// event queue from the request's parsed URL query.
func watchQueueLen(args url.Values) int {
	if raw := args.Get("queue"); raw != "" {
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
	args := r.URL.Query()
	q := args.Get("q")
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
	sub, err := s.queries.Subscribe(c, watchQueueLen(args))
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		sp.Attr("error", err)
		HTTPError(w, queryStatus(err), err)
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
	if err := decodeInto(w, r, &req); err != nil {
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
	sub, err := s.queries.SubscribeWebhook(c, req.URL, nil, watchQueueLen(r.URL.Query()))
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, queryStatus(err), err)
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
