package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/admission"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/resource"
)

// The /v1/cluster/* surface: the node-local half of the federation
// protocol. These handlers operate on this node's ledger only; the
// coordinator logic that strings them into a two-phase admission lives
// in internal/cluster.

// maxClusterIDLen bounds the key and name fields of cluster requests so
// a peer cannot make the ledger index arbitrarily wide per entry.
const maxClusterIDLen = 256

// PrepareRequest asks this node to hold a job's local sub-plan under a
// TTL lease. Demand is a compact resource-set literal (resource.ParseSet
// syntax); Expiry is on the receiving node's ledger clock.
type PrepareRequest struct {
	Key      string        `json:"key"`
	Name     string        `json:"name"`
	Demand   string        `json:"demand"`
	Finish   interval.Time `json:"finish"`
	Deadline interval.Time `json:"deadline"`
	Expiry   interval.Time `json:"lease_expiry"`
}

// PrepareResponse reports the hold verdict. Held=false is a capacity
// rejection — the protocol's analogue of admit=false — naming the Shard
// that could not hold the slice, with Reason its text; transport-level
// and validation failures use HTTP error statuses.
type PrepareResponse struct {
	Key    string            `json:"key"`
	Held   bool              `json:"held"`
	Reason string            `json:"reason,omitempty"`
	Shard  resource.Location `json:"shard,omitempty"`
}

// FinishRequest names a prepared key to commit or abort, and Locs the
// locations its slice was prepared on. A location the receiver no longer
// owns is answered with a 421 naming its owner, after the receiver
// finished its own record; a finish without Locs names none.
type FinishRequest struct {
	Key  string              `json:"key"`
	Locs []resource.Location `json:"locs,omitempty"`
}

// FreeResponse is the owner's free-availability view of some of its
// locations, used by coordinators to plan federated admissions.
type FreeResponse struct {
	Now  interval.Time `json:"now"`
	Free string        `json:"free"`
}

// DecodePrepareRequest decodes and validates one prepare body, returning
// the parsed demand set alongside the wire struct. Exported so the fuzz
// harness exercises exactly the peer-facing wire path.
func DecodePrepareRequest(body []byte) (PrepareRequest, resource.Set, error) {
	var req PrepareRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: bad prepare body: %w", err)
	}
	if req.Key == "" || len(req.Key) > maxClusterIDLen {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare key must be 1..%d bytes", maxClusterIDLen)
	}
	if req.Name == "" || len(req.Name) > maxClusterIDLen {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare name must be 1..%d bytes", maxClusterIDLen)
	}
	if req.Finish <= 0 || req.Deadline <= 0 || req.Expiry <= 0 {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare %s needs positive finish, deadline and lease_expiry", req.Key)
	}
	if req.Finish > req.Deadline {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare %s finishes at %d, after its deadline %d", req.Key, req.Finish, req.Deadline)
	}
	demand, err := resource.ParseSet(req.Demand)
	if err != nil {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare %s demand: %w", req.Key, err)
	}
	if demand.Empty() {
		return PrepareRequest{}, resource.Set{}, fmt.Errorf("server: prepare %s holds nothing", req.Key)
	}
	return req, demand, nil
}

// DecodeFinishRequest decodes and validates one commit/abort body.
func DecodeFinishRequest(body []byte) (FinishRequest, error) {
	var req FinishRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return FinishRequest{}, fmt.Errorf("server: bad commit/abort body: %w", err)
	}
	if req.Key == "" || len(req.Key) > maxClusterIDLen {
		return FinishRequest{}, fmt.Errorf("server: commit/abort key must be 1..%d bytes", maxClusterIDLen)
	}
	for _, loc := range req.Locs {
		// The characters a located type's syntax reserves, as a prepare's
		// demand literal refuses them.
		if loc == "" || len(loc) > maxClusterIDLen || strings.ContainsAny(string(loc), "@>(),") {
			return FinishRequest{}, fmt.Errorf("server: commit/abort %s names a bad location %q", req.Key, loc)
		}
	}
	return req, nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r)
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	req, demand, err := DecodePrepareRequest(body.Bytes())
	body.Release()
	if err != nil {
		s.errored.Add(1)
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.ServePrepare(r.Context(), w, req, demand)
}

// ServePrepare holds a decoded prepare's demand under its lease and
// answers it: a capacity refusal is a well-formed Held=false verdict,
// anything else an error status. The participant-side span parents onto
// the coordinator's RPC span via the X-Rota-Span header, which
// obs.Instrument lifts into ctx.
func (s *Server) ServePrepare(ctx context.Context, w http.ResponseWriter, req PrepareRequest, demand resource.Set) {
	_, sp := s.cfg.Spans.Start(ctx, span.KindPrepare)
	defer sp.End()
	sp.Str("job", req.Name)
	sp.Str("key", req.Key)
	err := s.ledger.Prepare(req.Key, req.Name, demand, req.Finish, req.Deadline, req.Expiry)
	sp.Attr("held", err == nil)
	s.obs.Log("twophase.prepare",
		"trace", obs.Trace(ctx), "key", req.Key, "job", req.Name,
		"held", err == nil, "lease_expiry", req.Expiry)
	var over *admission.Overcommit
	status := http.StatusInternalServerError
	switch {
	case err == nil:
		WriteJSON(w, http.StatusOK, PrepareResponse{Key: req.Key, Held: true})
		return
	case errors.As(err, &over):
		// Capacity rejection: a well-formed verdict, not an error.
		sp.SetStatus(span.StatusReject)
		sp.SetProvenance(admission.Explain(err))
		WriteJSON(w, http.StatusOK, PrepareResponse{Key: req.Key, Held: false, Reason: err.Error(), Shard: over.Shard})
		return
	case errors.Is(err, ErrNotOwned):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrDuplicate):
		status = http.StatusConflict
	case errors.Is(err, ErrLeaseExpired):
		status = http.StatusBadRequest
	}
	s.errored.Add(1)
	sp.SetStatus(span.StatusError)
	HTTPError(w, status, err)
}

// handleFinish serves POST /v1/cluster/commit and /v1/cluster/abort,
// verb naming which.
func (s *Server) handleFinish(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(w, r)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		req, err := DecodeFinishRequest(body.Bytes())
		body.Release()
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		s.ServeFinish(r.Context(), w, verb, req, nil)
	}
}

// ServeFinish commits (verb "commit") or aborts (verb "abort") the
// prepared key and answers it (Ledger.Finish). Abort is idempotent, so
// only a commit finds no hold or an expired lease. A non-nil moved
// answers a finished request in place of the success body: part of its
// footprint is owned elsewhere now.
func (s *Server) ServeFinish(ctx context.Context, w http.ResponseWriter, verb string, req FinishRequest, moved func(http.ResponseWriter)) {
	kind, done := span.KindCommit, "committed"
	if verb == "abort" {
		kind, done = span.KindAbort, "aborted"
	}
	_, sp := s.cfg.Spans.Start(ctx, kind)
	defer sp.End()
	sp.Str("key", req.Key)
	var locs []resource.Location
	if moved != nil {
		locs = req.Locs
	}
	err := s.ledger.Finish(verb, req.Key, locs)
	s.obs.Log("twophase."+verb, "trace", obs.Trace(ctx), "key", req.Key, "ok", err == nil)
	switch {
	case err == nil && moved != nil:
		moved(w)
		return
	case err == nil:
		WriteJSON(w, http.StatusOK, map[string]any{done: req.Key})
		return
	}
	sp.SetStatus(span.StatusError)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownHold):
		status = http.StatusNotFound
	case errors.Is(err, ErrLeaseExpired):
		status = http.StatusGone
	default:
		s.errored.Add(1)
	}
	HTTPError(w, status, err)
}

// FreeLocations reads the ?locs=l1,l2 list of a free-view request.
func FreeLocations(r *http.Request) ([]resource.Location, error) {
	raw := r.URL.Query().Get("locs")
	if raw == "" {
		return nil, errors.New("server: free view needs ?locs=l1,l2")
	}
	var locs []resource.Location
	for _, part := range strings.Split(raw, ",") {
		if part = strings.TrimSpace(part); part != "" {
			locs = append(locs, resource.Location(part))
		}
	}
	return locs, nil
}

func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	locs, err := FreeLocations(r)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	s.ServeFree(r.Context(), w, locs)
}

// ServeFree answers the free view of locs, which must all be owned here.
func (s *Server) ServeFree(ctx context.Context, w http.ResponseWriter, locs []resource.Location) {
	_, sp := s.cfg.Spans.Start(ctx, span.KindFreeView)
	defer sp.End()
	free, now, err := s.ledger.FreeView(locs)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotOwned) {
			status = http.StatusUnprocessableEntity
		}
		sp.SetStatus(span.StatusError)
		HTTPError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, FreeResponse{Now: now, Free: free.Compact()})
}
