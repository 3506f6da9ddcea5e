package server

import (
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

// FinishRequest names a prepared key to commit or abort.
type FinishRequest struct {
	Key string `json:"key"`
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
	return req, nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	// The participant-side span parents onto the coordinator's RPC span
	// via the X-Rota-Span header (lifted into the context by Instrument).
	_, sp := s.cfg.Spans.Start(r.Context(), span.KindPrepare)
	defer sp.End()
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req, demand, err := DecodePrepareRequest(body.Bytes())
	body.Release()
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sp.Str("job", req.Name)
	sp.Str("key", req.Key)
	err = s.ledger.Prepare(req.Key, req.Name, demand, req.Finish, req.Deadline, req.Expiry)
	sp.Attr("held", err == nil)
	s.obs.Log("twophase.prepare",
		"trace", obs.Trace(r.Context()), "key", req.Key, "job", req.Name,
		"held", err == nil, "lease_expiry", req.Expiry)
	var over *admission.Overcommit
	status := http.StatusInternalServerError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, PrepareResponse{Key: req.Key, Held: true})
		return
	case errors.As(err, &over):
		// Capacity rejection: a well-formed verdict, not an error.
		sp.SetStatus(span.StatusReject)
		sp.SetProvenance(admission.Explain(err))
		writeJSON(w, http.StatusOK, PrepareResponse{Key: req.Key, Held: false, Reason: err.Error(), Shard: over.Shard})
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
	httpError(w, status, err)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	_, sp := s.cfg.Spans.Start(r.Context(), span.KindCommit)
	defer sp.End()
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeFinishRequest(body.Bytes())
	body.Release()
	if err != nil {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sp.Str("key", req.Key)
	err = s.ledger.Commit(req.Key)
	s.obs.Log("twophase.commit",
		"trace", obs.Trace(r.Context()), "key", req.Key, "ok", err == nil)
	if err != nil {
		sp.SetStatus(span.StatusError)
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"committed": req.Key})
	case errors.Is(err, ErrUnknownHold):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrLeaseExpired):
		httpError(w, http.StatusGone, err)
	default:
		s.errored.Add(1)
		httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	_, sp := s.cfg.Spans.Start(r.Context(), span.KindAbort)
	defer sp.End()
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeFinishRequest(body.Bytes())
	body.Release()
	if err != nil {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sp.Str("key", req.Key)
	err = s.ledger.Abort(req.Key)
	s.obs.Log("twophase.abort",
		"trace", obs.Trace(r.Context()), "key", req.Key, "ok", err == nil)
	if err != nil {
		s.errored.Add(1)
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"aborted": req.Key})
}

func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	_, sp := s.cfg.Spans.Start(r.Context(), span.KindFreeView)
	defer sp.End()
	raw := r.URL.Query().Get("locs")
	if raw == "" {
		sp.SetStatus(span.StatusError)
		httpError(w, http.StatusBadRequest, errors.New("server: free view needs ?locs=l1,l2"))
		return
	}
	var locs []resource.Location
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			locs = append(locs, resource.Location(part))
		}
	}
	free, now, err := s.ledger.FreeView(locs)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotOwned) {
			status = http.StatusUnprocessableEntity
		}
		sp.SetStatus(span.StatusError)
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, FreeResponse{Now: now, Free: free.Compact()})
}
