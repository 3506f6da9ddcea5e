package server

import (
	"errors"
	"net/http"
	"runtime/debug"
	"sync"

	"repro/internal/obs/assure"
	"repro/internal/obs/flightrec"
)

// BuildInfo identifies the running binary on /v1/stats.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module_path"`
	Version   string `json:"module_version"`
}

var (
	buildOnce   sync.Once
	buildCached BuildInfo
)

// buildInfo reads the binary's embedded build metadata once. Binaries
// built outside a module (go test in odd setups) report what they can.
func buildInfo() BuildInfo {
	buildOnce.Do(func() {
		buildCached = BuildInfo{Version: "(devel)"}
		if bi, ok := debug.ReadBuildInfo(); ok {
			buildCached.GoVersion = bi.GoVersion
			buildCached.Module = bi.Main.Path
			if bi.Main.Version != "" {
				buildCached.Version = bi.Main.Version
			}
		}
	})
	return buildCached
}

// AssureJobResponse is the per-job shape of GET /v1/assure?job=NAME.
type AssureJobResponse struct {
	Job     string         `json:"job"`
	Found   bool           `json:"found"`
	Promise assure.Promise `json:"promise,omitempty"`
}

func (s *Server) handleAssure(w http.ResponseWriter, r *http.Request) {
	s.ServeAssure(w, r.URL.Query().Get("job"))
}

// ServeAssure answers GET /v1/assure: the node's promise-ledger report,
// or — for a non-empty job — the current view of that job's promise.
func (s *Server) ServeAssure(w http.ResponseWriter, job string) {
	if s.cfg.Assure == nil {
		HTTPError(w, http.StatusNotFound, errors.New("server: promise ledger disabled (start with -assure)"))
		return
	}
	if job != "" {
		p, ok := s.cfg.Assure.Lookup(job)
		WriteJSON(w, http.StatusOK, AssureJobResponse{Job: job, Found: ok, Promise: p})
		return
	}
	WriteJSON(w, http.StatusOK, s.cfg.Assure.Report())
}

// FlightRecIndex is the GET /debug/rota/flightrec payload: every held
// snapshot, oldest first. rotadoctor fetches this from each node and
// merges the snapshots into one incident.
type FlightRecIndex struct {
	Node      string               `json:"node,omitempty"`
	Stats     flightrec.Stats      `json:"stats"`
	Snapshots []flightrec.Snapshot `json:"snapshots"`
}

func (s *Server) handleFlightRecIndex(w http.ResponseWriter, r *http.Request) {
	if s.cfg.FlightRec == nil {
		HTTPError(w, http.StatusNotFound, errors.New("server: flight recorder disabled (start with -flightrec-size)"))
		return
	}
	snaps := s.cfg.FlightRec.Snapshots()
	if snaps == nil {
		snaps = []flightrec.Snapshot{}
	}
	node := ""
	if len(snaps) > 0 {
		node = snaps[0].Node
	}
	WriteJSON(w, http.StatusOK, FlightRecIndex{
		Node: node, Stats: s.cfg.FlightRec.Stats(), Snapshots: snaps})
}

func (s *Server) handleFlightRecGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.FlightRec == nil {
		HTTPError(w, http.StatusNotFound, errors.New("server: flight recorder disabled (start with -flightrec-size)"))
		return
	}
	id := r.PathValue("id")
	if id == "" || len(id) > 128 {
		HTTPError(w, http.StatusBadRequest, errors.New("server: snapshot id must be 1..128 bytes"))
		return
	}
	snap, ok := s.cfg.FlightRec.Get(id)
	if !ok {
		HTTPError(w, http.StatusNotFound, errors.New("server: no such flight-recorder snapshot: "+id))
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}
