package cluster

import (
	"net/http"
	"net/url"
	"sort"

	"repro/internal/obs/assure"
	"repro/internal/server"
)

// Deadline-assurance fan-out: GET /v1/assure on any member reports the
// whole cluster. Promise records are deliberately node-local — a job
// that migrated leaves a `transferred` record behind and a live promise
// ahead — so the cluster view is a sum of per-node reports plus, for a
// single job, a precedence merge of each node's account. A member the
// fan-out cannot reach is named in Missing, never silently left out of
// the sum.

// ClusterAssureResponse is the cluster-wide GET /v1/assure payload.
type ClusterAssureResponse struct {
	Cluster bool `json:"cluster"`
	// Nodes maps member ID to its local promise report.
	Nodes map[string]assure.Report `json:"nodes"`
	// Totals sums the reached members' counters, and attainment is
	// recomputed over the summed outcomes. Each member counts one
	// promise per share of a job it holds, so a job coordinated across
	// k owners counts k times; a migrated job's old owner counts it
	// only as transferred.
	Totals assure.Stats `json:"totals"`
	// Missing lists the members the fan-out could not reach, sorted;
	// Totals leaves their promises out.
	Missing []string `json:"missing,omitempty"`
}

// ClusterAssureJobResponse is the cluster-wide GET /v1/assure?job=X
// payload: the authoritative merged view plus every node's account.
type ClusterAssureJobResponse struct {
	Job     string                              `json:"job"`
	Found   bool                                `json:"found"`
	Promise assure.Promise                      `json:"promise,omitempty"`
	Nodes   map[string]server.AssureJobResponse `json:"nodes,omitempty"`
	// Missing lists the members the fan-out could not reach, sorted:
	// their account of the job is not in the merge.
	Missing []string `json:"missing,omitempty"`
}

func (n *Node) handleAssure(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	if n.srv.Assure() == nil || r.Header.Get(headerForwarded) != "" {
		// Disabled (the server answers 404) or a peer's fan-out leg:
		// serve the local report, no loops.
		n.srv.ServeAssure(w, job)
		return
	}
	headers := map[string]string{headerForwarded: n.self.ID}
	if job != "" {
		resp := ClusterAssureJobResponse{Job: job, Nodes: map[string]server.AssureJobResponse{}}
		var views []assure.Promise
		for _, ps := range n.peersSnapshot() {
			var view server.AssureJobResponse
			if ps.isSelf {
				p, ok := n.srv.Assure().Lookup(job)
				view = server.AssureJobResponse{Job: job, Found: ok, Promise: p}
			} else if err := n.client.call(r.Context(), http.MethodGet,
				ps.URL+"/v1/assure?job="+url.QueryEscape(job), nil, &view, headers, ps.rpc); err != nil {
				resp.Missing = append(resp.Missing, ps.ID)
				continue
			}
			resp.Nodes[ps.ID] = view
			if view.Found {
				views = append(views, view.Promise)
			}
		}
		resp.Promise, resp.Found = assure.Merge(views)
		sort.Strings(resp.Missing)
		server.WriteJSON(w, http.StatusOK, resp)
		return
	}
	out := ClusterAssureResponse{Cluster: true, Nodes: map[string]assure.Report{}}
	var parts []assure.Stats
	for _, ps := range n.peersSnapshot() {
		var rep assure.Report
		if ps.isSelf {
			rep = n.srv.Assure().Report()
		} else if err := n.client.call(r.Context(), http.MethodGet,
			ps.URL+"/v1/assure", nil, &rep, headers, ps.rpc); err != nil {
			out.Missing = append(out.Missing, ps.ID)
			continue
		}
		out.Nodes[ps.ID] = rep
		parts = append(parts, rep.Stats)
	}
	out.Totals = assure.MergeStats(parts)
	sort.Strings(out.Missing)
	server.WriteJSON(w, http.StatusOK, out)
}

// FlightState is the health/membership digest frozen into every
// flight-recorder snapshot on this node.
func (n *Node) FlightState() any {
	t := n.reg.Snapshot()
	members := make([]string, 0, len(t.Members))
	for _, m := range t.Members {
		members = append(members, m.ID)
	}
	sort.Strings(members)
	return map[string]any{
		"node":             n.self.ID,
		"membership_epoch": t.Epoch,
		"members":          members,
		"suspected":        n.suspectedNow.Load(),
		"auto_evictions":   n.autoEvictions.Load(),
		"rejoins":          n.rejoins.Load(),
		"ledger_now":       n.srv.Ledger().Now(),
		"ledger_epoch":     n.srv.Ledger().Epoch(),
	}
}
