package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs/assure"
	"repro/internal/resource"
	"repro/internal/workload"
)

// refSample is how many labels of each daemon workload are confirmed
// against the paper-level reference at set-up.
const refSample = 256

// referenceState builds the paper's state S = (Θ, ρ, 0) carrying the
// residents as commitments — internal/core is the spec the daemon's
// verdicts are held to. Each resident's witness plan is found the way
// the ledger finds it (Theorem 4 against the free resources so far).
func referenceState(theta resource.Set, residents []workload.Job) (core.State, error) {
	state := core.NewState(theta, 0)
	free := state.Theta
	policy := &admission.Rota{}
	for _, r := range residents {
		dec := policy.Decide(admission.View{Theta: free, State: &core.State{Theta: free}}, r.Dist)
		if !dec.Admit {
			return core.State{}, fmt.Errorf("reference: resident %s rejected: %s", r.Dist.Name, dec.Reason)
		}
		state.Commitments = append(state.Commitments, core.Commitment{Req: core.ConcurrentAt(r.Dist, 0), Plan: *dec.Plan})
		var err error
		if free, err = free.Subtract(dec.Plan.Demand()); err != nil {
			return core.State{}, fmt.Errorf("reference: resident %s: %w", r.Dist.Name, err)
		}
	}
	return state, nil
}

// checkLabels confirms the first refSample admit labels of the streams
// against admission.Decide with admission.Rota over the reference state.
func checkLabels(sh shape, residents []workload.Job, streams [numClients][]op) error {
	state, err := referenceState(sh.theta(), residents)
	if err != nil {
		return err
	}
	policy := &admission.Rota{}
	checked := 0
	for i := 0; checked < refSample && i < poolPerCli; i++ {
		for c := range streams {
			o := &streams[c][i]
			if o.kind != opAdmit {
				continue
			}
			dec := admission.Decide(policy, admission.View{Theta: state.Theta, State: &state}, o.job.Dist)
			if dec.Admit != o.expect {
				return fmt.Errorf("reference: %s labelled admit=%v but internal/core decides %v (%s)",
					o.job.Dist.Name, o.expect, dec.Admit, dec.Reason)
			}
			checked++
		}
	}
	return nil
}

// checkSystem runs the end-of-run output checks on an idle system: every
// ledger audits clean, exactly the residents are still committed, and
// /v1/assure (the cluster fan-out on a federation) reports no violated
// and no orphaned promise. It returns the merged promise stats.
func checkSystem(sys *system) (assure.Stats, error) {
	live := 0
	for i, nd := range sys.nodes {
		if err := nd.srv.Ledger().Audit(); err != nil {
			return assure.Stats{}, fmt.Errorf("node %d audit: %w", i, err)
		}
		live += nd.srv.Ledger().NumCommitments()
	}
	if live != sys.sh.residents {
		return assure.Stats{}, fmt.Errorf("live commitments %d, want the %d residents", live, sys.sh.residents)
	}
	resp, err := http.Get(sys.nodes[0].url + "/v1/assure")
	if err != nil {
		return assure.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return assure.Stats{}, fmt.Errorf("/v1/assure: status %d", resp.StatusCode)
	}
	var stats assure.Stats
	if sys.sh.nodes > 1 {
		var body cluster.ClusterAssureResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return assure.Stats{}, err
		}
		if len(body.Nodes) != sys.sh.nodes {
			return assure.Stats{}, fmt.Errorf("/v1/assure fan-out reached %d of %d nodes", len(body.Nodes), sys.sh.nodes)
		}
		stats = body.Totals
	} else {
		var body assure.Report
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return assure.Stats{}, err
		}
		stats = body.Stats
	}
	if stats.Violated != 0 || stats.Orphaned != 0 {
		return stats, fmt.Errorf("promises: %d violated, %d orphaned", stats.Violated, stats.Orphaned)
	}
	return stats, nil
}
