// Package admission implements deadline-assurance admission control
// policies: the ROTA policy built on the paper's Theorem 4, and the
// baselines its argument is directed against — aggregate total-quantity
// reasoning (which ignores the ordering the §III inequality discussion
// shows is essential) and unconditional admission.
//
// A Policy sees the system's future availability and decides whether a
// newly arrived distributed computation can be admitted with its deadline
// assured. Policies are stateful per simulation run.
package admission

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// View is what a policy may inspect when deciding: the current time and
// the system's raw future availability Θ (not discounted for prior
// commitments — tracking those is each policy's own job, which is
// precisely where the baselines are weaker than ROTA).
type View struct {
	Now interval.Time
	// Theta is the future availability (already trimmed to ≥ Now).
	Theta resource.Set
	// State is the full ROTA state when the simulation maintains one
	// (planned execution); nil under greedy execution.
	State *core.State
}

// Decision is a policy's verdict on one job.
type Decision struct {
	Admit bool
	// Plan is the consumption witness, present only for plan-producing
	// policies (ROTA). Executors reserve exactly this.
	Plan *schedule.Plan
	// Req is the requirement Plan was found for: the job's concurrent
	// requirement as seen at the view's Now. It is set exactly when Plan
	// is, so an executor accommodates the plan without deriving it again.
	Req compute.Concurrent
	// Reason documents rejections: the text of Refusal when there is
	// one.
	Reason string
	// Refusal is the typed refusal behind a rejection (see Explain);
	// nil for admissions and for policies that give only a Reason.
	Refusal error
	// Elapsed is the wall-clock cost of making the decision.
	Elapsed time.Duration
}

// Policy decides admission and observes lifecycle events to maintain its
// own bookkeeping.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Decide returns the verdict for a job arriving now. Implementations
	// do not fill Decision.Elapsed; callers that care about decision
	// latency go through the package-level Decide, which measures it
	// uniformly for every policy.
	Decide(v View, job compute.Distributed) Decision
	// OnComplete tells the policy a previously admitted job finished.
	OnComplete(name string)
	// Reset clears state for a new run.
	Reset()
}

// Decide invokes the policy and stamps Decision.Elapsed with the
// wall-clock cost of the call. This is the single place decision latency
// is measured, so admit and reject paths of every policy are timed
// identically.
func Decide(p Policy, v View, job compute.Distributed) Decision {
	start := time.Now()
	dec := p.Decide(v, job)
	dec.Elapsed = time.Since(start)
	return dec
}

// Rota is the paper's admission control: Theorem 4 decided constructively
// against the state's free (expiring) resources. It requires a simulation
// that maintains the ROTA state, and its admissions come with witness
// plans.
type Rota struct {
	// Exhaustive enables the actor-permutation search when the greedy
	// ordering fails (restores completeness at factorial cost).
	Exhaustive bool
}

var _ Policy = (*Rota)(nil)

// Name implements Policy.
func (p *Rota) Name() string {
	if p.Exhaustive {
		return "rota-exhaustive"
	}
	return "rota"
}

// Decide implements Policy via Theorem 4.
func (p *Rota) Decide(v View, job compute.Distributed) Decision {
	if v.State == nil {
		return Refuse(errors.New("rota requires a stateful (planned) simulation"))
	}
	// Θ_free is shared, not copied; schedule.Concurrent never mutates the
	// availability it searches. The server hot path presents its
	// already-subtracted free view as a commitment-free state, whose
	// Θ_free is Θ itself.
	free, err := v.State.FreeResources()
	if err != nil {
		return Refuse(err)
	}
	req := core.ConcurrentAt(job, v.Now)
	plan, err := schedule.Concurrent(free, req, p.Exhaustive)
	if err != nil {
		return Refuse(fmt.Errorf("no witness schedule: %w", err))
	}
	return Decision{Admit: true, Plan: &plan, Req: req}
}

// OnComplete implements Policy (the ROTA state tracks commitments
// itself).
func (p *Rota) OnComplete(string) {}

// Reset implements Policy.
func (p *Rota) Reset() {}

// NaiveTotal is the aggregate-quantity baseline: it admits a job when,
// for every located type, the total quantity available within the job's
// window minus the remaining totals of previously admitted jobs with
// overlapping windows covers the job's total need. This is exactly the
// reasoning the paper's §III inequality discussion warns about: "it is
// not necessarily enough for the total amount of resource available over
// the course of an interval to be greater" — ordering between phases is
// ignored, so it over-admits order-sensitive workloads.
type NaiveTotal struct {
	ledger map[string]ledgerEntry
}

type ledgerEntry struct {
	window  interval.Interval
	amounts resource.Amounts
}

var _ Policy = (*NaiveTotal)(nil)

// NewNaiveTotal builds the baseline.
func NewNaiveTotal() *NaiveTotal {
	return &NaiveTotal{ledger: make(map[string]ledgerEntry)}
}

// Name implements Policy.
func (p *NaiveTotal) Name() string { return "naive-total" }

// Decide implements Policy.
func (p *NaiveTotal) Decide(v View, job compute.Distributed) Decision {
	window := job.Window()
	if v.Now > window.Start {
		window = interval.New(v.Now, window.End)
	}
	if window.Empty() {
		return Decision{Reason: "deadline passed"}
	}
	need := job.TotalAmounts()
	for lt, q := range need {
		available := v.Theta.QuantityWithin(lt, window)
		for _, e := range p.ledger {
			if e.window.Overlaps(window) {
				available -= e.amounts[lt]
			}
		}
		if available < q {
			return Decision{Reason: fmt.Sprintf("aggregate shortfall of %v", lt)}
		}
	}
	p.ledger[job.Name] = ledgerEntry{window: window, amounts: need}
	return Decision{Admit: true}
}

// OnComplete implements Policy.
func (p *NaiveTotal) OnComplete(name string) {
	delete(p.ledger, name)
}

// Reset implements Policy.
func (p *NaiveTotal) Reset() {
	p.ledger = make(map[string]ledgerEntry)
}

// AlwaysAdmit accepts everything — the no-reasoning floor.
type AlwaysAdmit struct{}

var _ Policy = AlwaysAdmit{}

// Name implements Policy.
func (AlwaysAdmit) Name() string { return "always-admit" }

// Decide implements Policy.
func (AlwaysAdmit) Decide(View, compute.Distributed) Decision {
	return Decision{Admit: true}
}

// OnComplete implements Policy.
func (AlwaysAdmit) OnComplete(string) {}

// Reset implements Policy.
func (AlwaysAdmit) Reset() {}

// EDFFeasible is a stronger classical baseline: it keeps its own list of
// admitted jobs and admits a new one iff a fast EDF forward-simulation of
// all unfinished admitted jobs plus the candidate meets every deadline.
// Unlike ROTA it reasons about aggregate rate per located type tick by
// tick, but it knows nothing about future resource expiry structure
// beyond what the availability set exposes, and its simulation assumes
// EDF execution rather than a reserved plan.
type EDFFeasible struct {
	admitted map[string]compute.Distributed
}

var _ Policy = (*EDFFeasible)(nil)

// NewEDFFeasible builds the baseline.
func NewEDFFeasible() *EDFFeasible {
	return &EDFFeasible{admitted: make(map[string]compute.Distributed)}
}

// Name implements Policy.
func (p *EDFFeasible) Name() string { return "edf-feasible" }

// Decide implements Policy.
func (p *EDFFeasible) Decide(v View, job compute.Distributed) Decision {
	trial := make([]compute.Distributed, 0, len(p.admitted)+1)
	for _, d := range p.admitted {
		trial = append(trial, d)
	}
	trial = append(trial, job)
	if !edfMeetsAll(v.Theta, v.Now, trial) {
		return Decision{Reason: "EDF forward simulation misses a deadline"}
	}
	p.admitted[job.Name] = job
	return Decision{Admit: true}
}

// OnComplete implements Policy.
func (p *EDFFeasible) OnComplete(name string) {
	delete(p.admitted, name)
}

// Reset implements Policy.
func (p *EDFFeasible) Reset() {
	p.admitted = make(map[string]compute.Distributed)
}
