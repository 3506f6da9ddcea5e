// Package rota is a Go implementation of ROTA — the Resource-Oriented
// Temporal logic introduced in "Temporal Reasoning about Resources for
// Deadline Assurance in Distributed Systems" (Zhao & Jamali, ICDCS 2010).
//
// ROTA reifies computational resources over time and space as resource
// terms [r]_ξ^τ (rate, located type, interval), represents distributed
// actor computations purely by the resources they require, and provides a
// temporal logic whose decision procedures answer the paper's central
// question: "Can we know at time T whether a distributed multi-agent
// computation A can complete its execution by deadline D?"
//
// # Layers
//
// The package is a facade over focused internal packages:
//
//   - Time and Allen's interval algebra (the paper's Table I), including
//     relation composition.
//   - Resource terms and normalized resource sets with the union,
//     simplification and relative-complement algebra of §III.
//   - Computation representation: actor actions, the Φ cost function,
//     sequential computations Γ and distributed computations (Λ, s, d)
//     with their simple/complex resource requirements (§IV).
//   - The logic: system states S = (Θ, ρ, t), the seven labeled
//     transition rules, computation paths, well-formed formulas and the
//     satisfaction semantics of Figure 1 (§V).
//   - Constructive decision procedures for Theorems 2–4, returning
//     witness schedules that an independent verifier and a discrete-event
//     simulator can check.
//   - An open-system simulation harness: workload and churn generators,
//     admission-control policies (ROTA and baselines), and two execution
//     models (plan-following and uncoordinated EDF).
//
// # Quickstart
//
//	theta := rota.NewSet(
//	    rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("l1"), rota.NewInterval(0, 20)),
//	    rota.NewTerm(rota.UnitsRate(1), rota.Link("l1", "l2"), rota.NewInterval(4, 12)),
//	)
//	comp, _ := rota.Realize(rota.PaperCost(), "a1",
//	    rota.Evaluate("a1", "l1", 1),          // 8 cpu
//	    rota.Send("a1", "l1", "a2", "l2", 1),  // 4 network l1→l2
//	    rota.Evaluate("a1", "l1", 1),          // 8 cpu
//	)
//	plan, err := rota.MeetDeadline(theta, comp, 0, 20)
//	if err != nil {
//	    // infeasible: the deadline cannot be assured
//	} else {
//	    fmt.Println("feasible, finishing by", plan.Finish)
//	}
//
// All time is discrete (int64 ticks of the paper's Δt); all rates are
// fixed-point milli-units per tick.
package rota

import (
	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ---- Time and intervals ----

// Time is a discrete point in time measured in ticks of Δt.
type Time = interval.Time

// Interval is a half-open time interval [Start, End).
type Interval = interval.Interval

// Relation is one of the thirteen Allen interval-algebra relations
// (Table I).
type Relation = interval.Relation

// RelSet is a set of Allen relations (a constraint-network label).
type RelSet = interval.RelSet

// NewInterval returns the interval [start, end).
func NewInterval(start, end Time) Interval {
	return interval.New(start, end)
}

// RelationBetween classifies two non-empty intervals per Table I.
func RelationBetween(a, b Interval) Relation {
	return interval.RelationBetween(a, b)
}

// ComposeRelations returns the possible relations between A and C given
// rel(A,B) and rel(B,C).
func ComposeRelations(r1, r2 Relation) RelSet {
	return interval.Compose(r1, r2)
}

// ---- Resources (§III) ----

// Rate is a resource rate in milli-units per tick.
type Rate = resource.Rate

// Quantity is an amount of resource (rate integrated over ticks).
type Quantity = resource.Quantity

// Location names a node.
type Location = resource.Location

// LocatedType is the paper's ξ: a resource kind plus spatial information.
type LocatedType = resource.LocatedType

// Term is a resource term [r]_ξ^τ.
type Term = resource.Term

// Set is a resource set Θ kept in simplified normal form.
type Set = resource.Set

// Amount is a required quantity [q]_ξ of a located type.
type Amount = resource.Amount

// Amounts maps located types to required quantities: Φ's value for one
// action, which a Step carries.
type Amounts = resource.Amounts

// Needs is a requirement's amounts as a sorted run, one entry per
// located type: what a Simple requirement and a phase carry.
type Needs = resource.Needs

// UnitsRate converts whole units per tick to a Rate.
func UnitsRate(u int64) Rate {
	return resource.FromUnits(u)
}

// UnitsQty converts whole units to a Quantity.
func UnitsQty(u int64) Quantity {
	return resource.QuantityFromUnits(u)
}

// CPUAt returns ⟨cpu, loc⟩.
func CPUAt(loc Location) LocatedType {
	return resource.CPUAt(loc)
}

// Link returns ⟨network, src → dst⟩.
func Link(src, dst Location) LocatedType {
	return resource.Link(src, dst)
}

// NewTerm builds a resource term.
func NewTerm(rate Rate, lt LocatedType, span Interval) Term {
	return resource.NewTerm(rate, lt, span)
}

// NewSet builds a normalized resource set.
func NewSet(terms ...Term) Set {
	return resource.NewSet(terms...)
}

// ParseSet parses the compact "rate:kind@loc:(s,e),..." syntax.
func ParseSet(s string) (Set, error) {
	return resource.ParseSet(s)
}

// AmountOf builds an Amount from whole units.
func AmountOf(units int64, lt LocatedType) Amount {
	return resource.AmountOf(units, lt)
}

// NewNeeds sums amounts into a requirement's sorted run.
func NewNeeds(list ...Amount) Needs {
	return resource.NewNeeds(list...)
}

// ---- Computations (§IV) ----

// ActorName uniquely identifies an actor.
type ActorName = compute.ActorName

// Action is a single actor action γ.
type Action = compute.Action

// Computation is a sequential actor computation Γ.
type Computation = compute.Computation

// Distributed is the computation triple (Λ, s, d).
type Distributed = compute.Distributed

// Simple is a simple resource requirement ρ(γ, s, d).
type Simple = compute.Simple

// Concurrent is the requirement ρ(Λ, s, d) of a distributed computation.
type Concurrent = compute.Concurrent

// Send builds a send action.
func Send(a ActorName, loc Location, target ActorName, dest Location, size int64) Action {
	return compute.Send(a, loc, target, dest, size)
}

// Evaluate builds an evaluate action.
func Evaluate(a ActorName, loc Location, weight int64) Action {
	return compute.Evaluate(a, loc, weight)
}

// Create builds a create action.
func Create(a ActorName, loc Location, child ActorName) Action {
	return compute.Create(a, loc, child)
}

// Migrate builds a migrate action.
func Migrate(a ActorName, loc, dest Location, size int64) Action {
	return compute.Migrate(a, loc, dest, size)
}

// NewDistributed builds a distributed computation (Λ, s, d).
func NewDistributed(name string, start, deadline Time, actors ...Computation) (Distributed, error) {
	return compute.NewDistributed(name, start, deadline, actors...)
}

// ConcurrentOf derives a distributed computation's requirement.
func ConcurrentOf(d Distributed) Concurrent {
	return compute.ConcurrentOf(d)
}

// ---- Interacting actors (§VI extension) ----

// Workflow is a computation whose actors interact: each actor's
// computation is segmented at its blocking waits, and wait edges couple
// segments across actors (the paper's §VI sketch, implemented).
type Workflow = compute.Workflow

// Segmented is one actor's computation split into ordered segments.
type Segmented = compute.Segmented

// SegmentRef identifies a segment of an actor.
type SegmentRef = compute.SegmentRef

// WaitEdge says the To segment waits for the From segment to complete.
type WaitEdge = compute.WaitEdge

// WorkflowPlan is a witness schedule for a workflow.
type WorkflowPlan = schedule.WorkflowPlan

// NewWorkflow validates and builds a workflow.
func NewWorkflow(name string, start, deadline Time, actors []Segmented, edges []WaitEdge) (Workflow, error) {
	return compute.NewWorkflow(name, start, deadline, actors, edges)
}

// FeasibleWorkflow searches for a witness schedule for a workflow.
func FeasibleWorkflow(theta Set, w Workflow) (WorkflowPlan, error) {
	return schedule.FeasibleWorkflow(theta, w)
}

// VerifyWorkflowPlan independently checks a workflow plan.
func VerifyWorkflowPlan(theta Set, w Workflow, plan WorkflowPlan) error {
	return schedule.VerifyWorkflow(theta, w, plan)
}

// ---- Cost model Φ ----

// CostModel is the paper's Φ: action → required resource amounts.
type CostModel = cost.Model

// PaperCost returns Φ with the paper's worked constants (§IV-A).
func PaperCost() CostModel {
	return cost.Paper()
}

// Realize costs a list of actions into a sequential computation.
func Realize(m CostModel, actor ActorName, actions ...Action) (Computation, error) {
	return cost.Realize(m, actor, actions...)
}

// ---- The logic (§V) ----

// State is the system state S = (Θ, ρ, t).
type State = core.State

// Transition is a labeled transition between states.
type Transition = core.Transition

// Violation records a broken commitment (possible only under reneging
// resources).
type Violation = core.Violation

// Path is a computation path σ.
type Path = core.Path

// RunResult is a materialized path with completion and violation info.
type RunResult = core.RunResult

// Formula is a ROTA well-formed formula ψ.
type Formula = core.Formula

// The formula constructors of the grammar (§V-B). And is an extension.
type (
	SatisfySimple     = core.SatisfySimple
	SatisfyConcurrent = core.SatisfyConcurrent
	Not               = core.Not
	And               = core.And
)

// NewState builds an initial state (Θ, ∅, t).
func NewState(theta Set, t Time) State {
	return core.NewState(theta, t)
}

// Acquire applies the resource acquisition rule.
func Acquire(s State, join Set) (State, Transition) {
	return core.Acquire(s, join)
}

// RunState evolves a state to the horizon (or to completion when horizon
// ≤ start), materializing the committed computation path.
func RunState(initial State, horizon, dt Time) RunResult {
	return core.Run(initial, horizon, dt)
}

// Eval implements M, σ, t ⊨ ψ at path position i (Figure 1).
func Eval(p *Path, i int, f Formula) (bool, error) {
	return core.Eval(p, i, f)
}

// ---- Decision procedures (Theorems 2–4) ----

// Plan is a witness schedule: per-phase resource allocations and each
// actor's break points t1 … t_m of Theorem 2, which Plan.BreaksOf
// looks up by actor name.
type Plan = schedule.Plan

// MeetDeadline decides Theorems 2–3 for a sequential computation,
// returning the witness plan on success.
func MeetDeadline(theta Set, comp Computation, start, deadline Time) (Plan, error) {
	return core.MeetDeadline(theta, comp, start, deadline)
}

// Admit runs the full Theorem-4 pipeline: decide, then accommodate.
func Admit(s State, dist Distributed) (State, Plan, error) {
	return core.Admit(s, dist)
}

// Repair re-plans a commitment broken by reneging resources against the
// remaining free capacity, within its original deadline (the Φ
// footnote's "revised as necessary").
func Repair(s State, name string, missed []Violation) (State, error) {
	return core.Repair(s, name, missed)
}

// VerifyPlan independently checks a plan against resources and a
// requirement.
func VerifyPlan(theta Set, req Concurrent, plan Plan) error {
	return schedule.Verify(theta, req, plan)
}

// ---- Tree exploration (Definition 2) ----

// Explorer materializes the tree of possible system evolutions and
// answers path-quantified queries ("is there an evolution on which ψ
// holds?") by bounded depth-first search over admit/defer choices.
type Explorer = core.Explorer

// ---- Simulation harness ----

// Policy is an admission-control policy.
type Policy = admission.Policy

// SimConfig parameterizes a simulation run.
type SimConfig = sim.Config

// SimResult aggregates a simulation run.
type SimResult = sim.Result

// SimExecutor selects the execution model.
type SimExecutor = sim.Executor

// The execution models.
const (
	ExecPlanned   = sim.Planned
	ExecGreedyEDF = sim.GreedyEDF
)

// WorkloadConfig parameterizes the synthetic job generator.
type WorkloadConfig = workload.Config

// Job is a generated computation with its arrival time.
type Job = workload.Job

// ChurnConfig parameterizes the resource churn generator.
type ChurnConfig = churn.Config

// ChurnTrace is a generated join/renege trace.
type ChurnTrace = churn.Trace

// RotaPolicy returns the paper's Theorem-4 admission control.
func RotaPolicy() Policy {
	return &admission.Rota{}
}

// NaiveTotalPolicy returns the aggregate-quantity baseline.
func NaiveTotalPolicy() Policy {
	return admission.NewNaiveTotal()
}

// AlwaysAdmitPolicy returns the no-reasoning baseline.
func AlwaysAdmitPolicy() Policy {
	return admission.AlwaysAdmit{}
}

// EDFFeasiblePolicy returns the EDF forward-simulation baseline.
func EDFFeasiblePolicy() Policy {
	return admission.NewEDFFeasible()
}

// GenerateWorkload produces a reproducible job sequence.
func GenerateWorkload(cfg WorkloadConfig) ([]Job, error) {
	return workload.Generate(cfg)
}

// GenerateChurn produces a reproducible churn trace.
func GenerateChurn(cfg ChurnConfig) (ChurnTrace, error) {
	return churn.Generate(cfg)
}

// Simulate executes one open-system simulation run.
func Simulate(cfg SimConfig, jobs []Job, trace ChurnTrace) (SimResult, error) {
	return sim.Run(cfg, jobs, trace)
}
