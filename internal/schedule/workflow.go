package schedule

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// WorkflowPlan is the witness schedule for a workflow: allocations tagged
// by segment, each segment's start and completion time, and the overall
// finish.
type WorkflowPlan struct {
	Allocs []WorkflowAllocation
	// StartAt and DoneAt give each segment's scheduled window.
	StartAt map[compute.SegmentRef]interval.Time
	DoneAt  map[compute.SegmentRef]interval.Time
	Finish  interval.Time
}

// WorkflowAllocation is one planned consumption for a segment phase.
type WorkflowAllocation struct {
	Ref   compute.SegmentRef
	Phase int
	Term  resource.Term
}

// Demand returns the total planned consumption.
func (p WorkflowPlan) Demand() resource.Set {
	var s resource.Set
	for _, a := range p.Allocs {
		s.Add(a.Term)
	}
	return s
}

// FeasibleWorkflow searches for a witness schedule for a workflow with
// wait edges (the §VI extension): segments are scheduled in dependency
// order, each starting no earlier than the completion of everything it
// waits for, consuming from a working copy of Θ. A returned plan is a
// genuine witness (sound); as with Concurrent, failure under contention
// is not a proof of infeasibility because segment interleavings are not
// searched exhaustively.
func FeasibleWorkflow(theta resource.Set, w compute.Workflow) (WorkflowPlan, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return WorkflowPlan{}, err
	}
	plan := WorkflowPlan{
		StartAt: make(map[compute.SegmentRef]interval.Time, len(order)),
		DoneAt:  make(map[compute.SegmentRef]interval.Time, len(order)),
	}
	var types []resource.LocatedType
	for _, ref := range order {
		if seg, ok := w.Segment(ref); ok {
			for _, phase := range seg.Phases() {
				for _, need := range phase.Amounts {
					types = append(types, need.Type)
				}
			}
		}
	}
	working := theta.Restrict(interval.New(w.Start, w.Deadline), types...)
	// fill holds one need's allocations, reused from need to need.
	var fill []Allocation
	for _, ref := range order {
		seg, ok := w.Segment(ref)
		if !ok {
			return WorkflowPlan{}, fmt.Errorf("schedule: dangling segment %v", ref)
		}
		start := w.Start
		for _, dep := range w.Dependencies(ref) {
			if done := plan.DoneAt[dep]; done > start {
				start = done
			}
		}
		plan.StartAt[ref] = start
		cursor := start
		for phaseIdx, phase := range seg.Phases() {
			completion := cursor
			for _, amount := range phase.Amounts {
				lt, need := amount.Type, amount.Qty
				var doneAt interval.Time
				fill, doneAt, err = earliestAllocations(fill[:0], working, "", phaseIdx, lt, need, interval.New(cursor, w.Deadline))
				if err != nil {
					return WorkflowPlan{}, fmt.Errorf("%w: segment %v phase %d needs %v of %v in (%d,%d)",
						ErrInfeasible, ref, phaseIdx, need, lt, cursor, w.Deadline)
				}
				if consumeErr := consume(&working, fill); consumeErr != nil {
					return WorkflowPlan{}, fmt.Errorf("schedule: internal: workflow allocation exceeds availability: %v", consumeErr)
				}
				for _, a := range fill {
					plan.Allocs = append(plan.Allocs, WorkflowAllocation{Ref: ref, Phase: phaseIdx, Term: a.Term})
				}
				if doneAt > completion {
					completion = doneAt
				}
			}
			cursor = completion
		}
		plan.DoneAt[ref] = cursor
		if cursor > plan.Finish {
			plan.Finish = cursor
		}
	}
	return plan, nil
}

// VerifyWorkflow independently checks a workflow plan: Θ dominance,
// window containment, precedence between segment windows, and per-phase
// delivery. A nil error means the plan is a valid witness that the
// workflow can meet its deadline.
func VerifyWorkflow(theta resource.Set, w compute.Workflow, plan WorkflowPlan) error {
	if !theta.Dominates(plan.Demand()) {
		return fmt.Errorf("schedule: workflow plan demand exceeds available resources")
	}
	if plan.Finish > w.Deadline {
		return fmt.Errorf("schedule: workflow finishes at %d, after deadline %d", plan.Finish, w.Deadline)
	}
	order, err := w.TopoOrder()
	if err != nil {
		return err
	}
	byRef := make(map[compute.SegmentRef][]WorkflowAllocation)
	for _, a := range plan.Allocs {
		byRef[a.Ref] = append(byRef[a.Ref], a)
	}
	for _, ref := range order {
		seg, _ := w.Segment(ref)
		start, okS := plan.StartAt[ref]
		done, okD := plan.DoneAt[ref]
		if !okS || !okD {
			return fmt.Errorf("schedule: segment %v missing from plan", ref)
		}
		if start < w.Start || done > w.Deadline || done < start {
			return fmt.Errorf("schedule: segment %v window (%d,%d) escapes workflow window", ref, start, done)
		}
		for _, dep := range w.Dependencies(ref) {
			if plan.DoneAt[dep] > start {
				return fmt.Errorf("schedule: segment %v starts at %d before dependency %v completes at %d",
					ref, start, dep, plan.DoneAt[dep])
			}
		}
		window := interval.New(start, done)
		got := make(resource.Amounts)
		for _, a := range byRef[ref] {
			if !window.ContainsInterval(a.Term.Span) && !a.Term.Span.Empty() {
				return fmt.Errorf("schedule: segment %v allocation %v escapes window (%d,%d)",
					ref, a.Term, start, done)
			}
			got.Add(resource.Amount{Qty: a.Term.Quantity(), Type: a.Term.Type})
		}
		for lt, need := range seg.TotalAmounts() {
			if got[lt] < need {
				return fmt.Errorf("schedule: segment %v got %v of %v, needs %v", ref, got[lt], lt, need)
			}
		}
	}
	return nil
}
