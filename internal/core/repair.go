package core

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// Repair implements the revision half of the paper's Φ footnote
// ("estimates could be used and revised as necessary") for broken
// commitments: when reneging resources invalidate a plan, the
// commitment's outstanding work — the un-consumed suffix of its plan plus
// whatever the reported violations say went undone — is re-planned
// against the resources still free, within the original deadline.
//
// On success the commitment is replaced by one carrying the revised
// requirement and plan; the rest of ρ is untouched (the repair consumes
// only free resources, preserving Theorem 4's non-interference). On
// failure the state is returned unchanged with an error: the commitment
// is genuinely lost.
func Repair(s State, name string, missed []Violation) (State, error) {
	idx := -1
	for i, c := range s.Commitments {
		if c.Name() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return s, fmt.Errorf("%w: %s", ErrUnknownComputation, name)
	}
	victim := s.Commitments[idx]
	deadline := victim.Req.Window.End
	if s.Now >= deadline {
		return s, ErrDeadlinePassed
	}

	remaining := remainingRequirement(victim, s.Now, missed)
	if remaining.Empty() {
		// Nothing left to do: the commitment is effectively complete.
		next := s.Clone()
		next.Commitments = append(next.Commitments[:idx], next.Commitments[idx+1:]...)
		return next, nil
	}

	// Free resources, excluding the victim's own (now moot) plan.
	others := s.Clone()
	others.Commitments = append(others.Commitments[:idx], others.Commitments[idx+1:]...)
	free, err := others.FreeResources()
	if err != nil {
		return s, fmt.Errorf("core: repair of %s: %w", name, err)
	}
	plan, err := schedule.Concurrent(free, remaining, false)
	if err != nil {
		return s, fmt.Errorf("core: repair of %s: %w", name, err)
	}
	next := s.Clone()
	next.Commitments[idx] = Commitment{Req: remaining, Plan: plan}
	return next, nil
}

// remainingRequirement reconstructs what a damaged commitment still
// needs: for every actor, per plan phase, the quantity of each located
// type scheduled at or after now, plus the quantities the violations
// report as missed before now. Phases keep their relative order so the
// revised requirement preserves the original sequencing constraints.
func remainingRequirement(c Commitment, now interval.Time, missed []Violation) compute.Concurrent {
	type phaseKey struct {
		actor compute.ActorName
		phase int
	}
	needs := make(map[phaseKey]resource.Amounts)
	addNeed := func(actor compute.ActorName, phase int, lt resource.LocatedType, qty resource.Quantity) {
		if qty <= 0 {
			return
		}
		k := phaseKey{actor: actor, phase: phase}
		if needs[k] == nil {
			needs[k] = make(resource.Amounts)
		}
		needs[k].Add(resource.Amount{Qty: qty, Type: lt})
	}
	for _, alloc := range c.Plan.Allocs {
		future := alloc.Term.Span.ClampStart(now)
		addNeed(alloc.Actor, alloc.Phase, alloc.Term.Type,
			resource.Quantity(alloc.Term.Rate)*resource.Quantity(future.Len()))
	}
	for _, v := range missed {
		if v.Computation == c.Name() {
			addNeed(v.Actor, v.Phase, v.Type, v.Missed)
		}
	}

	window := interval.New(now, c.Req.Window.End)
	out := compute.Concurrent{Name: c.Req.Name, Window: window}
	for _, actor := range c.Req.Actors {
		var phases []compute.Phase
		maxPhase := -1
		for k := range needs {
			if k.actor == actor.Actor && k.phase > maxPhase {
				maxPhase = k.phase
			}
		}
		for p := 0; p <= maxPhase; p++ {
			amounts := needs[phaseKey{actor: actor.Actor, phase: p}]
			if amounts.Empty() {
				continue
			}
			phases = append(phases, compute.Phase{Amounts: resource.NeedsOf(amounts)})
		}
		if len(phases) > 0 {
			out.Actors = append(out.Actors, compute.Complex{
				Actor:  actor.Actor,
				Phases: phases,
				Window: window,
			})
		}
	}
	return out
}
