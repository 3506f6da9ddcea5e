package core

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// This file packages the paper's Theorems 2–4 as decision procedures
// (Theorem 1's test is f itself, compute.Simple.SatisfiedBy). Each
// procedure is constructive where the theorem is existential: a
// positive answer comes with a witness (break points and a consumption
// plan) that schedule.Verify and the simulator can check independently.

// MeetDeadline decides Theorems 2 and 3 (Sequential Computation
// Accommodation / Meet Deadline): the sequential computation Γ completes
// by deadline d iff break points t1 … t_{m-1} exist partitioning (s, d)
// so each subcomputation's simple requirement is satisfied on its
// subinterval — equivalently, iff a computation path exists from
// (Θ, ρ(Γ,t,d), t) reaching a final state before d. On success the
// returned plan's Breaks are those break points and the plan is the
// witness path's consumption schedule.
func MeetDeadline(theta resource.Set, comp compute.Computation, start, deadline interval.Time) (schedule.Plan, error) {
	if deadline <= start {
		return schedule.Plan{}, fmt.Errorf("core: empty window (%d,%d)", start, deadline)
	}
	req := compute.ComplexOf(comp, interval.New(start, deadline))
	return schedule.Single(theta, req)
}

// AccommodateAdditional decides Theorem 4 (Accommodate Additional
// Computation): a new computation (Λ, s, d) can be accommodated without
// affecting the computations already executing iff the resources expiring
// on the committed path during (s, d) — the state's free resources —
// satisfy its requirement. On success the caller passes the plan to
// Accommodate, which composes the witness path with the committed one
// (the theorem's path-combination step).
func AccommodateAdditional(s State, dist compute.Distributed) (schedule.Plan, error) {
	if s.Now >= dist.Deadline {
		return schedule.Plan{}, ErrDeadlinePassed
	}
	free, err := s.FreeResources()
	if err != nil {
		return schedule.Plan{}, err
	}
	req := ConcurrentAt(dist, s.Now)
	return schedule.Concurrent(free, req, false)
}

// Admit runs the full Theorem-4 pipeline: decide, then apply the
// accommodation rule. It returns the new state and the admission plan.
func Admit(s State, dist compute.Distributed) (State, schedule.Plan, error) {
	plan, err := AccommodateAdditional(s, dist)
	if err != nil {
		return State{}, schedule.Plan{}, err
	}
	req := ConcurrentAt(dist, s.Now)
	next, _, err := Accommodate(s, req, plan)
	if err != nil {
		return State{}, schedule.Plan{}, err
	}
	return next, plan, nil
}

// ConcurrentAt derives the concurrent requirement of a distributed
// computation as seen at time now: the window's start is pushed to now if
// the computation's earliest start has already passed (it cannot consume
// the past).
func ConcurrentAt(dist compute.Distributed, now interval.Time) compute.Concurrent {
	req := compute.ConcurrentOf(dist)
	if now > req.Window.Start && now < req.Window.End {
		// req is this call's own: clamp it in place.
		req.Window = interval.New(now, req.Window.End)
		for i := range req.Actors {
			req.Actors[i].Window = req.Window
		}
	}
	return req
}
