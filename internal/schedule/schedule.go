// Package schedule implements the constructive decision procedures behind
// the paper's theorems: given available resources Θ and the resource
// requirements of a computation, it searches for the break points
// t1 … t_{m-1} whose existence Theorem 2 quantifies over, and for
// concurrent computations the per-actor consumption schedules whose
// combination Theorem 4's path-composition argument relies on.
//
// The procedures are constructive: success returns a Plan — a concrete
// witness assigning every phase a set of resource-term allocations — that
// can be independently verified against Θ and then executed by the
// simulator. This is what lets experiment E3 validate checker soundness
// against ground truth.
package schedule

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// ErrInfeasible is returned when no schedule exists (or none was found,
// for the heuristic multi-actor search; see Concurrent).
var ErrInfeasible = errors.New("schedule: infeasible")

// Infeasible is the refusal Concurrent and Single return: the one
// obligation that failed. When OrdersTried is zero it is a witness
// failure — the actor's phase could not gather Need of Type within
// Window, which for a single actor certifies that
// Θ.QuantityWithin(Type, Window) < Need. Otherwise the exhaustive
// search tried OrdersTried actor orderings and none succeeded.
// errors.Is(err, ErrInfeasible) holds for every *Infeasible.
type Infeasible struct {
	Actor       compute.ActorName
	Phase       int
	Type        resource.LocatedType
	Need        resource.Quantity
	Window      interval.Interval
	OrdersTried int
}

func (e *Infeasible) Error() string {
	if e.OrdersTried > 0 {
		return fmt.Sprintf("%v: no actor ordering of %d tried succeeded", ErrInfeasible, e.OrdersTried)
	}
	return fmt.Sprintf("%v: actor %s phase %d needs %v of %v in %v",
		ErrInfeasible, e.Actor, e.Phase, e.Need, e.Type, e.Window)
}

// Is makes errors.Is(err, ErrInfeasible) hold.
func (e *Infeasible) Is(target error) bool { return target == ErrInfeasible }

// Allocation is one planned consumption: the given actor's phase consumes
// Term.Rate of Term.Type throughout Term.Span.
type Allocation struct {
	Actor compute.ActorName
	Phase int
	Term  resource.Term
}

// Plan is a witness schedule for a computation's requirements.
type Plan struct {
	// Allocs lists every planned consumption, ordered by actor then
	// phase.
	Allocs []Allocation
	// Breaks holds each actor's phase completion times, one entry per
	// actor in the order the actors were scheduled; BreaksOf looks one
	// up by name.
	Breaks []ActorBreaks
	// Finish is the time by which every actor completes.
	Finish interval.Time
}

// ActorBreaks is one actor's phase completion times in a Plan: the
// paper's t1 … t_{m-1} plus the final completion time t_m. A plan's
// break times share one backing array.
type ActorBreaks struct {
	Actor compute.ActorName
	Times []interval.Time
}

// BreaksOf returns the phase completion times of the named actor, nil
// when the plan schedules no actor of that name.
func (p Plan) BreaksOf(actor compute.ActorName) []interval.Time {
	for _, b := range p.Breaks {
		if b.Actor == actor {
			return b.Times
		}
	}
	return nil
}

// Demand returns the total planned consumption as a resource set. A valid
// plan's demand is dominated by the available resources.
func (p Plan) Demand() resource.Set {
	var s resource.Set
	for _, a := range p.Allocs {
		s.Add(a.Term)
	}
	return s
}

// Single decides Theorems 1 and 2 for one actor: can the sequential
// computation with complex requirement req be completed within its window
// using Θ alone? On success it returns the earliest-finish witness plan.
//
// The procedure is exact for a single actor: each phase greedily consumes
// all remaining availability of its required types as early as possible,
// and since phases are strictly ordered and consumption is not
// rate-capped, finishing each phase earliest can only enlarge the
// feasible region of its successors.
func Single(theta resource.Set, req compute.Complex) (Plan, error) {
	return tryOrder(theta, []compute.Complex{req})
}

// maxPermutations bounds the actor orderings the exhaustive search
// visits: 6!.
const maxPermutations = 720

// Concurrent decides accommodation for a multi-actor computation against
// Θ: it schedules actors one at a time — the paper's "try to accommodate
// one more computation at a time" — subtracting each actor's planned
// consumption before scheduling the next.
//
// A returned plan is always a genuine witness (sound). Without
// exhaustive, only the largest-demand-first heuristic order is tried: it
// is sound but not complete under contention. With exhaustive, a failed
// heuristic pass goes on to try actor orderings until one succeeds (at
// most maxPermutations of them), restoring completeness at factorial
// cost; failure within that budget still returns ErrInfeasible, so an
// infeasibility verdict is definitive only for single-actor inputs or an
// unexhausted permutation budget.
func Concurrent(theta resource.Set, req compute.Concurrent, exhaustive bool) (Plan, error) {
	actors := make([]compute.Complex, len(req.Actors))
	copy(actors, req.Actors)
	// Heuristic order: largest total demand first, so the bulkiest actor
	// gets first pick of scarce capacity.
	slices.SortStableFunc(actors, func(a, b compute.Complex) int { return cmp.Compare(b.Total(), a.Total()) })

	if plan, err := tryOrder(theta, actors); err == nil {
		return plan, nil
	} else if !exhaustive {
		return Plan{}, err
	}
	var found *Plan
	tried := 0
	permute(actors, func(order []compute.Complex) bool {
		tried++
		if tried > maxPermutations {
			return false
		}
		if plan, err := tryOrder(theta, order); err == nil {
			found = &plan
			return false
		}
		return true
	})
	if found == nil {
		return Plan{}, &Infeasible{OrdersTried: tried}
	}
	return *found, nil
}

// tryOrder schedules the actors in the given order. The search reads Θ
// only for the located types the actors require and only inside their
// windows, so it consumes from an overlay holding exactly that slice —
// each type clamped once to the window — and never copies, or writes to,
// Θ itself. The plan is built in runs sized from the requirement: one
// entry per actor, one break time per phase, all in one array, and room
// for one allocation per need — a need met inside one stretch of
// availability, as a loaded ledger's nearly all are, takes one; one that
// drains more stretches grows the run.
func tryOrder(theta resource.Set, order []compute.Complex) (Plan, error) {
	var window interval.Interval
	// The distinct required types, gathered on the stack: a requirement
	// names few.
	var buf [16]resource.LocatedType
	types := buf[:0]
	phases, needs := 0, 0
	for _, actor := range order {
		window = window.Hull(actor.Window)
		phases += len(actor.Phases)
		for _, phase := range actor.Phases {
			needs += len(phase.Amounts)
			for _, need := range phase.Amounts {
				if !slices.Contains(types, need.Type) {
					types = append(types, need.Type)
				}
			}
		}
	}
	working := theta.Restrict(window, types...)
	plan := Plan{
		Allocs: make([]Allocation, 0, needs),
		Breaks: make([]ActorBreaks, len(order)),
	}
	times := make([]interval.Time, phases)
	for i, actor := range order {
		n := len(actor.Phases)
		plan.Breaks[i] = ActorBreaks{Actor: actor.Actor, Times: times[:n:n]}
		if err := scheduleActor(&working, actor, order[i+1:], &plan, times[:n:n]); err != nil {
			return Plan{}, err
		}
		if n > 0 && times[n-1] > plan.Finish {
			plan.Finish = times[n-1]
		}
		times = times[n:]
	}
	return plan, nil
}

// permute visits permutations of actors until visit returns false.
func permute(actors []compute.Complex, visit func([]compute.Complex) bool) {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(actors) {
			return visit(actors)
		}
		for i := k; i < len(actors); i++ {
			actors[k], actors[i] = actors[i], actors[k]
			cont := rec(k + 1)
			actors[k], actors[i] = actors[i], actors[k]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// scheduleActor plans one actor's phases against the working set,
// appending its allocations to plan.Allocs and phase i's completion time
// to breaks[i], and consuming what it allocates wherever a later
// allocation of the same type — a later phase of req, or an actor in
// later — will read it. The actor's phases run back to back: phase i
// begins the moment phase i−1 completes.
func scheduleActor(working *resource.Set, req compute.Complex, later []compute.Complex, plan *Plan, breaks []interval.Time) error {
	cursor := req.Window.Start
	for phaseIdx, phase := range req.Phases {
		completion := cursor
		// Allocate each required type independently from the cursor; the
		// phase completes when its slowest type is fully delivered.
		for _, amount := range phase.Amounts {
			lt, need := amount.Type, amount.Qty
			window := interval.New(cursor, req.Window.End)
			from := len(plan.Allocs)
			allocs, doneAt, err := earliestAllocations(plan.Allocs, *working, req.Actor, phaseIdx, lt, need, window)
			if err != nil {
				return &Infeasible{Actor: req.Actor, Phase: phaseIdx, Type: lt, Need: need, Window: window}
			}
			plan.Allocs = allocs
			// A consumption nothing reads again would cost a copy of the
			// type's whole profile for nothing.
			if readLater(lt, req.Phases[phaseIdx+1:], later) {
				if consumeErr := consume(working, allocs[from:]); consumeErr != nil {
					return fmt.Errorf("schedule: internal: allocation exceeds availability: %v", consumeErr)
				}
			}
			if doneAt > completion {
				completion = doneAt
			}
		}
		cursor = completion
		breaks[phaseIdx] = cursor
	}
	return nil
}

// consume takes one need's allocations out of the working set in one
// splice, their terms gathered on the stack.
func consume(working *resource.Set, allocs []Allocation) error {
	var buf [8]resource.Term
	terms := buf[:0]
	for _, a := range allocs {
		terms = append(terms, a.Term)
	}
	return working.ConsumeTerms(terms)
}

// readLater reports whether any of phases, or any phase of the actors in
// later, requires lt.
func readLater(lt resource.LocatedType, phases []compute.Phase, later []compute.Complex) bool {
	for _, ph := range phases {
		if _, ok := ph.Amounts.Lookup(lt); ok {
			return true
		}
	}
	for _, actor := range later {
		if readLater(lt, actor.Phases, nil) {
			return true
		}
	}
	return false
}

// earliestAllocations greedily accumulates need units of lt starting at
// window.Start, consuming the full available rate of every tick until the
// final tick, which consumes only the remainder. It appends the
// allocations — in time order and disjoint, each the given actor's phase
// — to allocs and returns them with the completion time (the tick after
// the last consumption). One walk over the window's segments finds where
// the need is met, a second appends the terms, into allocs' spare room
// when it has enough.
func earliestAllocations(allocs []Allocation, theta resource.Set, actor compute.ActorName, phase int, lt resource.LocatedType, need resource.Quantity, window interval.Interval) ([]Allocation, interval.Time, error) {
	if need <= 0 {
		return allocs, window.Start, nil
	}
	// The need drains `full` segments whole, then takes wholeTicks of the
	// next one at its full rate and what remains in one partial-rate tick.
	full, met := 0, false
	var wholeTicks interval.Time
	remaining := need
	theta.EachSegment(lt, window, func(span interval.Interval, rate resource.Rate) bool {
		if capacity := resource.Quantity(rate) * resource.Quantity(span.Len()); remaining > capacity {
			full++
			remaining -= capacity
			return true
		}
		wholeTicks = interval.Time(remaining / resource.Quantity(rate))
		remaining -= resource.Quantity(rate) * resource.Quantity(wholeTicks)
		met = true
		return false
	})
	if !met {
		return allocs, 0, ErrInfeasible
	}
	n := full
	if wholeTicks > 0 {
		n++
	}
	if remaining > 0 {
		n++
	}
	if len(allocs)+n > cap(allocs) {
		// Grown by hand rather than by slices.Grow, whose temporary the
		// race detector's instrumentation makes a second allocation.
		grown := make([]Allocation, len(allocs), max(len(allocs)+n, 2*cap(allocs)))
		allocs = grown[:copy(grown, allocs)]
	}
	add := func(rate resource.Rate, span interval.Interval) {
		allocs = append(allocs, Allocation{Actor: actor, Phase: phase, Term: resource.Term{Rate: rate, Type: lt, Span: span}})
	}
	var doneAt interval.Time
	taken := 0
	theta.EachSegment(lt, window, func(span interval.Interval, rate resource.Rate) bool {
		if taken < full {
			taken++
			add(rate, span)
			return true
		}
		doneAt = span.Start + wholeTicks
		if wholeTicks > 0 {
			add(rate, interval.New(span.Start, doneAt))
		}
		if remaining > 0 {
			add(resource.Rate(remaining), interval.New(doneAt, doneAt+1))
			doneAt++
		}
		return false
	})
	return allocs, doneAt, nil
}

// Verify independently checks a plan against the resources and the
// requirement it claims to witness. It confirms that (1) Θ dominates the
// plan's total demand, (2) every actor's allocations respect its window
// and phase order, and (3) every phase receives its full required
// amounts. A nil error means the plan is a valid Theorem-2/Theorem-4
// witness.
func Verify(theta resource.Set, req compute.Concurrent, plan Plan) error {
	if !theta.Dominates(plan.Demand()) {
		return errors.New("schedule: plan demand exceeds available resources")
	}
	byActor := make(map[compute.ActorName][]Allocation)
	for _, a := range plan.Allocs {
		byActor[a.Actor] = append(byActor[a.Actor], a)
	}
	for _, actor := range req.Actors {
		breaks := plan.BreaksOf(actor.Actor)
		if len(actor.Phases) == 0 {
			continue
		}
		if len(breaks) != len(actor.Phases) {
			return fmt.Errorf("schedule: actor %s has %d breaks for %d phases",
				actor.Actor, len(breaks), len(actor.Phases))
		}
		prev := actor.Window.Start
		for i, phase := range actor.Phases {
			end := breaks[i]
			if end < prev || end > actor.Window.End {
				return fmt.Errorf("schedule: actor %s phase %d boundary %d outside (%d,%d)",
					actor.Actor, i, end, prev, actor.Window.End)
			}
			got := make(resource.Amounts)
			for _, a := range byActor[actor.Actor] {
				if a.Phase != i {
					continue
				}
				if !interval.New(prev, end).ContainsInterval(a.Term.Span) {
					return fmt.Errorf("schedule: actor %s phase %d allocation %v escapes subinterval (%d,%d)",
						actor.Actor, i, a.Term, prev, end)
				}
				got.Add(resource.Amount{Qty: a.Term.Quantity(), Type: a.Term.Type})
			}
			for _, need := range phase.Amounts {
				if got[need.Type] < need.Qty {
					return fmt.Errorf("schedule: actor %s phase %d got %v of %v, needs %v",
						actor.Actor, i, got[need.Type], need.Type, need.Qty)
				}
			}
			prev = end
		}
	}
	return nil
}
