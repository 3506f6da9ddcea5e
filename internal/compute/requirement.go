package compute

import (
	"fmt"
	"strings"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Simple is the paper's simple resource requirement ρ(γ, s, d) =
// [Φ(a,γ)]^(s,d): a total amount of resources required at any time within
// a window. It carries no ordering constraint — that is what Complex adds.
// Its amounts are a sorted run, one entry per located type.
type Simple struct {
	Amounts resource.Needs
	Window  interval.Interval
}

// SatisfiedBy implements the paper's boolean function f(Θ, ρ(γ, s, d)):
// true when the resources of Θ existing within the window provide at
// least the required quantity of every required located type. Θ is given
// as the quantity of each located type it holds within the window — all
// f ever reads of it — so a caller whose pool is a union of sets can sum
// their quantities instead of building the union.
//
// Per the paper this is an aggregate-quantity test: for a single action
// (or a single-type run of actions) having enough total quantity within
// the window guarantees completion, because the action can consume at
// whatever rate is available.
func (r Simple) SatisfiedBy(quantity func(resource.LocatedType) resource.Quantity) bool {
	if r.Window.Empty() {
		return r.Amounts.Empty()
	}
	for _, need := range r.Amounts {
		if quantity(need.Type) < need.Qty {
			return false
		}
	}
	return true
}

// Empty reports whether nothing is required.
func (r Simple) Empty() bool {
	return r.Amounts.Empty()
}

// String renders "ρ{[8]⟨cpu,l1⟩}(0,5)".
func (r Simple) String() string {
	return "ρ" + r.Amounts.String() + r.Window.String()
}

// Complex is the paper's complex resource requirement ρ(Γ, s, d): an
// ordered sequence of subcomputation requirements that must be satisfied
// in consecutive subintervals of the window. The break points t1 … t_{m-1}
// are not fixed here; Theorem 2 asks whether any choice of break points
// works, and the scheduler searches for one.
type Complex struct {
	Actor  ActorName
	Phases []Phase
	Window interval.Interval
}

// ComplexOf derives the complex requirement of an actor computation over
// the window (s, d).
func ComplexOf(c Computation, window interval.Interval) Complex {
	return Complex{Actor: c.Actor, Phases: c.Phases(), Window: window}
}

// Empty reports whether no phase requires anything.
func (r Complex) Empty() bool {
	return len(r.Phases) == 0
}

// Total returns the summed quantity across phases and types.
func (r Complex) Total() resource.Quantity {
	var total resource.Quantity
	for _, ph := range r.Phases {
		total += ph.Amounts.Total()
	}
	return total
}

// String renders "ρ(Γ a1: 3 phases)(0,10)".
func (r Complex) String() string {
	return fmt.Sprintf("ρ(Γ %s: %d phases)%s", r.Actor, len(r.Phases), r.Window)
}

// Concurrent is the requirement ρ(Λ, s, d) of a distributed computation:
// the complex requirements of its actors, all over the same window, to be
// satisfied simultaneously from shared resources.
type Concurrent struct {
	Name   string
	Actors []Complex
	Window interval.Interval
}

// ConcurrentOf derives the requirement of a distributed computation in
// one pass: every actor's phases share one array, and every phase's
// amounts one array of amount entries, so a requirement costs three
// allocations whatever the number of actors, steps and types.
func ConcurrentOf(d Distributed) Concurrent {
	window := d.Window()
	var nPhases, nAmounts int
	for _, a := range d.Actors {
		p, q := a.phaseBounds()
		nPhases += p
		nAmounts += q
	}
	actors := make([]Complex, len(d.Actors))
	phases := make([]Phase, 0, nPhases)
	buf := make([]resource.Amount, 0, nAmounts)
	for i, a := range d.Actors {
		from := len(phases)
		phases, buf = a.appendPhases(phases, buf)
		actors[i] = Complex{Actor: a.Actor, Phases: phases[from:len(phases):len(phases)], Window: window}
	}
	return Concurrent{Name: d.Name, Actors: actors, Window: window}
}

// Empty reports whether no actor requires anything.
func (r Concurrent) Empty() bool {
	for _, a := range r.Actors {
		if !a.Empty() {
			return false
		}
	}
	return true
}

// String renders the requirement with its actor list.
func (r Concurrent) String() string {
	parts := make([]string, len(r.Actors))
	for i, a := range r.Actors {
		parts[i] = string(a.Actor)
	}
	return fmt.Sprintf("ρ(Λ %s: {%s})%s", r.Name, strings.Join(parts, ","), r.Window)
}
