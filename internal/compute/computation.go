package compute

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Step is one action of an actor computation together with the resources
// Φ says it requires, as a map: a cost model or decoder writes it by key,
// and the requirement built from it is a sorted run (Phase, Simple).
// Steps are the unit of sequential ordering: a step is a "possible
// action" (Definition 1) only when every earlier step has completed.
type Step struct {
	Action  Action
	Amounts resource.Amounts
}

// TotalQty returns the summed required quantity across types.
func (s Step) TotalQty() resource.Quantity {
	return s.Amounts.Total()
}

// Computation is a sequential actor computation Γ: the actions one actor
// will take, in order, each reified as its resource requirements.
type Computation struct {
	Actor ActorName
	Steps []Step
}

// NewComputation builds a computation after validating every action
// belongs to the named actor.
func NewComputation(actor ActorName, steps ...Step) (Computation, error) {
	for i, st := range steps {
		if err := st.Action.Validate(); err != nil {
			return Computation{}, fmt.Errorf("compute: step %d: %w", i, err)
		}
		if st.Action.Actor != actor {
			return Computation{}, fmt.Errorf("compute: step %d belongs to %s, not %s",
				i, st.Action.Actor, actor)
		}
	}
	return Computation{Actor: actor, Steps: steps}, nil
}

// TotalAmounts sums required amounts over all steps (order-insensitive
// aggregate — what the NaiveTotal baseline reasons with).
func (c Computation) TotalAmounts() resource.Amounts {
	out := make(resource.Amounts)
	for _, st := range c.Steps {
		out.Merge(st.Amounts)
	}
	return out
}

// TotalQty returns the summed required quantity across steps and types.
func (c Computation) TotalQty() resource.Quantity {
	var total resource.Quantity
	for _, st := range c.Steps {
		total += st.TotalQty()
	}
	return total
}

// Phases groups maximal runs of consecutive steps whose requirements use
// one identical located type, following §IV-B2: "a sequence of actions
// which require the same single type of resource need not be broken down
// into multiple subcomputations". Steps needing several types (e.g.
// migrate) form single-step phases. The result is the subcomputation
// sequence Γ1, Γ2, …, Γm of the complex resource requirement; every
// phase's amounts are a run in one backing array.
func (c Computation) Phases() []Phase {
	phases, amounts := c.phaseBounds()
	out, _ := c.appendPhases(make([]Phase, 0, phases), make([]resource.Amount, 0, amounts))
	return out
}

// phaseBounds bounds what appendPhases adds: at most one phase and
// len(Amounts) entries per step that requires anything.
func (c Computation) phaseBounds() (phases, amounts int) {
	for _, st := range c.Steps {
		if !st.Amounts.Empty() {
			phases++
			amounts += len(st.Amounts)
		}
	}
	return phases, amounts
}

// appendPhases appends c's phases to phases, their amounts to buf, and
// returns both. Only phases appended by this call are merged into, so
// several computations' phases can share the two arrays. A merge adds
// as Amounts.Add does: a step's zero quantity leaves the phase as it
// is, and a sum that is not positive empties it.
func (c Computation) appendPhases(phases []Phase, buf []resource.Amount) ([]Phase, []resource.Amount) {
	first := len(phases)
	for _, st := range c.Steps {
		if st.Amounts.Empty() {
			continue // a free action imposes no requirement
		}
		lt, single := st.Amounts.SingleType()
		if n := len(phases); single && n > first {
			last := &phases[n-1]
			if prevLT, prevSingle := last.Amounts.SingleType(); prevSingle && prevLT == lt {
				if q := st.Amounts[lt]; q != 0 {
					if sum := last.Amounts[0].Qty + q; sum > 0 {
						last.Amounts[0].Qty = sum
					} else {
						last.Amounts = nil
					}
				}
				continue
			}
		}
		from := len(buf)
		buf = resource.AppendNeeds(buf, st.Amounts)
		phases = append(phases, Phase{Amounts: buf[from:len(buf):len(buf)]})
	}
	return phases, buf
}

// String renders the computation as "Γ(a1): send; evaluate; …".
func (c Computation) String() string {
	names := make([]string, len(c.Steps))
	for i, st := range c.Steps {
		names[i] = st.Action.Op.String()
	}
	return fmt.Sprintf("Γ(%s): %s", c.Actor, strings.Join(names, "; "))
}

// Phase is one subcomputation Γi of a complex requirement: the aggregate
// required amounts of a consecutive group of steps, as a sorted run. The
// phase must receive its amounts within whatever subinterval the schedule
// assigns it, after all earlier phases have completed.
type Phase struct {
	Amounts resource.Needs
}

// Distributed is the paper's computation triple (Λ, s, d): a set of
// independent concurrent actor computations, an earliest start time and a
// deadline. "The computation does not seek to begin before s and seeks to
// be completed before d."
type Distributed struct {
	Name     string
	Actors   []Computation
	Start    interval.Time
	Deadline interval.Time
}

// NewDistributed validates and builds a distributed computation.
func NewDistributed(name string, start, deadline interval.Time, actors ...Computation) (Distributed, error) {
	if deadline <= start {
		return Distributed{}, fmt.Errorf("compute: %s has empty execution window (%d, %d)", name, start, deadline)
	}
	seen := make(map[ActorName]bool, len(actors))
	for _, a := range actors {
		if seen[a.Actor] {
			return Distributed{}, fmt.Errorf("compute: %s has duplicate actor %s", name, a.Actor)
		}
		seen[a.Actor] = true
	}
	return Distributed{Name: name, Actors: actors, Start: start, Deadline: deadline}, nil
}

// Window returns the execution window (s, d).
func (d Distributed) Window() interval.Interval {
	return interval.New(d.Start, d.Deadline)
}

// TotalQty returns the summed required quantity across actors, steps and
// types — the job's total work — without building a merged map.
func (d Distributed) TotalQty() resource.Quantity {
	var total resource.Quantity
	for _, a := range d.Actors {
		total += a.TotalQty()
	}
	return total
}

// TotalAmounts aggregates requirements across all actors.
func (d Distributed) TotalAmounts() resource.Amounts {
	out := make(resource.Amounts)
	for _, a := range d.Actors {
		out.Merge(a.TotalAmounts())
	}
	return out
}

// Locations returns the computation's resource footprint: the sorted,
// distinct locations its steps consume from. A directed link counts at
// its source, which is where the cost model charges it — and where the
// daemon shards and a cluster assigns ownership of it. It is one
// allocation, sized by counting the steps' types first.
func (d Distributed) Locations() []resource.Location {
	n := 0
	for _, a := range d.Actors {
		for _, st := range a.Steps {
			n += len(st.Amounts)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]resource.Location, 0, n)
	for _, a := range d.Actors {
		for _, st := range a.Steps {
			for lt := range st.Amounts {
				out = append(out, lt.Loc)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders "(Λ name: 2 actors, s=0, d=20)".
func (d Distributed) String() string {
	return fmt.Sprintf("(Λ %s: %d actors, s=%d, d=%d)", d.Name, len(d.Actors), d.Start, d.Deadline)
}
