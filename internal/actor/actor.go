// Package actor is the operational substrate: a discrete-time actor
// runtime executing the five actor primitives of §IV-A (send, evaluate,
// create, ready, migrate) by consuming located resources each tick.
//
// The runtime provides the uncoordinated, work-conserving execution model
// the admission baselines are measured under: each tick, available rate
// of every located type is divided among the actors whose current step
// needs it, earliest-deadline-first. This contrasts with the plan-
// following execution of core.Run, where consumption follows the
// admission witness exactly.
package actor

import (
	"fmt"
	"sort"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// Task is one actor's in-flight computation: its remaining steps and the
// progress of the current one. A Task belongs to a job and inherits its
// deadline for scheduling priority.
type Task struct {
	Name     compute.ActorName
	Job      string
	Deadline interval.Time

	steps     []compute.Step
	stepIdx   int
	remaining resource.Amounts
	loc       resource.Location
	doneAt    interval.Time
}

// NewTask builds a task from a costed computation.
func NewTask(job string, comp compute.Computation, deadline interval.Time) *Task {
	t := &Task{
		Name:     comp.Actor,
		Job:      job,
		Deadline: deadline,
		steps:    comp.Steps,
		doneAt:   -1,
	}
	if len(comp.Steps) > 0 {
		t.loc = comp.Steps[0].Action.Loc
	}
	t.loadStep()
	return t
}

// loadStep initializes progress for the current step, skipping free steps
// (they complete instantly, which matches the requirement derivation
// dropping them).
func (t *Task) loadStep() {
	for t.stepIdx < len(t.steps) {
		step := t.steps[t.stepIdx]
		if !step.Amounts.Empty() {
			t.remaining = step.Amounts.Clone()
			return
		}
		t.stepIdx++
	}
	t.remaining = nil
}

// Done reports whether every step has completed.
func (t *Task) Done() bool {
	return t.stepIdx >= len(t.steps)
}

// DoneAt returns the completion tick, or -1 while running.
func (t *Task) DoneAt() interval.Time {
	return t.doneAt
}

// Needs returns the amounts still required to finish the current step.
func (t *Task) Needs() resource.Amounts {
	if t.Done() {
		return nil
	}
	return t.remaining
}

// Feed delivers qty of lt to the current step at time now, returning the
// quantity actually absorbed (zero if the step does not need lt). When
// the step's needs reach zero the step completes, its side effect fires,
// and the next step loads.
func (t *Task) Feed(rt *Runtime, lt resource.LocatedType, qty resource.Quantity, now interval.Time) resource.Quantity {
	if t.Done() || qty <= 0 {
		return 0
	}
	need, ok := t.remaining[lt]
	if !ok || need <= 0 {
		return 0
	}
	used := qty
	if used > need {
		used = need
	}
	t.remaining[lt] = need - used
	if t.remaining[lt] <= 0 {
		delete(t.remaining, lt)
	}
	if len(t.remaining) == 0 {
		t.completeStep(rt, now)
	}
	return used
}

// completeStep fires the completed step's side effect and advances.
func (t *Task) completeStep(rt *Runtime, now interval.Time) {
	step := t.steps[t.stepIdx]
	if rt != nil {
		rt.onStepComplete(t, step, now)
	}
	if step.Action.Op == compute.OpMigrate {
		t.loc = step.Action.Dest
	}
	t.stepIdx++
	t.loadStep()
	if t.Done() && t.doneAt < 0 {
		t.doneAt = now + 1 // completes at the end of the current tick
	}
}

// Message records a completed send: From's message to To became visible
// at tick At.
type Message struct {
	From, To compute.ActorName
	At       interval.Time
	Size     int64
}

// Creation records a completed create.
type Creation struct {
	Parent, Child compute.ActorName
	At            interval.Time
	Loc           resource.Location
}

// Migration records a completed migrate.
type Migration struct {
	Actor    compute.ActorName
	From, To resource.Location
	At       interval.Time
}

// Runtime hosts tasks and executes them tick by tick.
type Runtime struct {
	now   interval.Time
	tasks []*Task
	index map[compute.ActorName]*Task

	// Event logs, exported for inspection.
	Messages   []Message
	Creations  []Creation
	Migrations []Migration

	// OnCreate, if set, returns the computation a newly created actor
	// should run (nil to create an inert actor). It enables dynamic actor
	// topologies beyond pre-declared scripts.
	OnCreate func(parent *Task, child compute.ActorName) *compute.Computation
}

// NewRuntime creates an empty runtime starting at time now.
func NewRuntime(now interval.Time) *Runtime {
	return &Runtime{now: now, index: make(map[compute.ActorName]*Task)}
}

// Now returns the runtime clock.
func (rt *Runtime) Now() interval.Time {
	return rt.now
}

// Spawn adds a task. Actor names must be unique.
func (rt *Runtime) Spawn(t *Task) error {
	if _, dup := rt.index[t.Name]; dup {
		return fmt.Errorf("actor: duplicate actor %s", t.Name)
	}
	rt.tasks = append(rt.tasks, t)
	rt.index[t.Name] = t
	if t.Done() && t.doneAt < 0 {
		t.doneAt = rt.now // all-free script completes immediately
	}
	return nil
}

// Tasks returns all tasks (live and done).
func (rt *Runtime) Tasks() []*Task {
	return rt.tasks
}

// Live returns the tasks still running.
func (rt *Runtime) Live() []*Task {
	var out []*Task
	for _, t := range rt.tasks {
		if !t.Done() {
			out = append(out, t)
		}
	}
	return out
}

// onStepComplete records side effects of finished steps.
func (rt *Runtime) onStepComplete(t *Task, step compute.Step, now interval.Time) {
	switch step.Action.Op {
	case compute.OpSend:
		rt.Messages = append(rt.Messages, Message{
			From: t.Name, To: step.Action.Target, At: now, Size: step.Action.Size,
		})
	case compute.OpCreate:
		child := step.Action.Target
		rt.Creations = append(rt.Creations, Creation{
			Parent: t.Name, Child: child, At: now, Loc: step.Action.Loc,
		})
		if rt.OnCreate != nil {
			if comp := rt.OnCreate(t, child); comp != nil {
				// Child inherits the parent's job and deadline.
				_ = rt.Spawn(NewTask(t.Job, *comp, t.Deadline))
			}
		}
	case compute.OpMigrate:
		rt.Migrations = append(rt.Migrations, Migration{
			Actor: t.Name, From: step.Action.Loc, To: step.Action.Dest, At: now,
		})
	}
}

// Consumption records one task's resource intake during a tick.
type Consumption struct {
	Task compute.ActorName
	Type resource.LocatedType
	Qty  resource.Quantity
}

// TickEDF advances the runtime one tick, dividing the availability in
// avail among live tasks earliest-deadline-first, work-conserving: a task
// takes as much of its current step's needs as the remaining rate allows,
// then the next task takes what is left. Consumed availability is removed
// from avail in place; availability for the elapsed tick then expires.
func (rt *Runtime) TickEDF(avail *resource.Set) []Consumption {
	span := interval.New(rt.now, rt.now+1)
	live := rt.Live()
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].Deadline != live[j].Deadline {
			return live[i].Deadline < live[j].Deadline
		}
		return live[i].Name < live[j].Name
	})
	var consumed []Consumption
	for _, task := range live {
		// Copy the needed types first: Feed mutates the map.
		needs := task.Needs()
		types := needs.Types()
		for _, lt := range types {
			rate := avail.MinRate(lt, span)
			if rate <= 0 {
				continue
			}
			offer := resource.Quantity(rate) // rate × 1 tick
			used := task.Feed(rt, lt, offer, rt.now)
			if used <= 0 {
				continue
			}
			if err := avail.Consume(lt, span, resource.Rate(used)); err != nil {
				// MinRate guaranteed coverage; this is unreachable.
				panic("actor: consume after MinRate check failed: " + err.Error())
			}
			consumed = append(consumed, Consumption{Task: task.Name, Type: lt, Qty: used})
		}
	}
	avail.TrimBefore(rt.now + 1)
	rt.now++
	return consumed
}
