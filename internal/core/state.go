// Package core implements ROTA itself (§V of the paper): system states
// S = (Θ, ρ, t), the labeled transition rules that evolve them
// (sequential/concurrent consumption, resource expiration, the general
// rule, resource acquisition, computation accommodation and leave),
// computation paths, the well-formed-formula syntax, the satisfaction
// semantics of Figure 1, and decision procedures for Theorems 1–4.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// Commitment is one accommodated computation: its requirement ρ(Λ, s, d)
// together with the witness plan produced at admission. The remaining
// requirement at any time is derivable from the plan and the clock — the
// paper's per-Δt decrement [q − r×Δt] corresponds to the consumed prefix
// of the plan's allocations.
type Commitment struct {
	Req  compute.Concurrent
	Plan schedule.Plan
}

// Name returns the committed computation's name.
func (c Commitment) Name() string {
	return c.Req.Name
}

// Done reports whether the computation has completed by time now.
func (c Commitment) Done(now interval.Time) bool {
	return now >= c.Plan.Finish
}

// RemainingDemand returns the portion of the plan not yet consumed at
// time now.
func (c Commitment) RemainingDemand(now interval.Time) resource.Set {
	return c.Plan.Demand().Clamp(interval.New(now, interval.Infinity))
}

// allocatesAfter reports whether any of the plan's allocations reaches
// past t. A plan the scheduler built has none once it is Done.
func (c Commitment) allocatesAfter(t interval.Time) bool {
	for _, a := range c.Plan.Allocs {
		if a.Term.Span.End > t {
			return true
		}
	}
	return false
}

// State is the ROTA system state S = (Θ, ρ, t): future available
// resources, accommodated computations, and the current time.
//
// A State is a value. The transition rules return a new one and may
// share Θ and the free view with the state they came from, so a field is
// replaced, never edited in place: assign a new Theta (from Union,
// SubtractSaturating, ...), a new Now or a new Commitments slice, but do
// not call Theta's in-place mutators or write into Commitments' backing
// array on a State that came out of a rule.
type State struct {
	// Theta is the future available resource set Θ, starting from Now.
	Theta resource.Set
	// Commitments is ρ: the computations the system has committed to.
	Commitments []Commitment
	// Now is the current time t.
	Now interval.Time

	// free is Θ_free as the transition rules maintained it, or nil.
	free *freeView
}

// freeView is a state's Θ_free together with the stamp of the state it
// was derived for: the identity of Θ's run, |ρ| and t. Each rule that
// keeps the view valid patches it (Accommodate subtracts the new plan's
// demand, Acquire and Leave union what they return to the pool, a clean
// Tick trims the elapsed step); every other change — a literal State, a
// restored snapshot, a field assigned by hand, Repair, a Tick with
// violations — leaves a stamp that no longer matches, and FreeResources
// recomputes from scratch. A view is never written after it is built,
// so states may share one.
type freeView struct {
	set   resource.Set
	theta resource.Set
	n     int
	now   interval.Time
}

// NewState builds an initial state. Availability before t is trimmed
// immediately (it could never be used).
func NewState(theta resource.Set, t interval.Time) State {
	th := theta.Clone()
	th.TrimBefore(t)
	return State{Theta: th, Now: t}
}

// Clone returns a deep copy of the state. The copy carries no free view.
func (s State) Clone() State {
	out := State{Theta: s.Theta.Clone(), Now: s.Now}
	out.Commitments = append([]Commitment(nil), s.Commitments...)
	return out
}

// Commitment returns the named commitment, if present.
func (s State) Commitment(name string) (Commitment, bool) {
	for _, c := range s.Commitments {
		if c.Name() == name {
			return c, true
		}
	}
	return Commitment{}, false
}

// CommittedDemand returns the union of all commitments' remaining
// demands: the resources already spoken for.
func (s State) CommittedDemand() resource.Set {
	var out resource.Set
	for _, c := range s.Commitments {
		out = out.Union(c.RemainingDemand(s.Now))
	}
	return out
}

// FreeResources returns Θ_free: resources that will expire unused on the
// committed path — Θ minus the committed demand. These are the paper's
// "unwanted resources which will expire unless new computations requiring
// them enter the system", the raw material of Theorem 4.
//
// The result is shared — with Θ itself when ρ is empty, and with the
// view the transition rules maintain otherwise — and must be treated as
// read-only. Only a state whose view's stamp no longer matches pays for
// the subtraction.
func (s State) FreeResources() (resource.Set, error) {
	if len(s.Commitments) == 0 {
		return s.Theta, nil
	}
	if free, ok := s.view(); ok {
		return free, nil
	}
	free, err := s.Theta.Subtract(s.CommittedDemand())
	if err != nil {
		// Committed demand exceeding availability means an earlier churn
		// event invalidated a plan; callers decide how to handle it.
		return resource.Set{}, fmt.Errorf("core: committed demand exceeds availability: %w", err)
	}
	return free, nil
}

// view returns the maintained free view when its stamp matches s.
func (s State) view() (resource.Set, bool) {
	v := s.free
	if v == nil || v.n != len(s.Commitments) || v.now != s.Now || !v.theta.Same(s.Theta) {
		return resource.Set{}, false
	}
	return v.set, true
}

// withView stamps free as s's view.
func (s State) withView(free resource.Set) State {
	s.free = &freeView{set: free, theta: s.Theta, n: len(s.Commitments), now: s.Now}
	return s
}

// String renders "(Θ: 3 terms, ρ: 2 computations, t=7)".
func (s State) String() string {
	return fmt.Sprintf("(Θ: %d terms, ρ: %d computations, t=%d)",
		s.Theta.NumTerms(), len(s.Commitments), s.Now)
}

// TransitionKind classifies a transition with the paper's rule names.
type TransitionKind uint8

// The transition rules of §V-A.
const (
	// KindSequential is the sequential transition rule: exactly one actor
	// consumes one resource over Δt.
	KindSequential TransitionKind = iota + 1
	// KindConcurrent is the concurrent transition rule: several actors
	// consume resources over Δt and nothing expires unused.
	KindConcurrent
	// KindExpire covers the (sequential and concurrent) resource
	// expiration rules: time advances and resources expire unused.
	KindExpire
	// KindGeneral is the general transition rule: some resources are
	// consumed while others expire.
	KindGeneral
	// KindAcquire is the resource acquisition rule (instantaneous).
	KindAcquire
	// KindAccommodate is the computation accommodation rule
	// (instantaneous, requires t < d).
	KindAccommodate
	// KindLeave is the computation leave rule (instantaneous, requires
	// t < s).
	KindLeave
	// KindIdle is a time step in which nothing was available, consumed or
	// expired.
	KindIdle
)

var kindNames = map[TransitionKind]string{
	KindSequential:  "sequential",
	KindConcurrent:  "concurrent",
	KindExpire:      "expire",
	KindGeneral:     "general",
	KindAcquire:     "acquire",
	KindAccommodate: "accommodate",
	KindLeave:       "leave",
	KindIdle:        "idle",
}

// String returns the rule name.
func (k TransitionKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TransitionKind(%d)", uint8(k))
}

// Consumption is one ξ→a element of a transition label: actor a consumed
// rate×Δt of located type ξ.
type Consumption struct {
	Actor compute.ActorName
	Type  resource.LocatedType
	Rate  resource.Rate
}

// Transition is a labeled transition between states.
type Transition struct {
	Kind         TransitionKind
	From, To     interval.Time
	Consumptions []Consumption
	// Expired is the availability that lapsed unused during (From, To).
	Expired resource.Set
	// Joined is the resource set added by an acquisition.
	Joined resource.Set
	// Computation names the computation of an accommodate/leave.
	Computation string
	// Completed names the computations that finished during this step.
	Completed []string
}

// Label renders the transition label, e.g. "⟨cpu,l1⟩→a1, ⟨network,l1→l2⟩→a2".
func (tr Transition) Label() string {
	switch tr.Kind {
	case KindAcquire:
		return "acquire " + tr.Joined.String()
	case KindAccommodate:
		return "ρ(" + tr.Computation + ")"
	case KindLeave:
		return "¬ρ(" + tr.Computation + ")"
	}
	if len(tr.Consumptions) == 0 {
		if tr.Expired.Empty() {
			return "idle"
		}
		return "expire " + tr.Expired.String()
	}
	out := ""
	for i, c := range tr.Consumptions {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s→%s", c.Type, c.Actor)
	}
	return out
}

// Violation records a commitment whose planned consumption could not be
// honored (possible only when resources renege after admission). Phase
// and Missed identify exactly what work went undone, so Repair can fold
// it back into a revised plan.
type Violation struct {
	Computation string
	Actor       compute.ActorName
	Type        resource.LocatedType
	At          interval.Time
	// Phase is the plan phase the missed allocation fed.
	Phase int
	// Missed is the quantity that should have been consumed this step.
	Missed resource.Quantity
}

// Error renders the violation as a message.
func (v Violation) Error() string {
	return fmt.Sprintf("core: commitment %s actor %s missed %v at t=%d",
		v.Computation, v.Actor, v.Type, v.At)
}

// ErrDeadlinePassed is returned by Accommodate when t ≥ d.
var ErrDeadlinePassed = errors.New("core: cannot accommodate a computation whose deadline has passed")

// ErrAlreadyStarted is returned by Leave when t ≥ s.
var ErrAlreadyStarted = errors.New("core: a computation which has already started cannot leave")

// ErrUnknownComputation is returned by Leave for a name not in ρ.
var ErrUnknownComputation = errors.New("core: unknown computation")

// Acquire applies the resource acquisition rule: (Θ, ρ, t) → (Θ ∪ Θjoin,
// ρ, t). Joining resources must carry their departure time in their
// intervals — "if a resource is going to leave the system in the future,
// the time of leaving must be explicitly specified at the time of
// joining". Availability before Now is trimmed since it can never be
// used.
func Acquire(s State, join resource.Set) (State, Transition) {
	usable := join.TrimmedBefore(s.Now)
	next := State{
		Theta:       s.Theta.Union(usable),
		Commitments: append([]Commitment(nil), s.Commitments...),
		Now:         s.Now,
	}
	if free, ok := s.view(); ok {
		next = next.withView(free.PatchUnion(usable))
	}
	return next, Transition{Kind: KindAcquire, From: s.Now, To: s.Now, Joined: usable}
}

// Accommodate applies the computation accommodation rule: (Θ, ρ, t) →
// (Θ, ρ ∪ ρ(Λ,s,d), t), defined only while t < d. The caller provides
// the witness plan (from schedule.Concurrent against the state's free
// resources); Accommodate re-verifies it against the free resources so an
// invalid plan cannot corrupt ρ.
func Accommodate(s State, req compute.Concurrent, plan schedule.Plan) (State, Transition, error) {
	if s.Now >= req.Window.End {
		return State{}, Transition{}, ErrDeadlinePassed
	}
	if _, exists := s.Commitment(req.Name); exists {
		return State{}, Transition{}, fmt.Errorf("core: computation %s already accommodated", req.Name)
	}
	free, err := s.FreeResources()
	if err != nil {
		return State{}, Transition{}, err
	}
	if err := schedule.Verify(free, req, plan); err != nil {
		return State{}, Transition{}, fmt.Errorf("core: plan rejected: %w", err)
	}
	c := Commitment{Req: req, Plan: plan}
	rest, err := free.PatchSubtract(c.RemainingDemand(s.Now))
	if err != nil {
		return State{}, Transition{}, fmt.Errorf("core: plan rejected: %w", err)
	}
	// Θ is unchanged, so the next state shares it.
	rho := append(append(make([]Commitment, 0, len(s.Commitments)+1), s.Commitments...), c)
	next := State{Theta: s.Theta, Commitments: rho, Now: s.Now}.withView(rest)
	return next, Transition{Kind: KindAccommodate, From: s.Now, To: s.Now, Computation: req.Name}, nil
}

// Leave applies the computation leave rule: (Θ, ρ, t) → (Θ, ρ \
// ρ(Λ,s,d), t), defined only while t < s — "a computation which has
// already started in the system is not allowed to leave".
func Leave(s State, name string) (State, Transition, error) {
	idx := -1
	for i, c := range s.Commitments {
		if c.Name() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return State{}, Transition{}, fmt.Errorf("%w: %s", ErrUnknownComputation, name)
	}
	if s.Now >= s.Commitments[idx].Req.Window.Start {
		return State{}, Transition{}, ErrAlreadyStarted
	}
	// Θ is unchanged, so the next state shares it.
	rho := append(append(make([]Commitment, 0, len(s.Commitments)-1), s.Commitments[:idx]...), s.Commitments[idx+1:]...)
	next := State{Theta: s.Theta, Commitments: rho, Now: s.Now}
	if free, ok := s.view(); ok {
		next = next.withView(free.PatchUnion(s.Commitments[idx].RemainingDemand(s.Now)))
	}
	return next, Transition{Kind: KindLeave, From: s.Now, To: s.Now, Computation: name}, nil
}

// Tick applies the general transition rule over (t, t+dt): every
// commitment consumes its planned allocations for the step, unconsumed
// availability within the step expires, and the clock advances. The
// returned transition is classified as sequential, concurrent, expire,
// general or idle depending on what actually happened — the paper's
// specific rules are the special cases of this one.
//
// Violations are returned (not silently dropped) when a commitment's
// planned consumption is no longer available; this can only happen when
// resources reneged after admission (failure injection in the simulator).
func Tick(s State, dt interval.Time) (State, Transition, []Violation) {
	if dt <= 0 {
		dt = 1
	}
	step := interval.New(s.Now, s.Now+dt)
	next := s.Clone()
	tr := Transition{From: s.Now, To: s.Now + dt}
	var violations []Violation

	for _, c := range next.Commitments {
		for _, alloc := range c.Plan.Allocs {
			span := alloc.Term.Span.Intersect(step)
			if span.Empty() {
				continue
			}
			if err := next.Theta.Consume(alloc.Term.Type, span, alloc.Term.Rate); err != nil {
				violations = append(violations, Violation{
					Computation: c.Name(),
					Actor:       alloc.Actor,
					Type:        alloc.Term.Type,
					At:          s.Now,
					Phase:       alloc.Phase,
					Missed:      resource.Quantity(alloc.Term.Rate) * resource.Quantity(span.Len()),
				})
				continue
			}
			tr.Consumptions = append(tr.Consumptions, Consumption{
				Actor: alloc.Actor,
				Type:  alloc.Term.Type,
				Rate:  alloc.Term.Rate,
			})
		}
	}
	sort.Slice(tr.Consumptions, func(i, j int) bool {
		a, b := tr.Consumptions[i], tr.Consumptions[j]
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		return a.Type.String() < b.Type.String()
	})

	// Whatever availability remains inside the step expires unused.
	tr.Expired = next.Theta.TrimBefore(s.Now + dt)
	next.Now = s.Now + dt

	// Completed commitments leave ρ.
	var live []Commitment
	clean := len(violations) == 0
	for _, c := range next.Commitments {
		if c.Done(next.Now) {
			tr.Completed = append(tr.Completed, c.Name())
			clean = clean && !c.allocatesAfter(next.Now)
		} else {
			live = append(live, c)
		}
	}
	next.Commitments = live

	// A clean step takes the same consumption out of Θ and out of the
	// committed demand, and a completed plan has no demand left, so the
	// free view only loses the elapsed step. A violation — or a plan whose
	// Finish undercuts its own allocations — breaks that balance: the view
	// is dropped and the next read recomputes.
	if free, ok := s.view(); ok && clean {
		next = next.withView(free.TrimmedBefore(next.Now))
	}

	switch {
	case len(tr.Consumptions) == 0 && tr.Expired.Empty():
		tr.Kind = KindIdle
	case len(tr.Consumptions) == 0:
		tr.Kind = KindExpire
	case tr.Expired.Empty() && len(tr.Consumptions) == 1:
		tr.Kind = KindSequential
	case tr.Expired.Empty():
		tr.Kind = KindConcurrent
	default:
		tr.Kind = KindGeneral
	}
	return next, tr, violations
}
