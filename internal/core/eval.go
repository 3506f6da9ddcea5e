package core

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// Eval implements the satisfaction relation M, σ, t ⊨ ψ of Figure 1 on a
// materialized computation path, at path position i (so t = σ.At(i).Now).
//
// Requirement atoms are evaluated against the resources that expire
// unused along σ within the requirement's window — "unwanted resources
// which will expire unless new computations requiring them enter the
// system" — clamped so no resource before max(s, t) counts:
//
//	satisfy(ρ(γ,s,d))  ⇔ f(⋃ Θ_expire, ρ) = true
//	satisfy(ρ(Γ,s,d))  ⇔ ∃ t1…t_{m-1} splitting (s,d) feasibly in Θ_expire
//	satisfy(ρ(Λ,s,d))  ⇔ a combined witness path exists in Θ_expire
//
// The existential searches are delegated to the schedule package, whose
// results are constructive witnesses. A simple atom needs no set at all:
// f reads only each required type's quantity within the window, and ∪
// adds rates, so that quantity is the sum of the parts' quantities.
func Eval(p *Path, i int, f Formula) (bool, error) {
	return (&evaluator{p: p}).eval(i, f)
}

// evaluator is one top-level Eval over a path. The final state's
// leftover — its free resources beyond the materialized horizon — does
// not depend on the position, so it is computed at most once and shared
// by every atom the recursion reaches.
type evaluator struct {
	p            *Path
	leftover     resource.Set
	leftoverDone bool
}

func (e *evaluator) left() resource.Set {
	if !e.leftoverDone {
		// A final state whose commitments exceed its Θ has no leftover
		// to offer; FreeResources returns the empty set with the error.
		e.leftover, _ = e.p.Last().FreeResources()
		e.leftoverDone = true
	}
	return e.leftover
}

// freeWithin returns ⋃ Θ_expire: the resources that expire unused along
// the path from position i onward, restricted to the window — plus the
// final state's still-unclaimed future availability (resources that will
// expire after the materialized horizon unless something new consumes
// them). This is the resource pool Figure 1's satisfy semantics evaluates
// requirements against: capacity the committed path does not need.
func (e *evaluator) freeWithin(i int, window interval.Interval) resource.Set {
	var free resource.Set
	for j := i; j < len(e.p.Steps); j++ {
		free = free.Union(e.p.Steps[j].Expired.Clamp(window))
	}
	return free.Union(e.left().Clamp(window))
}

// quantityWithin is freeWithin(i, window).QuantityWithin(lt, window)
// without building the set, saturating as that does.
func (e *evaluator) quantityWithin(i int, lt resource.LocatedType, window interval.Interval) resource.Quantity {
	var q resource.Quantity
	for j := i; j < len(e.p.Steps); j++ {
		q = q.AddSaturating(e.p.Steps[j].Expired.QuantityWithin(lt, window))
	}
	return q.AddSaturating(e.left().QuantityWithin(lt, window))
}

func (e *evaluator) eval(i int, f Formula) (bool, error) {
	p := e.p
	if i < 0 || i >= p.Len() {
		return false, fmt.Errorf("core: path position %d out of range [0,%d)", i, p.Len())
	}
	switch f := f.(type) {
	case True:
		return true, nil
	case False:
		return false, nil
	case SatisfySimple:
		window, ok := clampWindow(f.Req.Window, p.At(i).Now)
		if !ok {
			return f.Req.Empty(), nil
		}
		req := compute.Simple{Amounts: f.Req.Amounts, Window: window}
		return req.SatisfiedBy(func(lt resource.LocatedType) resource.Quantity {
			return e.quantityWithin(i, lt, window)
		}), nil
	case SatisfyComplex:
		window, ok := clampWindow(f.Req.Window, p.At(i).Now)
		if !ok {
			return f.Req.Empty(), nil
		}
		free := e.freeWithin(i, window)
		req := compute.Complex{Actor: f.Req.Actor, Phases: f.Req.Phases, Window: window}
		_, err := schedule.Single(free, req)
		return err == nil, nil
	case SatisfyConcurrent:
		window, ok := clampWindow(f.Req.Window, p.At(i).Now)
		if !ok {
			return f.Req.Empty(), nil
		}
		free := e.freeWithin(i, window)
		req := clampConcurrent(f.Req, window)
		_, err := schedule.Concurrent(free, req, true)
		return err == nil, nil
	case Not:
		inner, err := e.eval(i, f.F)
		return !inner, err
	case Eventually:
		for j := i; j < p.Len(); j++ {
			ok, err := e.eval(j, f.F)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case Always:
		for j := i; j < p.Len(); j++ {
			ok, err := e.eval(j, f.F)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	case And:
		l, err := e.eval(i, f.L)
		if err != nil || !l {
			return false, err
		}
		return e.eval(i, f.R)
	case Or:
		l, err := e.eval(i, f.L)
		if err != nil || l {
			return l, err
		}
		return e.eval(i, f.R)
	default:
		return false, fmt.Errorf("core: unknown formula %T", f)
	}
}

// clampWindow restricts a requirement window to start no earlier than
// now; ok is false when the deadline has already passed.
func clampWindow(w interval.Interval, now interval.Time) (interval.Interval, bool) {
	if now >= w.End {
		return interval.Interval{}, false
	}
	if now > w.Start {
		return interval.New(now, w.End), true
	}
	return w, true
}

// clampConcurrent rebuilds a concurrent requirement over a clamped
// window.
func clampConcurrent(req compute.Concurrent, window interval.Interval) compute.Concurrent {
	out := compute.Concurrent{Name: req.Name, Window: window}
	out.Actors = make([]compute.Complex, len(req.Actors))
	for i, a := range req.Actors {
		out.Actors[i] = compute.Complex{Actor: a.Actor, Phases: a.Phases, Window: window}
	}
	return out
}
