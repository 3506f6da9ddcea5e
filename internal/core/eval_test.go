package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

func freshIdleState(units int64, span interval.Interval) State {
	return NewState(resource.NewSet(resource.NewTerm(u(units), cpuL1, span)), span.Start)
}

func TestPathBasics(t *testing.T) {
	s := freshIdleState(2, interval.New(0, 5))
	res := Run(s, 5, 1)
	p := res.Path
	if p.Len() != 6 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.At(0).Now != 0 || p.Last().Now != 5 {
		t.Errorf("endpoints: %d..%d", p.At(0).Now, p.Last().Now)
	}
	if got := p.IndexAt(3); got != 3 {
		t.Errorf("IndexAt(3) = %d", got)
	}
	if got := p.IndexAt(99); got != p.Len()-1 {
		t.Errorf("IndexAt(99) = %d", got)
	}
	if !strings.Contains(p.String(), "expire") {
		t.Errorf("path String = %q", p.String())
	}
}

// freeWithin is the evaluator's free pool at position i of p.
func freeWithin(p *Path, i int, window interval.Interval) resource.Set {
	return (&evaluator{p: p}).freeWithin(i, window)
}

func TestFreeWithinCollectsExpiredResources(t *testing.T) {
	// An idle system expires everything; all of it should be visible as
	// free capacity from position 0.
	s := freshIdleState(2, interval.New(0, 5))
	res := Run(s, 5, 1)
	free := freeWithin(res.Path, 0, interval.New(0, 5))
	want := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 5)))
	if !free.Equal(want) {
		t.Errorf("free = %v, want %v", free, want)
	}
	// From position 3, only ticks 3 and 4 remain free.
	free = freeWithin(res.Path, 3, interval.New(0, 5))
	want = resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(3, 5)))
	if !free.Equal(want) {
		t.Errorf("free from 3 = %v, want %v", free, want)
	}
}

func TestFreeWithinExcludesCommittedConsumption(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8))) // 16 units
	s := NewState(theta, 0)
	s2, _, err := Admit(s, evalJob(t, "busy", "a1", 0, 8)) // consumes ticks 0..3
	if err != nil {
		t.Fatal(err)
	}
	res := Run(s2, 8, 1)
	free := freeWithin(res.Path, 0, interval.New(0, 8))
	want := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(4, 8)))
	if !free.Equal(want) {
		t.Errorf("free = %v, want %v", free, want)
	}
}

func TestFreeWithinIncludesUnmaterializedFuture(t *testing.T) {
	// Availability beyond the run horizon still counts as free.
	s := freshIdleState(2, interval.New(0, 10))
	res := Run(s, 3, 1)
	free := freeWithin(res.Path, 0, interval.New(0, 10))
	want := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10)))
	if !free.Equal(want) {
		t.Errorf("free = %v, want %v", free, want)
	}
}

func TestEvalAtomsAndConnectives(t *testing.T) {
	s := freshIdleState(2, interval.New(0, 10)) // 20 free units
	res := Run(s, 10, 1)
	p := res.Path

	fits := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(20, cpuL1)),
		Window:  interval.New(0, 10),
	}}
	tooBig := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(21, cpuL1)),
		Window:  interval.New(0, 10),
	}}

	check := func(f Formula, i int, want bool) {
		t.Helper()
		got, err := Eval(p, i, f)
		if err != nil {
			t.Fatalf("Eval(%v): %v", f, err)
		}
		if got != want {
			t.Errorf("Eval(%v) at %d = %v, want %v", f, i, got, want)
		}
	}

	check(True{}, 0, true)
	check(False{}, 0, false)
	check(fits, 0, true)
	check(tooBig, 0, false)
	check(Not{F: tooBig}, 0, true)
	check(And{L: fits, R: Not{F: tooBig}}, 0, true)
	check(And{L: fits, R: tooBig}, 0, false)
	check(Or{L: tooBig, R: fits}, 0, true)
	check(Or{L: tooBig, R: False{}}, 0, false)

	// By position 1, one tick (2 units) has passed: 20 no longer fits.
	check(fits, 1, false)
	// ◇ is monotone backwards: satisfiable now, so eventually too.
	check(Eventually{F: fits}, 0, true)
	// fits holds only at position 0, so □fits is false but ◇fits true.
	check(Always{F: fits}, 0, false)
	smaller := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(2, cpuL1)),
		Window:  interval.New(0, 10),
	}}
	// 2 units fit at every position while the window is open, but at the
	// final position (t=10) the window has closed and a non-empty
	// requirement is unsatisfiable — so □ fails over the full path yet
	// holds on every earlier position.
	check(Always{F: smaller}, 0, false)
	for i := 0; i < p.Len()-1; i++ {
		check(smaller, i, true)
	}
	check(smaller, p.Len()-1, false)

	// Out-of-range position errors.
	if _, err := Eval(p, -1, True{}); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := Eval(p, p.Len(), True{}); err == nil {
		t.Error("overflow position accepted")
	}
}

func TestEvalComplexAtomRespectsOrdering(t *testing.T) {
	// Free resources: cpu then net then cpu — a seq job fits; the
	// inverted job (net before cpu available) does not.
	theta := resource.NewSet(
		resource.NewTerm(u(4), cpuL1, interval.New(0, 2)),
		resource.NewTerm(u(2), netL12, interval.New(2, 4)),
		resource.NewTerm(u(4), cpuL1, interval.New(4, 6)),
	)
	s := NewState(theta, 0)
	res := Run(s, 6, 1)
	p := res.Path

	comp, err := cost.Realize(cost.Paper(), "a1",
		compute.Evaluate("a1", "l1", 1),
		compute.Send("a1", "l1", "x", "l2", 1),
		compute.Evaluate("a1", "l1", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	good := SatisfyComplex{Req: compute.ComplexOf(comp, interval.New(0, 6))}
	if ok, err := Eval(p, 0, good); err != nil || !ok {
		t.Errorf("orderable computation rejected: %v %v", ok, err)
	}

	// Same computation but the window starts after the first cpu block
	// has expired: phase 1 can no longer be fed.
	late := SatisfyComplex{Req: compute.ComplexOf(comp, interval.New(2, 6))}
	if ok, _ := Eval(p, 0, late); ok {
		t.Error("late window should be unsatisfiable (first cpu block inside window is after net)")
	}
}

func TestEvalConcurrentAtom(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(4), cpuL1, interval.New(0, 8)))
	s := NewState(theta, 0)
	res := Run(s, 8, 1)
	p := res.Path

	d := evalJob(t, "jj", "a1", 0, 8)
	f := SatisfyConcurrent{Req: compute.ConcurrentOf(d)}
	if ok, err := Eval(p, 0, f); err != nil || !ok {
		t.Errorf("concurrent atom = %v, %v", ok, err)
	}
	// At a position past the job's deadline, a non-empty requirement is
	// unsatisfiable.
	shortDeadline := evalJob(t, "kk", "a1", 0, 2)
	fLate := SatisfyConcurrent{Req: compute.ConcurrentOf(shortDeadline)}
	if ok, _ := Eval(p, p.IndexAt(4), fLate); ok {
		t.Error("deadline-passed atom satisfied")
	}
}

func TestEvalNowMatchesIndexAt(t *testing.T) {
	s := freshIdleState(2, interval.New(0, 6))
	res := Run(s, 6, 1)
	f := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(4, cpuL1)),
		Window:  interval.New(0, 6),
	}}
	a, err := EvalNow(res.Path, 3, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(res.Path, res.Path.IndexAt(3), f)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("EvalNow disagrees with Eval at IndexAt")
	}
}

func TestFormulaStrings(t *testing.T) {
	f := Always{F: Not{F: Or{
		L: And{L: True{}, R: False{}},
		R: Eventually{F: SatisfySimple{Req: compute.Simple{
			Amounts: resource.NewNeeds(resource.AmountOf(1, cpuL1)),
			Window:  interval.New(0, 5),
		}}},
	}}}
	got := f.String()
	for _, want := range []string{"□", "¬", "∧", "∨", "◇", "satisfy", "true", "false"} {
		if !strings.Contains(got, want) {
			t.Errorf("String %q missing %q", got, want)
		}
	}
}

// TestPropertyCheckerSoundOnPaths is the heart of E3 in miniature: any
// computation the checker admits completes by its deadline when the
// committed path is actually executed.
func TestPropertyCheckerSoundOnPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	locs := []resource.Location{"l1", "l2"}
	for iter := 0; iter < 120; iter++ {
		// Random supply.
		var theta resource.Set
		for i := 0; i < 2+rng.Intn(4); i++ {
			loc := locs[rng.Intn(len(locs))]
			start := interval.Time(rng.Intn(10))
			theta.Add(resource.NewTerm(
				resource.FromUnits(int64(1+rng.Intn(5))),
				resource.CPUAt(loc),
				interval.New(start, start+2+interval.Time(rng.Intn(12)))))
			if rng.Intn(2) == 0 {
				theta.Add(resource.NewTerm(
					resource.FromUnits(int64(1+rng.Intn(3))),
					resource.Link("l1", "l2"),
					interval.New(start, start+2+interval.Time(rng.Intn(12)))))
			}
		}
		st := NewState(theta, 0)

		// Randomly try to admit a handful of jobs.
		admitted := 0
		for j := 0; j < 4; j++ {
			name := compute.ActorName(string(rune('a' + j)))
			loc := locs[rng.Intn(len(locs))]
			var actions []compute.Action
			for k := 0; k < 1+rng.Intn(3); k++ {
				switch rng.Intn(3) {
				case 0:
					actions = append(actions, compute.Evaluate(name, loc, int64(1+rng.Intn(2))))
				case 1:
					actions = append(actions, compute.Send(name, "l1", "peer", "l2", 1))
				default:
					actions = append(actions, compute.Ready(name, loc))
				}
			}
			comp, err := cost.Realize(cost.Paper(), name, actions...)
			if err != nil {
				t.Fatal(err)
			}
			deadline := interval.Time(8 + rng.Intn(16))
			dist, err := compute.NewDistributed(string(name)+"-job", 0, deadline, comp)
			if err != nil {
				t.Fatal(err)
			}
			next, _, err := Admit(st, dist)
			if err != nil {
				continue
			}
			st = next
			admitted++
		}
		if admitted == 0 {
			continue
		}
		res := Run(st, 0, 1)
		if len(res.Violations) != 0 {
			t.Fatalf("iter %d: admitted set violated: %v", iter, res.Violations)
		}
		if len(res.Completed) != admitted {
			t.Fatalf("iter %d: %d admitted but %d completed", iter, admitted, len(res.Completed))
		}
	}
}
