package schedule

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

var (
	cpuL1  = resource.CPUAt("l1")
	cpuL2  = resource.CPUAt("l2")
	netL12 = resource.Link("l1", "l2")
)

func u(n int64) resource.Rate { return resource.FromUnits(n) }

// seqActor builds the canonical evaluate→send→evaluate actor used across
// the tests: 8 cpu, then 4 network, then 6 cpu (paper constants except
// the final weight).
func seqActor(t testing.TB, name compute.ActorName) compute.Computation {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), name,
		compute.Evaluate(name, "l1", 1),
		compute.Send(name, "l1", "a2", "l2", 1),
		compute.Evaluate(name, "l1", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Adjust the final evaluate to 6 units for asymmetry.
	c.Steps[2].Amounts = resource.NewAmounts(resource.AmountOf(6, cpuL1))
	return c
}

func TestSingleActionAccommodation(t *testing.T) {
	// Theorem 1: a single action fits iff its amounts fit in the window.
	c, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1)) // 8 cpu
	if err != nil {
		t.Fatal(err)
	}
	req := compute.ComplexOf(c, interval.New(0, 4))

	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 4))) // 8 units
	plan, err := Single(theta, req)
	if err != nil {
		t.Fatalf("feasible single action rejected: %v", err)
	}
	if plan.Finish != 4 {
		t.Errorf("Finish = %d, want 4", plan.Finish)
	}
	if err := Verify(theta, compute.Concurrent{Actors: []compute.Complex{req}, Window: req.Window}, plan); err != nil {
		t.Errorf("Verify: %v", err)
	}

	starved := resource.NewSet(resource.NewTerm(u(1), cpuL1, interval.New(0, 4))) // only 4 units
	if _, err := Single(starved, req); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSingleSequentialOrderMatters(t *testing.T) {
	// The §III caveat: total quantity is not enough — the right resources
	// must exist at the right time. cpu-then-network-then-cpu cannot run
	// if all network precedes all cpu.
	req := compute.ComplexOf(seqActor(t, "a1"), interval.New(0, 12))

	ordered := resource.NewSet(
		resource.NewTerm(u(4), cpuL1, interval.New(0, 2)),  // 8 cpu early
		resource.NewTerm(u(2), netL12, interval.New(2, 4)), // 4 net middle
		resource.NewTerm(u(3), cpuL1, interval.New(4, 6)),  // 6 cpu late
	)
	plan, err := Single(ordered, req)
	if err != nil {
		t.Fatalf("well-ordered resources rejected: %v", err)
	}
	breaks := plan.BreaksOf("a1")
	if len(breaks) != 3 {
		t.Fatalf("breaks = %v", breaks)
	}
	if breaks[0] != 2 || breaks[1] != 4 || breaks[2] != 6 {
		t.Errorf("breaks = %v, want [2 4 6]", breaks)
	}

	// Same totals, network first: infeasible for the same computation.
	inverted := resource.NewSet(
		resource.NewTerm(u(2), netL12, interval.New(0, 2)),
		resource.NewTerm(u(4), cpuL1, interval.New(2, 4)),
		resource.NewTerm(u(3), cpuL1, interval.New(4, 6)),
	)
	if _, err := Single(inverted, req); !errors.Is(err, ErrInfeasible) {
		t.Errorf("order-violating resources accepted: %v", err)
	}
}

func TestSinglePartialTickConsumption(t *testing.T) {
	// 8 cpu needed from a rate-3 supply: 2 full ticks (6) + 2 units in
	// the third tick; completion is tick 3.
	c, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	req := compute.ComplexOf(c, interval.New(0, 10))
	theta := resource.NewSet(resource.NewTerm(u(3), cpuL1, interval.New(0, 10)))
	plan, err := Single(theta, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 3 {
		t.Errorf("Finish = %d, want 3", plan.Finish)
	}
	demand := plan.Demand()
	if got := demand.QuantityWithin(cpuL1, interval.New(0, 10)); got != resource.QuantityFromUnits(8) {
		t.Errorf("plan consumes %d, want exactly 8 units", got)
	}
	if err := Verify(theta, compute.Concurrent{Actors: []compute.Complex{req}, Window: req.Window}, plan); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSingleMultiTypePhaseParallelDelivery(t *testing.T) {
	// A migrate phase needs cpu@l1, net and cpu@l2 simultaneously; the
	// phase completes when the slowest type is delivered.
	c, err := cost.Realize(cost.Paper(), "a1", compute.Migrate("a1", "l1", "l2", 6))
	if err != nil {
		t.Fatal(err)
	}
	req := compute.ComplexOf(c, interval.New(0, 10))
	theta := resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(0, 10)),  // 3 cpu: done t=1
		resource.NewTerm(u(1), netL12, interval.New(0, 10)), // 6 net at rate 1: done t=6
		resource.NewTerm(u(3), cpuL2, interval.New(0, 10)),  // done t=1
	)
	plan, err := Single(theta, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 6 {
		t.Errorf("Finish = %d, want 6 (slowest type)", plan.Finish)
	}
}

func TestSingleRespectsEarliestStart(t *testing.T) {
	c, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Resources exist mostly before the window opens; the pre-window
	// portion must not count (8 cpu needed, only ticks 5 of a rate-1
	// supply usable).
	req := compute.ComplexOf(c, interval.New(5, 10))
	theta := resource.NewSet(resource.NewTerm(u(1), cpuL1, interval.New(0, 6))) // 1 usable unit
	if _, err := Single(theta, req); !errors.Is(err, ErrInfeasible) {
		t.Errorf("resources before start must not count, got %v", err)
	}
	enough := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 9))) // ticks 5..8 usable = 8 units
	plan, err := Single(enough, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 9 {
		t.Errorf("Finish = %d, want 9", plan.Finish)
	}
	for _, a := range plan.Allocs {
		if a.Term.Span.Start < 5 {
			t.Errorf("allocation %v starts before the window", a.Term)
		}
	}
}

func TestSingleEmptyRequirement(t *testing.T) {
	req := compute.Complex{Actor: "a1", Window: interval.New(0, 5)}
	plan, err := Single(resource.Set{}, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocs) != 0 {
		t.Errorf("empty requirement should yield empty plan: %+v", plan)
	}
}

func TestConcurrentSharesResources(t *testing.T) {
	// Two identical actors share one cpu supply that fits both.
	a1 := seqActor(t, "a1")
	a2 := seqActor(t, "a2")
	d, err := compute.NewDistributed("job", 0, 24, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	req := compute.ConcurrentOf(d)
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 16)),  // 32 cpu ≥ 2×14
		resource.NewTerm(u(1), netL12, interval.New(0, 16)), // 16 net ≥ 2×4
	)
	plan, err := Concurrent(theta, req, false)
	if err != nil {
		t.Fatalf("feasible pair rejected: %v", err)
	}
	if err := Verify(theta, req, plan); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if plan.Finish > 24 {
		t.Errorf("Finish %d exceeds deadline", plan.Finish)
	}

	// Halving the cpu makes the pair infeasible.
	tight := resource.NewSet(
		resource.NewTerm(u(1), cpuL1, interval.New(0, 16)),
		resource.NewTerm(u(1), netL12, interval.New(0, 16)),
	)
	if _, err := Concurrent(tight, req, false); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible pair accepted: %v", err)
	}
}

func TestConcurrentDistinctLocations(t *testing.T) {
	// Actors at different locations do not contend.
	c1, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cost.Realize(cost.Paper(), "a2", compute.Evaluate("a2", "l2", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed("job", 0, 4, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 4)),
		resource.NewTerm(u(2), cpuL2, interval.New(0, 4)),
	)
	plan, err := Concurrent(theta, compute.ConcurrentOf(d), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(theta, compute.ConcurrentOf(d), plan); err != nil {
		t.Error(err)
	}
}

func TestVerifyRejectsCorruptPlans(t *testing.T) {
	req := compute.ComplexOf(seqActor(t, "a1"), interval.New(0, 12))
	conc := compute.Concurrent{Actors: []compute.Complex{req}, Window: req.Window}
	theta := resource.NewSet(
		resource.NewTerm(u(4), cpuL1, interval.New(0, 12)),
		resource.NewTerm(u(2), netL12, interval.New(0, 12)),
	)
	plan, err := Single(theta, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(theta, conc, plan); err != nil {
		t.Fatalf("genuine plan rejected: %v", err)
	}

	// Demand beyond availability.
	greedy := plan
	greedy.Allocs = append([]Allocation(nil), plan.Allocs...)
	greedy.Allocs = append(greedy.Allocs, Allocation{
		Actor: "a1", Phase: 0,
		Term: resource.NewTerm(u(100), cpuL1, interval.New(0, 2)),
	})
	if err := Verify(theta, conc, greedy); err == nil {
		t.Error("over-demand plan accepted")
	}

	// Missing breaks.
	noBreaks := plan
	noBreaks.Breaks = nil
	if err := Verify(theta, conc, noBreaks); err == nil {
		t.Error("plan without breaks accepted")
	}

	// Allocation escaping its phase subinterval.
	shifted := Plan{Breaks: []ActorBreaks{{Actor: "a1", Times: []interval.Time{1, 2, 3}}}}
	shifted.Allocs = []Allocation{{
		Actor: "a1", Phase: 0,
		Term: resource.NewTerm(u(8), cpuL1, interval.New(4, 5)), // after break 1
	}}
	if err := Verify(theta, conc, shifted); err == nil {
		t.Error("escaping allocation accepted")
	}

	// Underfed phase.
	hungry := Plan{Breaks: []ActorBreaks{{Actor: "a1", Times: []interval.Time{4, 8, 12}}}}
	hungry.Allocs = []Allocation{{
		Actor: "a1", Phase: 0,
		Term: resource.NewTerm(u(1), cpuL1, interval.New(0, 2)), // 2 of 8 needed
	}}
	if err := Verify(theta, conc, hungry); err == nil {
		t.Error("underfed plan accepted")
	}
}

func TestConcurrentExhaustiveFindsOrderDependentSchedules(t *testing.T) {
	// Craft contention where scheduling the big actor first fails but
	// small-first succeeds: a2 (small) must use the early cpu because its
	// deadline is early... Since all actors share one window here, build
	// asymmetry through resource shape instead: a1 needs cpu then net,
	// a2 needs net then cpu; supplies are two alternating slots each.
	mk := func(name compute.ActorName, first, second resource.LocatedType, q1, q2 int64) compute.Computation {
		s1 := compute.Step{
			Action:  compute.Evaluate(name, "l1", 1),
			Amounts: resource.NewAmounts(resource.Amount{Qty: resource.QuantityFromUnits(q1), Type: first}),
		}
		s2 := compute.Step{
			Action:  compute.Evaluate(name, "l1", 1),
			Amounts: resource.NewAmounts(resource.Amount{Qty: resource.QuantityFromUnits(q2), Type: second}),
		}
		c, err := compute.NewComputation(name, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a1 := mk("a1", cpuL1, netL12, 4, 4)
	a2 := mk("a2", netL12, cpuL1, 2, 2)
	d, err := compute.NewDistributed("mix", 0, 8, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	theta := resource.NewSet(
		resource.NewTerm(u(1), cpuL1, interval.New(0, 6)),
		resource.NewTerm(u(1), netL12, interval.New(0, 8)),
	)
	req := compute.ConcurrentOf(d)
	plan, err := Concurrent(theta, req, true)
	if err != nil {
		t.Fatalf("exhaustive search failed: %v", err)
	}
	if err := Verify(theta, req, plan); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestPropertyPlansAlwaysVerify(t *testing.T) {
	// Soundness: whatever the scheduler returns must pass independent
	// verification, over randomized workloads and supplies.
	rng := rand.New(rand.NewSource(61))
	types := []resource.LocatedType{cpuL1, cpuL2, netL12}
	for iter := 0; iter < 400; iter++ {
		nActors := 1 + rng.Intn(3)
		var comps []compute.Computation
		for ai := 0; ai < nActors; ai++ {
			name := compute.ActorName(string(rune('a' + ai)))
			nSteps := 1 + rng.Intn(4)
			steps := make([]compute.Step, 0, nSteps)
			for si := 0; si < nSteps; si++ {
				lt := types[rng.Intn(len(types))]
				steps = append(steps, compute.Step{
					Action:  compute.Evaluate(name, "l1", 1),
					Amounts: resource.NewAmounts(resource.Amount{Qty: resource.QuantityFromUnits(int64(1 + rng.Intn(6))), Type: lt}),
				})
			}
			c, err := compute.NewComputation(name, steps...)
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, c)
		}
		d, err := compute.NewDistributed("rand", 0, interval.Time(6+rng.Intn(20)), comps...)
		if err != nil {
			t.Fatal(err)
		}
		var theta resource.Set
		for i := 0; i < 2+rng.Intn(5); i++ {
			start := interval.Time(rng.Intn(12))
			theta.Add(resource.NewTerm(
				resource.FromUnits(int64(1+rng.Intn(4))),
				types[rng.Intn(len(types))],
				interval.New(start, start+1+interval.Time(rng.Intn(10)))))
		}
		req := compute.ConcurrentOf(d)
		plan, err := Concurrent(theta, req, false)
		if err != nil {
			continue // infeasible is fine; we check soundness of successes
		}
		if verr := Verify(theta, req, plan); verr != nil {
			t.Fatalf("iter %d: plan fails verification: %v\nreq=%v\ntheta=%v\nplan=%+v",
				iter, verr, req, theta, plan)
		}
		if plan.Finish > d.Deadline {
			t.Fatalf("iter %d: plan finishes at %d past deadline %d", iter, plan.Finish, d.Deadline)
		}
	}
}

func TestConcurrentMaxPermutationsBudget(t *testing.T) {
	// Seven actors, impossible demands: the exhaustive search must stop
	// at the permutation budget rather than exploring 7! orders.
	var comps []compute.Computation
	for i := 0; i < 7; i++ {
		name := compute.ActorName(string(rune('a' + i)))
		st := compute.Step{
			Action:  compute.Evaluate(name, "l1", 1),
			Amounts: resource.NewAmounts(resource.AmountOf(100, cpuL1)),
		}
		c, err := compute.NewComputation(name, st)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	d, err := compute.NewDistributed("impossible", 0, 10, comps...)
	if err != nil {
		t.Fatal(err)
	}
	theta := resource.NewSet(resource.NewTerm(u(1), cpuL1, interval.New(0, 10)))
	_, err = Concurrent(theta, compute.ConcurrentOf(d), true)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	var inf *Infeasible
	if !errors.As(err, &inf) || inf.OrdersTried > maxPermutations+1 {
		t.Fatalf("search tried %+v orders, want it stopped at the %d budget, short of 7! = 5040", inf, maxPermutations)
	}
}

func TestConcurrentExhaustiveEqualsGreedyWhenGreedyWorks(t *testing.T) {
	// When the heuristic order succeeds, exhaustive mode returns the same
	// verdict without extra search.
	a1 := seqActor(t, "a1")
	d, err := compute.NewDistributed("easy", 0, 24, a1)
	if err != nil {
		t.Fatal(err)
	}
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 16)),
		resource.NewTerm(u(1), netL12, interval.New(0, 16)),
	)
	req := compute.ConcurrentOf(d)
	greedy, gerr := Concurrent(theta, req, false)
	exhaustive, eerr := Concurrent(theta, req, true)
	if gerr != nil || eerr != nil {
		t.Fatal(gerr, eerr)
	}
	if greedy.Finish != exhaustive.Finish {
		t.Errorf("Finish differs: %d vs %d", greedy.Finish, exhaustive.Finish)
	}
}

// fragmentedView builds a one-type view of n segments with alternating
// rates, the shape a loaded shard's free view has.
func fragmentedView(n int) resource.Set {
	var theta resource.Set
	for i := 0; i < n; i++ {
		theta.Add(resource.NewTerm(u(int64(2+i%2)), cpuL1, interval.New(interval.Time(4*i), interval.Time(4*i+4))))
	}
	return theta
}

// The planner's read of Θ allocates only what it appends, and only when
// the run it appends to lacks the room: the walk over the window's
// segments is a cursor, not a clamped, rendered copy.
func TestEarliestAllocationsAllocatesOnlyItsResult(t *testing.T) {
	theta := fragmentedView(512)
	window := interval.New(1001, 1400)
	need := resource.QuantityFromUnits(75) // drains several segments, then part of one
	var got []Allocation
	allocs := testing.AllocsPerRun(100, func() {
		got, _, _ = earliestAllocations(nil, theta, "a1", 2, cpuL1, need, window)
	})
	if allocs != 1 {
		t.Errorf("earliestAllocations into nil: %.0f allocations, want 1 (its result)", allocs)
	}
	if len(got) < 4 {
		t.Errorf("result holds %d allocations; want several", len(got))
	}
	var sum resource.Quantity
	for _, a := range got {
		if a.Actor != "a1" || a.Phase != 2 {
			t.Errorf("allocation %+v not tagged a1/2", a)
		}
		sum += a.Term.Quantity()
	}
	if sum != need {
		t.Errorf("allocated %v, need %v", sum, need)
	}
	// Appended after what the run holds, into its spare room: nothing.
	room := make([]Allocation, 1, 1+len(got))
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = earliestAllocations(room, theta, "a1", 2, cpuL1, need, window)
	}); allocs != 0 {
		t.Errorf("earliestAllocations into a run with room: %.0f allocations, want 0", allocs)
	}
	if more, _, _ := earliestAllocations(room, theta, "a1", 2, cpuL1, need, window); len(more) != 1+len(got) || more[1] != got[0] {
		t.Errorf("appended %d allocations after 1, want %d after it", len(more)-1, len(got))
	}
	// An infeasible read allocates nothing at all.
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = earliestAllocations(nil, theta, "a1", 0, cpuL1, resource.QuantityFromUnits(1<<30), window)
	}); allocs != 0 {
		t.Errorf("infeasible earliestAllocations: %.0f allocations, want 0", allocs)
	}
}

// The search consumes from an overlay of Θ, not from Θ and not from a
// copy of it: the view handed in — shared, on the admission hot path,
// with the ledger's cache and every concurrent planner — must come back
// unchanged, whether the search succeeds, fails, or tries many orders.
func TestPlannerLeavesViewUnchanged(t *testing.T) {
	theta := fragmentedView(64)
	theta.Add(resource.NewTerm(u(1), netL12, interval.New(0, 256)))
	before := resource.NewSet(theta.Terms()...)
	a1 := compute.ComplexOf(seqActor(t, "a1"), interval.New(3, 90))
	a2 := compute.ComplexOf(seqActor(t, "a2"), interval.New(10, 60))

	if _, err := Single(theta, a1); err != nil {
		t.Fatal(err)
	}
	req := compute.Concurrent{Actors: []compute.Complex{a1, a2}, Window: interval.New(3, 90)}
	if _, err := Concurrent(theta, req, true); err != nil {
		t.Fatal(err)
	}
	tight := compute.Concurrent{Actors: []compute.Complex{
		compute.ComplexOf(seqActor(t, "b1"), interval.New(0, 9)),
		compute.ComplexOf(seqActor(t, "b2"), interval.New(0, 9)),
	}, Window: interval.New(0, 9)}
	if _, err := Concurrent(theta, tight, true); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("tight requirement: err = %v, want ErrInfeasible", err)
	}
	if !theta.Equal(before) {
		t.Fatalf("planning changed the view it searched:\n got %v\nwant %v", theta, before)
	}
}

// planSink keeps Concurrent's plan reachable, so the compiler cannot
// keep it off the heap.
var planSink Plan

// A decision writes its plan once, in runs sized from the requirement,
// and otherwise allocates only the overlay of Θ it consumes from. On a
// 3-actor, 3-phase job over a fragmented Θ of two chunked types, with
// more than one allocation to most needs, that is a fixed budget: five
// runs for the plan (the actor copy, the allocations and their one
// regrowth — the run has room for one per need — the per-actor break
// entries, the one array of break times); the overlay's run of entries
// and, per type, a clamp of
// three (a cut end chunk, a chunk list, a table); and a splice of three
// (a rebuilt chunk, a chunk list, a table) for each of the seven needs
// a later phase or actor reads. No map of break points and no per-need
// slice.
func TestConcurrentAllocatesItsPlan(t *testing.T) {
	theta := fragmentedView(512)
	for i := 0; i < 256; i++ {
		theta.Add(resource.NewTerm(u(int64(1+i%2)), netL12, interval.New(interval.Time(2*i), interval.Time(2*i+2))))
	}
	window := interval.New(3, 900)
	req := compute.Concurrent{Window: window, Actors: []compute.Complex{
		compute.ComplexOf(seqActor(t, "a1"), window),
		compute.ComplexOf(seqActor(t, "a2"), window),
		compute.ComplexOf(seqActor(t, "a3"), window),
	}}
	plan, err := Concurrent(theta, req, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(theta, req, plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocs) <= 9 {
		t.Fatalf("fixture: %d allocations for 9 needs; each should drain more than one stretch", len(plan.Allocs))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if planSink, err = Concurrent(theta, req, false); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 5 + (1 + 2*3) + 7*3
	if allocs > budget {
		t.Errorf("Concurrent: %.0f allocations, budget %d", allocs, budget)
	}
}
