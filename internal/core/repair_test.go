package core

import (
	"errors"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

// repairScenario: supply rate 4 until a rate-3 provider reneges at t=2,
// leaving rate 1; the admitted job's plan (consume rate 4, ticks 0–3)
// breaks at t=2 but 8 units remain doable at rate 1 before the deadline.
func repairScenario(t *testing.T) (State, []Violation) {
	t.Helper()
	theta := resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(0, 12)), // the reneging provider
		resource.NewTerm(u(1), cpuL1, interval.New(0, 12)), // the survivor
	)
	s := NewState(theta, 0)

	// 16-unit job, deadline 12: the plan takes rate 4 over ticks 0..3
	// and finishes at t=4; after the renege the survivor alone must
	// carry the remainder.
	big := evalJob(t, "patient", "a1", 0, 12)
	big.Actors[0].Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(16, cpuL1))
	s3, plan, err := Admit(s, big)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 4 {
		t.Fatalf("big Finish = %d", plan.Finish)
	}
	// Run two clean ticks (8 units consumed), then renege the rate-3
	// provider's remaining lease.
	cur := s3
	for i := 0; i < 2; i++ {
		next, _, viols := Tick(cur, 1)
		if len(viols) != 0 {
			t.Fatalf("early violation: %v", viols)
		}
		cur = next
	}
	cur.Theta = cur.Theta.SubtractSaturating(resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(2, 12))))
	// The next tick breaks the plan.
	next, _, viols := Tick(cur, 1)
	if len(viols) == 0 {
		t.Fatal("expected a violation after the renege")
	}
	return next, viols
}

func TestRepairRecoversFromRenege(t *testing.T) {
	damaged, viols := repairScenario(t)
	if viols[0].Missed != resource.QuantityFromUnits(4) {
		t.Errorf("Missed = %d, want 4 units", viols[0].Missed)
	}
	repaired, err := Repair(damaged, "patient", viols)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	// 8 units were consumed in ticks 0–1; tick 2 violated (4 missed);
	// the revised plan must deliver the remaining 8 units at rate 1
	// within (3,12). Check the verdict by running to completion.
	res := Run(repaired, 0, 1)
	if len(res.Violations) != 0 {
		t.Fatalf("repaired plan violated again: %v", res.Violations)
	}
	done, ok := res.Completed["patient"]
	if !ok {
		t.Fatal("repaired job never completed")
	}
	if done > 12 {
		t.Errorf("repaired job finished at %d, after deadline 12", done)
	}
	// The revised plan reserves exactly the 8 missing units.
	var planned resource.Quantity
	for _, c := range repaired.Commitments {
		planned += c.Plan.Demand().TotalWithin(interval.New(0, 12))
	}
	if planned != resource.QuantityFromUnits(8) {
		t.Errorf("revised plan reserves %d, want exactly the 8 missing units", planned)
	}
}

func TestRepairFailsWhenNoCapacity(t *testing.T) {
	damaged, viols := repairScenario(t)
	// Remove the survivor too: nothing left to repair with.
	damaged.Theta = resource.Set{}
	if _, err := Repair(damaged, "patient", viols); err == nil {
		t.Fatal("repair without capacity should fail")
	}
	// Unknown commitment.
	if _, err := Repair(damaged, "ghost", nil); !errors.Is(err, ErrUnknownComputation) {
		t.Errorf("want ErrUnknownComputation, got %v", err)
	}
}

func TestRepairAfterDeadline(t *testing.T) {
	damaged, viols := repairScenario(t)
	cur := damaged
	for cur.Now < 10 {
		cur, _, _ = Tick(cur, 1)
	}
	// The commitment has "completed" by plan time, so it is gone; rebuild
	// an artificial late state to exercise the deadline guard.
	late := damaged.Clone()
	late.Now = 12
	if _, err := Repair(late, "patient", viols); !errors.Is(err, ErrDeadlinePassed) {
		t.Errorf("want ErrDeadlinePassed, got %v", err)
	}
}

func TestRepairCompletedCommitmentDropsIt(t *testing.T) {
	// A commitment whose plan has no remaining allocations and no missed
	// work is simply removed.
	theta := resource.NewSet(resource.NewTerm(u(8), cpuL1, interval.New(0, 10)))
	s := NewState(theta, 0)
	s2, plan, err := Admit(s, evalJob(t, "quick", "a1", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 1 {
		t.Fatalf("Finish = %d", plan.Finish)
	}
	// Advance time past the plan without ticking the commitment away
	// (simulate by hand-editing Now — Repair must handle it gracefully).
	s2.Now = 5
	s2.Theta.TrimBefore(5)
	repaired, err := Repair(s2, "quick", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired.Commitments) != 0 {
		t.Error("completed commitment should be dropped by repair")
	}
}

func TestRepairPreservesOtherCommitments(t *testing.T) {
	// Two commitments on disjoint located types; a renege damages only
	// the first. Repairing it must leave the second commitment's plan
	// untouched and draw only on free capacity.
	cpuL2 := resource.CPUAt("l2")
	theta := resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(0, 12)), // reneges at t=1
		resource.NewTerm(u(2), cpuL1, interval.New(0, 12)), // survivor
		resource.NewTerm(u(2), cpuL2, interval.New(0, 12)), // b's supply
	)
	s := NewState(theta, 0)
	a := evalJob(t, "a-job", "a1", 0, 12)
	a.Actors[0].Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(15, cpuL1))
	s, _, err := Admit(s, a)
	if err != nil {
		t.Fatal(err)
	}
	bComp, err := cost.Realize(cost.Paper(), "b1", compute.Evaluate("b1", "l2", 1))
	if err != nil {
		t.Fatal(err)
	}
	bComp.Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(10, cpuL2))
	b, err := compute.NewDistributed("b-job", 0, 12, bComp)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err = Admit(s, b)
	if err != nil {
		t.Fatal(err)
	}
	bBefore, _ := s.Commitment("b-job")

	// One clean tick, then the renege.
	s, _, viols := Tick(s, 1)
	if len(viols) != 0 {
		t.Fatalf("early violations: %v", viols)
	}
	s.Theta = s.Theta.SubtractSaturating(resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(1, 12))))
	s, _, viols = Tick(s, 1)
	if len(viols) == 0 {
		t.Fatal("expected a-job to violate")
	}
	for _, v := range viols {
		if v.Computation != "a-job" {
			t.Fatalf("unexpected victim %s", v.Computation)
		}
	}
	repaired, err := Repair(s, "a-job", viols)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	// b's commitment is byte-for-byte untouched.
	bAfter, ok := repaired.Commitment("b-job")
	if !ok {
		t.Fatal("b-job lost during repair")
	}
	if !bAfter.Plan.Demand().Equal(bBefore.Plan.Demand()) {
		t.Error("repair disturbed the other commitment's plan")
	}
	// The whole system now runs to completion without violations.
	res := Run(repaired, 0, 1)
	if len(res.Violations) != 0 {
		t.Fatalf("post-repair violations: %v", res.Violations)
	}
	for _, name := range []string{"a-job", "b-job"} {
		done, ok := res.Completed[name]
		if !ok || done > 12 {
			t.Errorf("%s: done=%v at %d", name, ok, done)
		}
	}
}
