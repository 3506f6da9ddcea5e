package core

import (
	"errors"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// completedAtom is satisfied when the named computation's requirement
// can no longer be satisfied — used indirectly below via satisfy atoms.

func TestExistsPathFindsAdmission(t *testing.T) {
	// One job, capacity for it: some branch admits it, consuming the cpu,
	// so on that branch satisfy(another 16 cpu) is false.
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8)))
	job := evalJob(t, "j1", "a1", 0, 8) // 8 cpu

	bigAsk := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(16, cpuL1)),
		Window:  interval.New(0, 8),
	}}
	ex := &Explorer{
		Pending: []compute.Distributed{job},
		Horizon: 8,
	}
	// On the all-defer branch the full 16 units expire unused ⇒ bigAsk
	// holds; on an admitting branch only 8 remain ⇒ ¬bigAsk holds.
	ok, witness, err := ex.ExistsPath(NewState(theta, 0), bigAsk)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || witness == nil {
		t.Fatal("defer branch should satisfy the big ask")
	}
	ok, witness, err = ex.ExistsPath(NewState(theta, 0), Not{F: bigAsk})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("an admitting branch should refute the big ask")
	}
	// The witness must actually contain an accommodate transition.
	foundAdmit := false
	for _, tr := range witness.Steps {
		if tr.Kind == KindAccommodate {
			foundAdmit = true
		}
	}
	if !foundAdmit {
		t.Error("witness path has no accommodation")
	}
}

func TestForAllPathsInvariant(t *testing.T) {
	// Whatever choices are made, a requirement bigger than total capacity
	// can never be satisfied: AG ¬satisfy(17 cpu).
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8)))
	job := evalJob(t, "j1", "a1", 0, 8)
	tooBig := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(17, cpuL1)),
		Window:  interval.New(0, 8),
	}}
	ex := &Explorer{Pending: []compute.Distributed{job}, Horizon: 8}
	holds, counter, err := ex.ForAllPaths(NewState(theta, 0), Not{F: tooBig})
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Fatalf("invariant refuted by %v", counter)
	}
	// And the negation yields a counterexample.
	holds, counter, err = ex.ForAllPaths(NewState(theta, 0), tooBig)
	if err != nil {
		t.Fatal(err)
	}
	if holds || counter == nil {
		t.Fatal("expected a counterexample")
	}
}

func TestExplorerJoins(t *testing.T) {
	// Capacity arrives only via a join at t=3; a path exists satisfying
	// an 8-cpu requirement within (3,8).
	join := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(3, 8)))
	ask := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(8, cpuL1)),
		Window:  interval.New(0, 8),
	}}
	ex := &Explorer{
		Joins:   map[interval.Time]resource.Set{3: join},
		Horizon: 8,
	}
	ok, _, err := ex.ExistsPath(NewState(resource.Set{}, 0), ask)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("join-supplied capacity not found")
	}
	// Without the join no path satisfies it.
	ex2 := &Explorer{Horizon: 8}
	ok, _, err = ex2.ExistsPath(NewState(resource.Set{}, 0), ask)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("satisfied without any resources")
	}
}

func TestExplorerDeferredAdmissionBranch(t *testing.T) {
	// A job whose window opens later than t=0 can only be admitted on a
	// branch that defers to its start; the explorer must find it.
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 12)))
	job := evalJob(t, "late", "a1", 4, 12)
	// On admitting branches the job's consumption shrinks expiring
	// capacity below 16 within (4,12).
	probe := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(16, cpuL1)),
		Window:  interval.New(4, 12),
	}}
	ex := &Explorer{Pending: []compute.Distributed{job}, Horizon: 12}
	ok, witness, err := ex.ExistsPath(NewState(theta, 0), Not{F: probe})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no branch admitted the late job")
	}
	sawAdmit := false
	for _, tr := range witness.Steps {
		if tr.Kind == KindAccommodate {
			sawAdmit = true
			if tr.From < 4 {
				t.Errorf("admitted at %d, before the window opens", tr.From)
			}
		}
	}
	if !sawAdmit {
		t.Error("witness lacks an accommodation")
	}
}

func TestExplorerBudget(t *testing.T) {
	// Many pending jobs over a long horizon explode the tree; the budget
	// must trip rather than hang.
	theta := resource.NewSet(resource.NewTerm(u(8), cpuL1, interval.New(0, 40)))
	var pending []compute.Distributed
	for i := 0; i < 6; i++ {
		job := evalJob(t, string(rune('a'+i)), compute.ActorName(string(rune('a'+i))), 0, 40)
		pending = append(pending, job)
	}
	ex := &Explorer{Pending: pending, Horizon: 40, MaxPaths: 50}
	_, _, err := ex.ForAllPaths(NewState(theta, 0), True{})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestExplorerValidation(t *testing.T) {
	ex := &Explorer{Horizon: 0}
	if _, _, err := ex.ExistsPath(NewState(resource.Set{}, 0), True{}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestExplorerJoinsApplyOncePerTick(t *testing.T) {
	// Regression: an instantaneous accommodation at the join's tick used
	// to re-apply the acquisition, doubling capacity. Total capacity here
	// is 2×10 + 4×4 = 36 units; 37 must be unreachable on EVERY branch,
	// including those admitting the job at t=4.
	base := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10)))
	burst := resource.NewSet(resource.NewTerm(u(4), cpuL1, interval.New(4, 8)))
	job := evalJob(t, "batch", "a1", 0, 10)
	job.Actors[0].Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(12, cpuL1))

	tooBig := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(37, cpuL1)),
		Window:  interval.New(0, 10),
	}}
	ex := &Explorer{
		Joins:   map[interval.Time]resource.Set{4: burst},
		Pending: []compute.Distributed{job},
		Horizon: 10,
	}
	holds, counter, err := ex.ForAllPaths(NewState(base, 0), Not{F: tooBig})
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Fatalf("37 units materialized out of nothing:\n%v", counter)
	}
	// 36 units are genuinely reachable (the admit-nothing branch).
	exactly := SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(36, cpuL1)),
		Window:  interval.New(0, 10),
	}}
	ok, _, err := ex.ExistsPath(NewState(base, 0), exactly)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the full 36 units should be reachable on the idle branch")
	}
}
