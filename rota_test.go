package rota

// Facade-level tests: the public API exercised exactly as the README and
// examples present it.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	theta := NewSet(
		NewTerm(UnitsRate(2), CPUAt("l1"), NewInterval(0, 20)),
		NewTerm(UnitsRate(1), Link("l1", "l2"), NewInterval(4, 12)),
	)
	comp, err := Realize(PaperCost(), "a1",
		Evaluate("a1", "l1", 1),
		Send("a1", "l1", "a2", "l2", 1),
		Evaluate("a1", "l1", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := MeetDeadline(theta, comp, 0, 20)
	if err != nil {
		t.Fatalf("quickstart computation should be feasible: %v", err)
	}
	if plan.Finish != 12 {
		t.Errorf("Finish = %d, want 12", plan.Finish)
	}
	if got := plan.BreaksOf("a1"); len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 12 {
		t.Errorf("breaks = %v, want [4 8 12]", got)
	}
	if _, err := MeetDeadline(theta, comp, 0, 8); !errors.Is(err, schedule.ErrInfeasible) {
		t.Errorf("deadline 8 should be infeasible, got %v", err)
	}

	dist, err := NewDistributed("job", 0, 20, comp)
	if err != nil {
		t.Fatal(err)
	}
	state := NewState(theta, 0)
	state, _, err = Admit(state, dist)
	if err != nil {
		t.Fatal(err)
	}
	res := RunState(state, 20, 1)
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Completed["job"] != 12 {
		t.Errorf("completed at %d, want 12", res.Completed["job"])
	}

	f := SatisfySimple{Req: Simple{
		Amounts: NewNeeds(AmountOf(8, CPUAt("l1"))),
		Window:  NewInterval(0, 20),
	}}
	ok, err := Eval(res.Path, 0, f)
	if err != nil || !ok {
		t.Errorf("free capacity query = %v, %v", ok, err)
	}
}

func TestFacadeIntervalAlgebra(t *testing.T) {
	a, b := NewInterval(0, 4), NewInterval(2, 6)
	if RelationBetween(a, b).String() != "overlaps" {
		t.Errorf("relation = %v", RelationBetween(a, b))
	}
	set := ComposeRelations(RelationBetween(a, b), RelationBetween(b, NewInterval(8, 9)))
	if set.String() != "{before}" {
		t.Errorf("composition = %v", set)
	}
}

func TestFacadeParseSet(t *testing.T) {
	s, err := ParseSet("5:cpu@l1:(0,3),2:network@l1>l2:(1,4)")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTerms() != 2 {
		t.Errorf("terms = %d", s.NumTerms())
	}
	if !strings.Contains(s.String(), "⟨cpu,l1⟩") {
		t.Errorf("String = %q", s.String())
	}
	if _, err := ParseSet("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFacadeSimulationPipeline(t *testing.T) {
	jobs, err := GenerateWorkload(WorkloadConfig{
		Seed: 3, Locations: []Location{"l1", "l2"},
		NumJobs: 20, MeanInterarrival: 5,
		ActorsMin: 1, ActorsMax: 2, StepsMin: 1, StepsMax: 3,
		SendProb: 0.2, EvalWeightMax: 2, SlackFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateChurn(ChurnConfig{
		Seed: 4, Locations: []Location{"l1", "l2"},
		Horizon: 200, MeanInterarrival: 5,
		LeaseMin: 10, LeaseMax: 40, RateMin: 1, RateMax: 3,
		LinkProb: 0.3, Base: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{Policy: RotaPolicy(), Executor: ExecPlanned}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 || res.Violations != 0 {
		t.Errorf("rota assurance broken: %+v", res)
	}
	for _, mk := range []func() Policy{NaiveTotalPolicy, AlwaysAdmitPolicy, EDFFeasiblePolicy} {
		p := mk()
		if p.Name() == "" {
			t.Error("unnamed policy")
		}
	}
	// Baseline runs under the greedy executor.
	res2, err := Simulate(SimConfig{Policy: AlwaysAdmitPolicy(), Executor: ExecGreedyEDF}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Admitted != res2.Offered {
		t.Errorf("always-admit rejected something: %+v", res2)
	}
}

func TestFacadeStateRules(t *testing.T) {
	theta := NewSet(NewTerm(UnitsRate(2), CPUAt("l1"), NewInterval(0, 10)))
	s := NewState(theta, 0)
	// Acquisition.
	s2, tr := Acquire(s, NewSet(NewTerm(UnitsRate(1), CPUAt("l1"), NewInterval(0, 10))))
	if tr.Kind.String() != "acquire" {
		t.Errorf("kind = %v", tr.Kind)
	}
	if got := s2.Theta.MinRate(CPUAt("l1"), NewInterval(5, 6)); got != UnitsRate(3) {
		t.Errorf("rate after acquire = %d", got)
	}
	// Admission, checked by the independent verifier.
	comp, err := Realize(PaperCost(), "a1", Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistributed("later", 5, 10, comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, plan, err := Admit(s2, dist); err != nil {
		t.Fatal(err)
	} else if err := VerifyPlan(s2.Theta, ConcurrentOf(dist), plan); err != nil {
		t.Errorf("VerifyPlan: %v", err)
	}
}

func TestFacadeWorkflowAndCostSurface(t *testing.T) {
	// Cover the facade surface for workflows, the cost model and action
	// constructors, exactly as a downstream user would compose them.
	theta := NewSet(NewTerm(UnitsRate(2), CPUAt("l1"), NewInterval(0, 30)))
	comp, err := Realize(PaperCost(), "w", Evaluate("w", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}

	// The paper's Φ: one evaluate is 8 cpu.
	amounts, err := PaperCost().Amounts(Evaluate("w", "l1", 1))
	if err != nil || amounts[CPUAt("l1")] != UnitsQty(8) {
		t.Errorf("PaperCost = %v, %v", amounts, err)
	}

	// Action constructors.
	for _, a := range []Action{
		Create("w", "l1", "kid"),
		Migrate("w", "l1", "l2", 4),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", a, err)
		}
	}

	// Workflows.
	seg2, err := Realize(PaperCost(), "v", Evaluate("v", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkflow("wf", 0, 30,
		[]Segmented{
			{Actor: "w", Segments: []Computation{comp}},
			{Actor: "v", Segments: []Computation{seg2}},
		},
		[]WaitEdge{{
			From: SegmentRef{Actor: "w", Segment: 0},
			To:   SegmentRef{Actor: "v", Segment: 0},
		}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FeasibleWorkflow(theta, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWorkflowPlan(theta, w, plan); err != nil {
		t.Errorf("VerifyWorkflowPlan: %v", err)
	}
	vStart := plan.StartAt[SegmentRef{Actor: "v", Segment: 0}]
	wDone := plan.DoneAt[SegmentRef{Actor: "w", Segment: 0}]
	if vStart < wDone {
		t.Errorf("wait edge violated: v starts %d before w done %d", vStart, wDone)
	}
}

func TestFacadeExplorerAndRepair(t *testing.T) {
	theta := NewSet(NewTerm(UnitsRate(2), CPUAt("l1"), NewInterval(0, 8)))
	comp, err := Realize(PaperCost(), "a1", Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewDistributed("j", 0, 8, comp)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Explorer{Pending: []Distributed{job}, Horizon: 8}
	ok, witness, err := ex.ExistsPath(NewState(theta, 0), core.True{})
	if err != nil || !ok || witness == nil {
		t.Fatalf("ExistsPath: %v %v", ok, err)
	}

	// Repair through the facade: admit, renege everything, repair fails
	// (no capacity), succeeds when capacity is restored.
	s := NewState(theta, 0)
	s, _, err = Admit(s, job)
	if err != nil {
		t.Fatal(err)
	}
	s.Theta = NewSet() // total renege
	s, _, viols := core.Tick(s, 1)
	if len(viols) == 0 {
		t.Fatal("expected violations")
	}
	if _, err := Repair(s, "j", viols); err == nil {
		t.Error("repair without capacity should fail")
	}
	s2, _ := Acquire(s, NewSet(NewTerm(UnitsRate(2), CPUAt("l1"), NewInterval(1, 8))))
	repaired, err := Repair(s2, "j", viols)
	if err != nil {
		t.Fatalf("repair with restored capacity: %v", err)
	}
	res := RunState(repaired, 0, 1)
	if len(res.Violations) != 0 || res.Completed["j"] > 8 {
		t.Errorf("repaired run: %v, done %d", res.Violations, res.Completed["j"])
	}

	// AmountOf helper.
	if AmountOf(3, CPUAt("l1")).Qty != UnitsQty(3) {
		t.Error("AmountOf wrong")
	}
}
