package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
)

var (
	cpuL1  = resource.CPUAt("l1")
	netL12 = resource.Link("l1", "l2")
)

func u(n int64) resource.Rate { return resource.FromUnits(n) }

// evalJob builds a one-actor distributed computation doing a single
// evaluate (8 cpu at l1) in (start, deadline).
func evalJob(t testing.TB, name string, actor compute.ActorName, start, deadline interval.Time) compute.Distributed {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// seqJob builds a one-actor evaluate→send→evaluate job (8 cpu, 4 net,
// 8 cpu).
func seqJob(t testing.TB, name string, actor compute.ActorName, start, deadline interval.Time) compute.Distributed {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), actor,
		compute.Evaluate(actor, "l1", 1),
		compute.Send(actor, "l1", "peer", "l2", 1),
		compute.Evaluate(actor, "l1", 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewStateTrimsPast(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(5), cpuL1, interval.New(0, 10)))
	s := NewState(theta, 4)
	if got := s.Theta.MinRate(cpuL1, interval.New(2, 3)); got != 0 {
		t.Errorf("pre-now availability survived: %d", got)
	}
	if got := s.Theta.MinRate(cpuL1, interval.New(6, 7)); got != u(5) {
		t.Errorf("future availability lost: %d", got)
	}
	if !strings.Contains(s.String(), "t=4") {
		t.Errorf("String = %q", s.String())
	}
}

func TestAcquireRule(t *testing.T) {
	s := NewState(resource.Set{}, 5)
	join := resource.NewSet(
		resource.NewTerm(u(3), cpuL1, interval.New(0, 20)), // partly in the past
	)
	next, tr := Acquire(s, join)
	if tr.Kind != KindAcquire || tr.From != 5 || tr.To != 5 {
		t.Errorf("transition = %+v", tr)
	}
	if got := next.Theta.MinRate(cpuL1, interval.New(10, 11)); got != u(3) {
		t.Errorf("joined rate = %d", got)
	}
	if got := next.Theta.MinRate(cpuL1, interval.New(3, 4)); got != 0 {
		t.Errorf("past availability of joined resource survived")
	}
	// Original state untouched.
	if !s.Theta.Empty() {
		t.Error("Acquire mutated the source state")
	}
	if !strings.Contains(tr.Label(), "acquire") {
		t.Errorf("Label = %q", tr.Label())
	}
}

func TestAdmitAndAccommodateRule(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10)))
	s := NewState(theta, 0)
	job := evalJob(t, "j1", "a1", 0, 10)

	next, plan, err := Admit(s, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Commitments) != 1 {
		t.Fatalf("commitments = %d", len(next.Commitments))
	}
	if plan.Finish != 4 { // 8 cpu at rate 2
		t.Errorf("Finish = %d", plan.Finish)
	}
	if _, ok := next.Commitment("j1"); !ok {
		t.Error("commitment j1 missing")
	}
	// Duplicate admission must fail.
	if _, _, err := Accommodate(next, ConcurrentAt(job, 0), plan); err == nil {
		t.Error("duplicate accommodation accepted")
	}
}

func TestAccommodateRejectsPastDeadline(t *testing.T) {
	s := NewState(resource.Set{}, 20)
	job := evalJob(t, "late", "a1", 0, 10)
	if _, err := AccommodateAdditional(s, job); !errors.Is(err, ErrDeadlinePassed) {
		t.Errorf("want ErrDeadlinePassed, got %v", err)
	}
	if _, _, err := Accommodate(s, ConcurrentAt(job, 20), schedule.Plan{}); !errors.Is(err, ErrDeadlinePassed) {
		t.Errorf("want ErrDeadlinePassed, got %v", err)
	}
}

func TestAccommodateRejectsBogusPlan(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(1), cpuL1, interval.New(0, 4))) // 4 units only
	s := NewState(theta, 0)
	job := evalJob(t, "j1", "a1", 0, 4) // needs 8
	// Hand-forge a plan claiming more than available.
	forged := schedule.Plan{
		Breaks: []schedule.ActorBreaks{{Actor: "a1", Times: []interval.Time{4}}},
		Allocs: []schedule.Allocation{{
			Actor: "a1", Phase: 0,
			Term: resource.NewTerm(u(2), cpuL1, interval.New(0, 4)),
		}},
		Finish: 4,
	}
	if _, _, err := Accommodate(s, ConcurrentAt(job, 0), forged); err == nil {
		t.Error("forged plan accepted")
	}
}

func TestLeaveRule(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 20)))
	s := NewState(theta, 0)
	// Job starting in the future can leave before it starts.
	job := evalJob(t, "future", "a1", 10, 20)
	s2, _, err := Admit(s, job)
	if err != nil {
		t.Fatal(err)
	}
	s3, tr, err := Leave(s2, "future")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != KindLeave || len(s3.Commitments) != 0 {
		t.Errorf("leave failed: %+v, %d commitments", tr, len(s3.Commitments))
	}
	// Unknown computation.
	if _, _, err := Leave(s2, "ghost"); !errors.Is(err, ErrUnknownComputation) {
		t.Errorf("want ErrUnknownComputation, got %v", err)
	}
	// A computation that has started cannot leave: advance past its start.
	cur := s2
	for cur.Now < 11 {
		cur, _, _ = Tick(cur, 1)
	}
	if _, _, err := Leave(cur, "future"); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("want ErrAlreadyStarted, got %v", err)
	}
}

func TestTickClassification(t *testing.T) {
	// Idle: nothing available, nothing committed.
	s := NewState(resource.Set{}, 0)
	next, tr, viols := Tick(s, 1)
	if tr.Kind != KindIdle || len(viols) != 0 || next.Now != 1 {
		t.Errorf("idle tick: %+v", tr)
	}

	// Expire: resources but no commitments.
	s = NewState(resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 5))), 0)
	_, tr, _ = Tick(s, 1)
	if tr.Kind != KindExpire {
		t.Errorf("kind = %v, want expire", tr.Kind)
	}
	wantExp := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 1)))
	if !tr.Expired.Equal(wantExp) {
		t.Errorf("Expired = %v, want %v", tr.Expired, wantExp)
	}

	// Sequential: exactly one consumption, nothing expires.
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 4)))
	st := NewState(theta, 0)
	st2, _, err := Admit(st, evalJob(t, "j", "a1", 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, tr, viols = Tick(st2, 1)
	if tr.Kind != KindSequential {
		t.Errorf("kind = %v, want sequential (%s)", tr.Kind, tr.Label())
	}
	if len(viols) != 0 {
		t.Errorf("violations: %v", viols)
	}
	if len(tr.Consumptions) != 1 || tr.Consumptions[0].Actor != "a1" || tr.Consumptions[0].Rate != u(2) {
		t.Errorf("consumptions = %+v", tr.Consumptions)
	}

	// General: consumption plus expiration.
	theta = resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 4)),
		resource.NewTerm(u(9), netL12, interval.New(0, 9)), // nobody wants it
	)
	st = NewState(theta, 0)
	st2, _, err = Admit(st, evalJob(t, "j", "a1", 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, tr, _ = Tick(st2, 1)
	if tr.Kind != KindGeneral {
		t.Errorf("kind = %v, want general", tr.Kind)
	}

	// Concurrent: two actors at different locations consume in the same
	// tick, everything consumed.
	theta = resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 4)),
		resource.NewTerm(u(2), resource.CPUAt("l2"), interval.New(0, 4)),
	)
	st = NewState(theta, 0)
	c1, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cost.Realize(cost.Paper(), "a2", compute.Evaluate("a2", "l2", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed("pair", 0, 4, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err = Admit(st, d)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, _ = Tick(st2, 1)
	if tr.Kind != KindConcurrent {
		t.Errorf("kind = %v, want concurrent (%s)", tr.Kind, tr.Label())
	}
	if len(tr.Consumptions) != 2 {
		t.Errorf("consumptions = %+v", tr.Consumptions)
	}
}

func TestTickCompletesCommitments(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(8), cpuL1, interval.New(0, 4)))
	s := NewState(theta, 0)
	s2, plan, err := Admit(s, evalJob(t, "quick", "a1", 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 1 {
		t.Fatalf("Finish = %d", plan.Finish)
	}
	s3, tr, _ := Tick(s2, 1)
	if len(tr.Completed) != 1 || tr.Completed[0] != "quick" {
		t.Errorf("Completed = %v", tr.Completed)
	}
	if len(s3.Commitments) != 0 {
		t.Error("completed commitment not removed")
	}
}

func TestRunMeetsDeadlinesWithoutViolations(t *testing.T) {
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 20)),
		resource.NewTerm(u(1), netL12, interval.New(0, 20)),
	)
	s := NewState(theta, 0)
	job := seqJob(t, "seq", "a1", 0, 20)
	s2, plan, err := Admit(s, job)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(s2, 0, 1)
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	done, ok := res.Completed["seq"]
	if !ok {
		t.Fatal("seq never completed")
	}
	if done > job.Deadline {
		t.Errorf("completed at %d, after deadline %d", done, job.Deadline)
	}
	if done != plan.Finish {
		t.Errorf("completed at %d, plan promised %d", done, plan.Finish)
	}
}

func TestRunHorizonBound(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(1), cpuL1, interval.New(0, 100)))
	s := NewState(theta, 0)
	res := Run(s, 10, 1)
	if got := res.Path.Last().Now; got != 10 {
		t.Errorf("final time = %d, want 10", got)
	}
	if res.Path.Len() != 11 {
		t.Errorf("path length = %d, want 11", res.Path.Len())
	}
}

func TestViolationOnRenegedResources(t *testing.T) {
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10)))
	s := NewState(theta, 0)
	s2, _, err := Admit(s, evalJob(t, "doomed", "a1", 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Renege: strip all cpu after admission (simulates a peer leaving
	// without notice — violating the paper's join-with-departure-time
	// assumption, which is exactly what failure injection studies).
	s2.Theta = resource.Set{}
	_, tr, viols := Tick(s2, 1)
	if len(viols) == 0 {
		t.Fatal("reneged resources produced no violation")
	}
	v := viols[0]
	if v.Computation != "doomed" || v.Actor != "a1" || v.Type != cpuL1 || v.At != 0 {
		t.Errorf("violation = %+v", v)
	}
	if v.Error() == "" {
		t.Error("violation message empty")
	}
	if tr.Kind != KindIdle {
		t.Errorf("kind = %v (nothing consumed, nothing to expire)", tr.Kind)
	}
}

func TestTheorem4SecondComputationUsesOnlyFreeResources(t *testing.T) {
	// Capacity for exactly one job at a time: rate 2 cpu over (0,8) = 16
	// units; each job needs 8.
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8)))
	s := NewState(theta, 0)

	s2, _, err := Admit(s, evalJob(t, "first", "a1", 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Second identical job fits in the expiring half.
	s3, _, err := Admit(s2, evalJob(t, "second", "a2", 0, 8))
	if err != nil {
		t.Fatalf("second job should fit in expiring resources: %v", err)
	}
	// Third cannot.
	if _, _, err := Admit(s3, evalJob(t, "third", "a3", 0, 8)); err == nil {
		t.Error("third job admitted beyond capacity")
	}
	// And the committed pair executes cleanly — Theorem 4's "without
	// affecting the existing computations".
	res := Run(s3, 0, 1)
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Completed) != 2 {
		t.Errorf("completed = %v", res.Completed)
	}
}

func TestTransitionKindStrings(t *testing.T) {
	for k := KindSequential; k <= KindIdle; k++ {
		if strings.HasPrefix(k.String(), "TransitionKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TransitionKind(99).String() != "TransitionKind(99)" {
		t.Error("unknown kind should render numerically")
	}
}
