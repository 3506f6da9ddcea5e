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

// seg builds a one-evaluate segment with the given cpu units at loc.
func seg(t testing.TB, a compute.ActorName, loc resource.Location, units int64) compute.Computation {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), a, compute.Evaluate(a, loc, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(units, resource.CPUAt(loc)))
	return c
}

// pipelineWorkflow: producer (two segments at l1) feeds consumer (one
// segment at l2) — consumer waits for producer's first segment.
func pipelineWorkflow(t testing.TB, deadline interval.Time) compute.Workflow {
	t.Helper()
	producer := compute.Segmented{
		Actor:    "prod",
		Segments: []compute.Computation{seg(t, "prod", "l1", 4), seg(t, "prod", "l1", 4)},
	}
	consumer := compute.Segmented{
		Actor:    "cons",
		Segments: []compute.Computation{seg(t, "cons", "l2", 6)},
	}
	w, err := compute.NewWorkflow("pipe", 0, deadline,
		[]compute.Segmented{producer, consumer},
		[]compute.WaitEdge{{
			From: compute.SegmentRef{Actor: "prod", Segment: 0},
			To:   compute.SegmentRef{Actor: "cons", Segment: 0},
		}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorkflowValidation(t *testing.T) {
	good := pipelineWorkflow(t, 20)
	if good.NumSegments() != 3 {
		t.Errorf("segments = %d", good.NumSegments())
	}
	if good.String() == "" {
		t.Error("empty String")
	}

	s1 := seg(t, "a", "l1", 2)
	mk := func(edges []compute.WaitEdge) error {
		_, err := compute.NewWorkflow("w", 0, 10,
			[]compute.Segmented{{Actor: "a", Segments: []compute.Computation{s1, s1}}}, edges)
		return err
	}
	if err := mk(nil); err != nil {
		t.Errorf("plain workflow rejected: %v", err)
	}
	// Bad references.
	if err := mk([]compute.WaitEdge{{
		From: compute.SegmentRef{Actor: "zz", Segment: 0},
		To:   compute.SegmentRef{Actor: "a", Segment: 0},
	}}); err == nil {
		t.Error("unknown actor accepted")
	}
	if err := mk([]compute.WaitEdge{{
		From: compute.SegmentRef{Actor: "a", Segment: 9},
		To:   compute.SegmentRef{Actor: "a", Segment: 0},
	}}); err == nil {
		t.Error("out-of-range segment accepted")
	}
	if err := mk([]compute.WaitEdge{{
		From: compute.SegmentRef{Actor: "a", Segment: 0},
		To:   compute.SegmentRef{Actor: "a", Segment: 0},
	}}); err == nil {
		t.Error("self edge accepted")
	}
	// Cycle: segment 1 waits for... segment 1 comes after 0 implicitly;
	// add edge 1→0 to close the loop.
	if err := mk([]compute.WaitEdge{{
		From: compute.SegmentRef{Actor: "a", Segment: 1},
		To:   compute.SegmentRef{Actor: "a", Segment: 0},
	}}); err == nil {
		t.Error("cyclic workflow accepted")
	}
	// Empty window.
	if _, err := compute.NewWorkflow("w", 5, 5,
		[]compute.Segmented{{Actor: "a", Segments: []compute.Computation{s1}}}, nil); err == nil {
		t.Error("empty window accepted")
	}
	// No segments.
	if _, err := compute.NewWorkflow("w", 0, 5,
		[]compute.Segmented{{Actor: "a"}}, nil); err == nil {
		t.Error("segmentless actor accepted")
	}
	// Foreign segment.
	if _, err := compute.NewWorkflow("w", 0, 5,
		[]compute.Segmented{{Actor: "b", Segments: []compute.Computation{s1}}}, nil); err == nil {
		t.Error("foreign segment accepted")
	}
	// Duplicate actor.
	if _, err := compute.NewWorkflow("w", 0, 5,
		[]compute.Segmented{
			{Actor: "a", Segments: []compute.Computation{s1}},
			{Actor: "a", Segments: []compute.Computation{s1}},
		}, nil); err == nil {
		t.Error("duplicate actor accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	w := pipelineWorkflow(t, 20)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[compute.SegmentRef]int, len(order))
	for i, ref := range order {
		pos[ref] = i
	}
	prod0 := compute.SegmentRef{Actor: "prod", Segment: 0}
	prod1 := compute.SegmentRef{Actor: "prod", Segment: 1}
	cons0 := compute.SegmentRef{Actor: "cons", Segment: 0}
	if pos[prod0] > pos[prod1] {
		t.Error("intra-actor order violated")
	}
	if pos[prod0] > pos[cons0] {
		t.Error("wait edge order violated")
	}
}

func TestFeasibleWorkflowPipeline(t *testing.T) {
	w := pipelineWorkflow(t, 20)
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 20)),
		resource.NewTerm(u(2), cpuL2, interval.New(0, 20)),
	)
	plan, err := FeasibleWorkflow(theta, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWorkflow(theta, w, plan); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	prod0 := compute.SegmentRef{Actor: "prod", Segment: 0}
	cons0 := compute.SegmentRef{Actor: "cons", Segment: 0}
	// prod/0: 4 units at rate 2 → done t=2. cons/0 starts at 2 (not 0!)
	// even though l2 cpu was free from the start.
	if got := plan.DoneAt[prod0]; got != 2 {
		t.Errorf("prod/0 done at %d", got)
	}
	if got := plan.StartAt[cons0]; got != 2 {
		t.Errorf("cons/0 starts at %d, want 2 (must wait)", got)
	}
	if got := plan.DoneAt[cons0]; got != 5 { // 6 units at rate 2
		t.Errorf("cons/0 done at %d", got)
	}
	if plan.Finish != 5 {
		t.Errorf("Finish = %d", plan.Finish)
	}
}

func TestFeasibleWorkflowDeadlineBitesThroughDependency(t *testing.T) {
	// The chain prod/0 (2 ticks) → cons/0 (3 ticks) needs ≥ 5 ticks; a
	// 4-tick deadline is infeasible even though each segment alone fits.
	w := pipelineWorkflow(t, 4)
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 4)),
		resource.NewTerm(u(2), cpuL2, interval.New(0, 4)),
	)
	if _, err := FeasibleWorkflow(theta, w); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestIndependentDegenerateWorkflow(t *testing.T) {
	// The §IV special case: d as a workflow of one segment per actor and
	// no waits schedules like Concurrent.
	c1 := seg(t, "a1", "l1", 8)
	c2 := seg(t, "a2", "l1", 8)
	d, err := compute.NewDistributed("job", 0, 8, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	theta := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8)))
	w := compute.Workflow{Name: d.Name, Start: d.Start, Deadline: d.Deadline}
	for _, a := range d.Actors {
		w.Actors = append(w.Actors, compute.Segmented{Actor: a.Actor, Segments: []compute.Computation{a}})
	}
	plan, err := FeasibleWorkflow(theta, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWorkflow(theta, w, plan); err != nil {
		t.Fatal(err)
	}
	if plan.Finish != 8 {
		t.Errorf("Finish = %d, want 8 (16 units at rate 2)", plan.Finish)
	}
}

func TestVerifyWorkflowRejectsCorruption(t *testing.T) {
	w := pipelineWorkflow(t, 20)
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 20)),
		resource.NewTerm(u(2), cpuL2, interval.New(0, 20)),
	)
	plan, err := FeasibleWorkflow(theta, w)
	if err != nil {
		t.Fatal(err)
	}
	cons0 := compute.SegmentRef{Actor: "cons", Segment: 0}

	// Precedence violation: pretend the consumer started at 0.
	broken := clonePlan(plan)
	broken.StartAt[cons0] = 0
	if err := VerifyWorkflow(theta, w, broken); err == nil {
		t.Error("precedence violation accepted")
	}
	// Missing segment.
	broken = clonePlan(plan)
	delete(broken.DoneAt, cons0)
	if err := VerifyWorkflow(theta, w, broken); err == nil {
		t.Error("missing segment accepted")
	}
	// Over-demand.
	broken = clonePlan(plan)
	broken.Allocs = append(broken.Allocs, WorkflowAllocation{
		Ref:  cons0,
		Term: resource.NewTerm(u(100), cpuL2, interval.New(0, 20)),
	})
	if err := VerifyWorkflow(theta, w, broken); err == nil {
		t.Error("over-demand accepted")
	}
	// Late finish.
	broken = clonePlan(plan)
	broken.Finish = 99
	if err := VerifyWorkflow(theta, w, broken); err == nil {
		t.Error("late finish accepted")
	}
	// Underfed segment.
	broken = clonePlan(plan)
	var trimmed []WorkflowAllocation
	for _, a := range broken.Allocs {
		if a.Ref != cons0 {
			trimmed = append(trimmed, a)
		}
	}
	broken.Allocs = trimmed
	if err := VerifyWorkflow(theta, w, broken); err == nil {
		t.Error("underfed segment accepted")
	}
}

func clonePlan(p WorkflowPlan) WorkflowPlan {
	out := WorkflowPlan{
		Allocs:  append([]WorkflowAllocation(nil), p.Allocs...),
		StartAt: make(map[compute.SegmentRef]interval.Time, len(p.StartAt)),
		DoneAt:  make(map[compute.SegmentRef]interval.Time, len(p.DoneAt)),
		Finish:  p.Finish,
	}
	for k, v := range p.StartAt {
		out.StartAt[k] = v
	}
	for k, v := range p.DoneAt {
		out.DoneAt[k] = v
	}
	return out
}

func TestPropertyWorkflowPlansVerify(t *testing.T) {
	// Random DAG workflows: every plan the scheduler emits must verify.
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 200; iter++ {
		nActors := 1 + rng.Intn(3)
		var actors []compute.Segmented
		var refs []compute.SegmentRef
		for ai := 0; ai < nActors; ai++ {
			name := compute.ActorName(string(rune('a' + ai)))
			nSegs := 1 + rng.Intn(3)
			var segs []compute.Computation
			for si := 0; si < nSegs; si++ {
				segs = append(segs, seg(t, name, "l1", int64(1+rng.Intn(5))))
				refs = append(refs, compute.SegmentRef{Actor: name, Segment: si})
			}
			actors = append(actors, compute.Segmented{Actor: name, Segments: segs})
		}
		// Random forward edges (acyclic by construction: only from earlier
		// refs to later refs in the flattened order across actors).
		var edges []compute.WaitEdge
		for i := 0; i < rng.Intn(4); i++ {
			a, b := rng.Intn(len(refs)), rng.Intn(len(refs))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if refs[a].Actor == refs[b].Actor {
				continue // intra-actor order already implied
			}
			edges = append(edges, compute.WaitEdge{From: refs[a], To: refs[b]})
		}
		w, err := compute.NewWorkflow("rand", 0, interval.Time(10+rng.Intn(30)), actors, edges)
		if err != nil {
			t.Fatal(err)
		}
		theta := resource.NewSet(resource.NewTerm(
			resource.FromUnits(int64(1+rng.Intn(3))), cpuL1,
			interval.New(0, interval.Time(8+rng.Intn(40)))))
		plan, err := FeasibleWorkflow(theta, w)
		if err != nil {
			continue
		}
		if verr := VerifyWorkflow(theta, w, plan); verr != nil {
			t.Fatalf("iter %d: %v\nworkflow=%v\ntheta=%v", iter, verr, w, theta)
		}
	}
}
