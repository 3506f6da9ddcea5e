package compute

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

func wfSeg(t *testing.T, a ActorName, units int64) Computation {
	t.Helper()
	st := Step{
		Action:  Evaluate(a, "l1", 1),
		Amounts: resource.NewAmounts(resource.AmountOf(units, cpuL1)),
	}
	c, err := NewComputation(a, st)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWorkflowConstructionAndAccessors(t *testing.T) {
	a := Segmented{Actor: "a", Segments: []Computation{wfSeg(t, "a", 4), wfSeg(t, "a", 2)}}
	b := Segmented{Actor: "b", Segments: []Computation{wfSeg(t, "b", 6)}}
	edge := WaitEdge{
		From: SegmentRef{Actor: "a", Segment: 0},
		To:   SegmentRef{Actor: "b", Segment: 0},
	}
	w, err := NewWorkflow("wf", 2, 20, []Segmented{a, b}, []WaitEdge{edge})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumSegments() != 3 {
		t.Errorf("NumSegments = %d", w.NumSegments())
	}
	if !strings.Contains(w.String(), "3 segments") || !strings.Contains(w.String(), "1 waits") {
		t.Errorf("String = %q", w.String())
	}
	if got := edge.From.String(); got != "a/0" {
		t.Errorf("SegmentRef String = %q", got)
	}

	// Segment lookup.
	if seg, ok := w.Segment(SegmentRef{Actor: "a", Segment: 1}); !ok || seg.Actor != "a" {
		t.Error("Segment lookup failed")
	}
	if _, ok := w.Segment(SegmentRef{Actor: "a", Segment: 9}); ok {
		t.Error("out-of-range segment found")
	}
	if _, ok := w.Segment(SegmentRef{Actor: "zz", Segment: 0}); ok {
		t.Error("unknown actor segment found")
	}

	// Dependencies: b/0 waits on a/0; a/1 follows a/0 implicitly.
	deps := w.Dependencies(SegmentRef{Actor: "b", Segment: 0})
	if len(deps) != 1 || deps[0] != (SegmentRef{Actor: "a", Segment: 0}) {
		t.Errorf("deps of b/0 = %v", deps)
	}
	deps = w.Dependencies(SegmentRef{Actor: "a", Segment: 1})
	if len(deps) != 1 || deps[0] != (SegmentRef{Actor: "a", Segment: 0}) {
		t.Errorf("deps of a/1 = %v", deps)
	}
	if got := w.Dependencies(SegmentRef{Actor: "a", Segment: 0}); len(got) != 0 {
		t.Errorf("deps of a/0 = %v", got)
	}

	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != (SegmentRef{Actor: "a", Segment: 0}) {
		t.Errorf("TopoOrder = %v", order)
	}
}

func TestIndependentLifting(t *testing.T) {
	c1 := wfSeg(t, "a", 4)
	c2raw := Step{Action: Evaluate("b", "l1", 1), Amounts: resource.NewAmounts(resource.AmountOf(2, cpuL1))}
	c2, err := NewComputation("b", c2raw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed("job", 1, 9, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	w := Independent(d)
	if w.Name != "job" || w.Start != 1 || w.Deadline != 9 {
		t.Errorf("Independent header = %+v", w)
	}
	if w.NumSegments() != 2 || len(w.Edges) != 0 {
		t.Errorf("Independent shape: %d segments, %d edges", w.NumSegments(), len(w.Edges))
	}
}

func TestStepAndRequirementHelpers(t *testing.T) {
	st := Step{
		Action: Evaluate("a", "l1", 1),
		Amounts: resource.NewAmounts(
			resource.AmountOf(3, cpuL1),
			resource.AmountOf(2, netL12),
		),
	}
	if st.TotalQty() != resource.QuantityFromUnits(5) {
		t.Errorf("TotalQty = %d", st.TotalQty())
	}
	simple := Simple{Amounts: resource.NeedsOf(st.Amounts), Window: interval.New(0, 5)}
	if simple.Empty() {
		t.Error("simple requirement should not be empty")
	}
	if !strings.Contains(simple.String(), "ρ{") {
		t.Errorf("Simple String = %q", simple.String())
	}
	// NeedsOf copies: mutating the requirement must not touch the step.
	simple.Amounts[0].Qty += resource.QuantityFromUnits(100)
	if st.Amounts[cpuL1] != resource.QuantityFromUnits(3) {
		t.Error("NeedsOf aliases the step's amounts")
	}

	empty := Simple{Amounts: resource.NewNeeds(), Window: interval.New(0, 5)}
	if !empty.Empty() {
		t.Error("empty requirement misreported")
	}

	comp, err := NewComputation("a", st)
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.String(); !strings.Contains(got, "Γ(a)") || !strings.Contains(got, "evaluate") {
		t.Errorf("Computation String = %q", got)
	}
}
