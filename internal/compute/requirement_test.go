package compute

import (
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

func u(n int64) resource.Rate { return resource.FromUnits(n) }

func TestSimpleSatisfied(t *testing.T) {
	theta := resource.NewSet(
		resource.NewTerm(u(5), cpuL1, interval.New(0, 4)),  // 20 units
		resource.NewTerm(u(2), netL12, interval.New(2, 6)), // 8 units
	)
	tests := []struct {
		name string
		req  Simple
		want bool
	}{
		{
			"cpu fits",
			Simple{Amounts: resource.NewNeeds(resource.AmountOf(20, cpuL1)), Window: interval.New(0, 4)},
			true,
		},
		{
			"cpu too much",
			Simple{Amounts: resource.NewNeeds(resource.AmountOf(21, cpuL1)), Window: interval.New(0, 4)},
			false,
		},
		{
			"window clips availability",
			Simple{Amounts: resource.NewNeeds(resource.AmountOf(20, cpuL1)), Window: interval.New(2, 6)},
			false, // only 10 units of cpu inside (2,6)
		},
		{
			"multi type",
			Simple{
				Amounts: resource.NewNeeds(resource.AmountOf(10, cpuL1), resource.AmountOf(8, netL12)),
				Window:  interval.New(0, 6),
			},
			true,
		},
		{
			"absent type",
			Simple{Amounts: resource.NewNeeds(resource.AmountOf(1, cpuL2)), Window: interval.New(0, 6)},
			false,
		},
		{
			"empty requirement always satisfied",
			Simple{Amounts: resource.NewNeeds(), Window: interval.New(0, 1)},
			true,
		},
		{
			"empty window with demands",
			Simple{Amounts: resource.NewNeeds(resource.AmountOf(1, cpuL1)), Window: interval.Interval{}},
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.req.SatisfiedBy(func(lt resource.LocatedType) resource.Quantity {
				return theta.QuantityWithin(lt, tt.req.Window)
			})
			if got != tt.want {
				t.Errorf("SatisfiedBy = %v, want %v", got, tt.want)
			}
		})
	}
}

func buildSeqComputation(t *testing.T) Computation {
	t.Helper()
	c, err := NewComputation("a1",
		step(OpEvaluate, amt(8, cpuL1)), // phase 0: cpu 8
		step(OpSend, amt(4, netL12)),    // phase 1: net 4
		step(OpEvaluate, amt(6, cpuL1)), // phase 2: cpu 6
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestComplexTotals(t *testing.T) {
	c := buildSeqComputation(t)
	req := ComplexOf(c, interval.New(0, 12))
	if req.Empty() {
		t.Error("requirement should not be empty")
	}
	if total := req.Total(); total != resource.QuantityFromUnits(18) {
		t.Errorf("Total = %v", total)
	}
	if req.String() == "" {
		t.Error("String empty")
	}
}

func TestConcurrentOf(t *testing.T) {
	c1 := buildSeqComputation(t)
	raw := step(OpEvaluate, amt(3, cpuL2))
	raw.Action.Actor = "a2"
	c2, err := NewComputation("a2", raw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed("job", 0, 12, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	req := ConcurrentOf(d)
	if len(req.Actors) != 2 {
		t.Fatalf("actors = %d", len(req.Actors))
	}
	if req.Empty() {
		t.Error("should not be empty")
	}
	// Each actor's requirement is its own computation's, phase by phase.
	for i, want := range []Computation{c1, c2} {
		got := req.Actors[i]
		if got.Actor != want.Actor || got.Window != d.Window() {
			t.Errorf("actor %d = %s over %v", i, got.Actor, got.Window)
		}
		phases := want.Phases()
		if len(got.Phases) != len(phases) {
			t.Fatalf("actor %s: %d phases, want %d", got.Actor, len(got.Phases), len(phases))
		}
		for k := range phases {
			if got.Phases[k].Amounts.String() != phases[k].Amounts.String() {
				t.Errorf("actor %s phase %d = %v, want %v", got.Actor, k, got.Phases[k].Amounts, phases[k].Amounts)
			}
		}
	}
	if req.Actors[0].Total() != resource.QuantityFromUnits(18) || req.Actors[1].Total() != resource.QuantityFromUnits(3) {
		t.Errorf("totals = %v, %v", req.Actors[0].Total(), req.Actors[1].Total())
	}
	if req.String() == "" {
		t.Error("String empty")
	}

	// A distributed computation with only free steps is Empty.
	freeStep := step(OpReady, resource.NewAmounts())
	freeStep.Action.Actor = "a9"
	cFree, err := NewComputation("a9", freeStep)
	if err != nil {
		t.Fatal(err)
	}
	dFree, err := NewDistributed("free", 0, 5, cFree)
	if err != nil {
		t.Fatal(err)
	}
	if !ConcurrentOf(dFree).Empty() {
		t.Error("free computation should yield empty requirement")
	}
}
