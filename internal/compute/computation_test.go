package compute

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

var (
	cpuL1  = resource.CPUAt("l1")
	cpuL2  = resource.CPUAt("l2")
	netL12 = resource.Link("l1", "l2")
)

func amt(units int64, lt resource.LocatedType) resource.Amounts {
	return resource.NewAmounts(resource.AmountOf(units, lt))
}

func step(op Op, amounts resource.Amounts) Step {
	a := Action{Op: op, Actor: "a1", Loc: "l1", Size: 1}
	switch op {
	case OpSend:
		a.Target, a.Dest = "a2", "l2"
	case OpCreate:
		a.Target = "b"
	case OpMigrate:
		a.Dest = "l2"
	}
	return Step{Action: a, Amounts: amounts}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpSend: "send", OpEvaluate: "evaluate", OpCreate: "create",
		OpReady: "ready", OpMigrate: "migrate",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op %d String = %q, want %q", op, got, want)
		}
	}
	if Op(0).Valid() || Op(9).Valid() {
		t.Error("invalid ops reported valid")
	}
	if got := Op(9).String(); got != "Op(9)" {
		t.Errorf("invalid op String = %q", got)
	}
}

func TestActionConstructorsAndValidate(t *testing.T) {
	good := []Action{
		Send("a1", "l1", "a2", "l2", 4),
		Evaluate("a1", "l1", 8),
		Create("a1", "l1", "b"),
		Ready("a1", "l1"),
		Migrate("a1", "l1", "l2", 16),
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", a, err)
		}
	}
	bad := []Action{
		{},
		{Op: OpSend, Actor: "a1", Loc: "l1"}, // no target
		{Op: OpSend, Actor: "a1", Loc: "l1", Target: "a2"}, // no dest
		{Op: OpEvaluate, Loc: "l1"},                        // no actor
		{Op: OpEvaluate, Actor: "a1"},                      // no location
		{Op: OpCreate, Actor: "a1", Loc: "l1"},             // no child
		{Op: OpMigrate, Actor: "a1", Loc: "l1"},            // no destination
		{Op: OpEvaluate, Actor: "a1", Loc: "l1", Size: -1}, // negative size
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", a)
		}
	}
}

func TestActionString(t *testing.T) {
	tests := []struct {
		a    Action
		want string
	}{
		{Send("a1", "l1", "a2", "l2", 1), "a1.send(a2)@l1→l2"},
		{Evaluate("a1", "l1", 1), "a1.evaluate@l1"},
		{Create("a1", "l1", "b"), "a1.create(b)@l1"},
		{Migrate("a1", "l1", "l2", 1), "a1.migrate(l1→l2)"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestNewComputationValidates(t *testing.T) {
	ok := step(OpEvaluate, amt(8, cpuL1))
	if _, err := NewComputation("a1", ok); err != nil {
		t.Fatalf("valid computation rejected: %v", err)
	}
	// Wrong owner.
	stranger := ok
	stranger.Action.Actor = "zz"
	if _, err := NewComputation("a1", stranger); err == nil {
		t.Error("foreign step should be rejected")
	}
	// Invalid action.
	if _, err := NewComputation("a1", Step{Action: Action{}}); err == nil {
		t.Error("invalid action should be rejected")
	}
	empty, err := NewComputation("a1")
	if err != nil || len(empty.Steps) != 0 {
		t.Errorf("empty computation: %v, %v", empty, err)
	}
}

func TestTotalAmounts(t *testing.T) {
	c, err := NewComputation("a1",
		step(OpEvaluate, amt(8, cpuL1)),
		step(OpSend, amt(4, netL12)),
		step(OpEvaluate, amt(2, cpuL1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	total := c.TotalAmounts()
	if total[cpuL1] != resource.QuantityFromUnits(10) {
		t.Errorf("cpu total = %d", total[cpuL1])
	}
	if total[netL12] != resource.QuantityFromUnits(4) {
		t.Errorf("net total = %d", total[netL12])
	}
}

func TestPhasesGroupsSameTypeRuns(t *testing.T) {
	// evaluate;evaluate (cpu) | send (net) | evaluate (cpu) ⇒ 3 phases.
	c, err := NewComputation("a1",
		step(OpEvaluate, amt(8, cpuL1)),
		step(OpEvaluate, amt(5, cpuL1)),
		step(OpSend, amt(4, netL12)),
		step(OpEvaluate, amt(2, cpuL1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	phases := c.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(phases), phases)
	}
	if got, _ := phases[0].Amounts.Lookup(cpuL1); got != resource.QuantityFromUnits(13) {
		t.Errorf("phase 0 cpu = %d, want 13 units", got)
	}
	// The two cpu steps merge into one entry of one run.
	if len(phases[0].Amounts) != 1 || cap(phases[0].Amounts) != 1 {
		t.Errorf("phase 0 amounts = %v (cap %d), want one entry", phases[0].Amounts, cap(phases[0].Amounts))
	}
	if got, _ := phases[1].Amounts.Lookup(netL12); got != resource.QuantityFromUnits(4) {
		t.Errorf("phase 1 net = %d", got)
	}
	if got, _ := phases[2].Amounts.Lookup(cpuL1); got != resource.QuantityFromUnits(2) {
		t.Errorf("phase 2 cpu = %d", got)
	}
}

func TestPhasesMultiTypeStepStandsAlone(t *testing.T) {
	multi := resource.NewAmounts(
		resource.AmountOf(3, cpuL1),
		resource.AmountOf(2, netL12),
		resource.AmountOf(3, cpuL2),
	)
	c, err := NewComputation("a1",
		step(OpEvaluate, amt(8, cpuL1)),
		step(OpMigrate, multi),
		step(OpEvaluate, amt(2, cpuL1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	phases := c.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	if _, single := phases[1].Amounts.SingleType(); single {
		t.Error("migrate phase should be multi-type")
	}
}

func TestPhasesSkipsFreeSteps(t *testing.T) {
	c, err := NewComputation("a1",
		step(OpEvaluate, amt(8, cpuL1)),
		step(OpReady, resource.NewAmounts()), // free
		step(OpEvaluate, amt(2, cpuL1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Free step between two same-type runs: the runs merge.
	phases := c.Phases()
	if len(phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(phases))
	}
	if got, _ := phases[0].Amounts.Lookup(cpuL1); got != resource.QuantityFromUnits(10) {
		t.Errorf("merged cpu = %d", got)
	}
}

func TestNewDistributed(t *testing.T) {
	c1, _ := NewComputation("a1", step(OpEvaluate, amt(8, cpuL1)))
	c2raw := step(OpEvaluate, amt(8, cpuL1))
	c2raw.Action.Actor = "a2"
	c2, _ := NewComputation("a2", c2raw)

	d, err := NewDistributed("job", 0, 20, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Window() != interval.New(0, 20) {
		t.Errorf("Window = %v", d.Window())
	}
	if n := len(d.Actors[0].Steps) + len(d.Actors[1].Steps); n != 2 {
		t.Errorf("steps = %d, want 2", n)
	}
	if got := d.TotalAmounts()[cpuL1]; got != resource.QuantityFromUnits(16) {
		t.Errorf("TotalAmounts cpu = %d", got)
	}
	if !strings.Contains(d.String(), "job") {
		t.Errorf("String = %q", d.String())
	}
	if _, err := NewDistributed("bad", 5, 5, c1); err == nil {
		t.Error("empty window should be rejected")
	}
	if _, err := NewDistributed("dup", 0, 10, c1, c1); err == nil {
		t.Error("duplicate actor should be rejected")
	}
}
