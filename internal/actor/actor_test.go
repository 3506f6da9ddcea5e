package actor

import (
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

func mustRealize(t testing.TB, name compute.ActorName, actions ...compute.Action) compute.Computation {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), name, actions...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTaskLifecycle(t *testing.T) {
	comp := mustRealize(t, "a1", compute.Evaluate("a1", "l1", 1)) // 8 cpu
	task := NewTask("job", comp, 10)
	if task.Done() {
		t.Fatal("fresh task done")
	}
	if task.DoneAt() != -1 {
		t.Fatal("DoneAt before completion")
	}
	if got := task.Needs().Total(); got != resource.QuantityFromUnits(8) {
		t.Fatalf("Needs().Total() = %d", got)
	}
	step, ok := task.steps[task.stepIdx], !task.Done()
	if !ok || step.Action.Op != compute.OpEvaluate {
		t.Fatalf("Step = %+v, %v", step, ok)
	}

	rt := NewRuntime(0)
	if err := rt.Spawn(task); err != nil {
		t.Fatal(err)
	}
	// Partial feed.
	if used := task.Feed(rt, cpuL1, resource.QuantityFromUnits(3), 0); used != resource.QuantityFromUnits(3) {
		t.Fatalf("Feed used %d", used)
	}
	if task.Done() {
		t.Fatal("done too early")
	}
	// Over-feed absorbs only the remainder.
	if used := task.Feed(rt, cpuL1, resource.QuantityFromUnits(100), 2); used != resource.QuantityFromUnits(5) {
		t.Fatalf("final Feed used %d", used)
	}
	if !task.Done() {
		t.Fatal("task should be done")
	}
	if task.DoneAt() != 3 {
		t.Fatalf("DoneAt = %d, want 3 (end of tick 2)", task.DoneAt())
	}
	// Feeding a done task absorbs nothing.
	if used := task.Feed(rt, cpuL1, resource.QuantityFromUnits(1), 4); used != 0 {
		t.Fatal("done task absorbed resources")
	}
	// Wrong type absorbs nothing.
	task2 := NewTask("job", mustRealize(t, "a2", compute.Evaluate("a2", "l1", 1)), 10)
	if used := task2.Feed(rt, netL12, resource.QuantityFromUnits(1), 0); used != 0 {
		t.Fatal("wrong-type feed absorbed")
	}
}

func TestTaskSkipsFreeSteps(t *testing.T) {
	free := compute.Step{Action: compute.Ready("a1", "l1"), Amounts: resource.NewAmounts()}
	paid := compute.Step{
		Action:  compute.Evaluate("a1", "l1", 1),
		Amounts: resource.NewAmounts(resource.AmountOf(2, cpuL1)),
	}
	comp, err := compute.NewComputation("a1", free, paid, free)
	if err != nil {
		t.Fatal(err)
	}
	task := NewTask("job", comp, 10)
	step, ok := task.steps[task.stepIdx], !task.Done()
	if !ok || step.Amounts.Empty() {
		t.Fatalf("current step should be the paid one: %+v", step)
	}
	rt := NewRuntime(0)
	task.Feed(rt, cpuL1, resource.QuantityFromUnits(2), 0)
	if !task.Done() {
		t.Error("trailing free step should not block completion")
	}
}

func TestSideEffects(t *testing.T) {
	comp := mustRealize(t, "a1",
		compute.Send("a1", "l1", "b", "l2", 2),
		compute.Create("a1", "l1", "kid"),
		compute.Migrate("a1", "l1", "l2", 4),
	)
	task := NewTask("job", comp, 50)
	rt := NewRuntime(0)
	if err := rt.Spawn(task); err != nil {
		t.Fatal(err)
	}
	rt.OnCreate = func(parent *Task, child compute.ActorName) *compute.Computation {
		c := mustRealize(t, child, compute.Evaluate(child, "l1", 1))
		return &c
	}
	if task.loc != "l1" {
		t.Fatalf("initial location %s", task.loc)
	}
	// Complete the send (4 net).
	task.Feed(rt, netL12, resource.QuantityFromUnits(4), 1)
	if len(rt.Messages) != 1 || rt.Messages[0].To != "b" || rt.Messages[0].At != 1 {
		t.Fatalf("Messages = %+v", rt.Messages)
	}
	// Complete the create (5 cpu): child spawns with inherited deadline.
	task.Feed(rt, cpuL1, resource.QuantityFromUnits(5), 2)
	if len(rt.Creations) != 1 || rt.Creations[0].Child != "kid" {
		t.Fatalf("Creations = %+v", rt.Creations)
	}
	kid, ok := rt.index["kid"]
	if !ok {
		t.Fatal("child not spawned")
	}
	if kid.Deadline != 50 || kid.Job != "job" {
		t.Errorf("child inherits job/deadline: %+v", kid)
	}
	// Complete the migrate (3 cpu@l1 + 4 net + 3 cpu@l2).
	task.Feed(rt, cpuL1, resource.QuantityFromUnits(3), 3)
	task.Feed(rt, netL12, resource.QuantityFromUnits(4), 3)
	task.Feed(rt, cpuL2, resource.QuantityFromUnits(3), 4)
	if len(rt.Migrations) != 1 {
		t.Fatalf("Migrations = %+v", rt.Migrations)
	}
	if task.loc != "l2" {
		t.Errorf("location after migrate = %s", task.loc)
	}
	if !task.Done() {
		t.Error("task should be done after all steps")
	}
}

func TestSpawnDuplicateRejected(t *testing.T) {
	rt := NewRuntime(0)
	c := mustRealize(t, "a1", compute.Ready("a1", "l1"))
	if err := rt.Spawn(NewTask("j", c, 5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn(NewTask("j", c, 5)); err == nil {
		t.Error("duplicate spawn accepted")
	}
}

func TestSpawnAllFreeScriptCompletesImmediately(t *testing.T) {
	rt := NewRuntime(7)
	free := compute.Step{Action: compute.Ready("a1", "l1"), Amounts: resource.NewAmounts()}
	comp, err := compute.NewComputation("a1", free, free)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn(NewTask("j", comp, 20)); err != nil {
		t.Fatal(err)
	}
	task := rt.index["a1"]
	if !task.Done() || task.DoneAt() != 7 {
		t.Errorf("free script: done=%v at %d, want done at 7", task.Done(), task.DoneAt())
	}
}

func TestTickEDFPriorityAndWorkConservation(t *testing.T) {
	rt := NewRuntime(0)
	urgent := NewTask("u", mustRealize(t, "u1", compute.Evaluate("u1", "l1", 1)), 5) // 8 cpu, deadline 5
	lax := NewTask("l", mustRealize(t, "l1", compute.Evaluate("l1", "l1", 1)), 50)   // 8 cpu, deadline 50
	if err := rt.Spawn(lax); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn(urgent); err != nil {
		t.Fatal(err)
	}
	// Rate 10: urgent absorbs its full 8, lax gets the remaining 2.
	avail := resource.NewSet(resource.NewTerm(u(10), cpuL1, interval.New(0, 10)))
	consumed := rt.TickEDF(&avail)
	if len(consumed) != 2 {
		t.Fatalf("consumptions = %+v", consumed)
	}
	if consumed[0].Task != "u1" || consumed[0].Qty != resource.QuantityFromUnits(8) {
		t.Errorf("EDF order violated: %+v", consumed)
	}
	if consumed[1].Task != "l1" || consumed[1].Qty != resource.QuantityFromUnits(2) {
		t.Errorf("work conservation violated: %+v", consumed)
	}
	if !urgent.Done() || lax.Done() {
		t.Error("completion states wrong")
	}
	if rt.Now() != 1 {
		t.Errorf("clock = %d", rt.Now())
	}
	// Tick availability expired.
	if got := avail.MinRate(cpuL1, interval.New(0, 1)); got != 0 {
		t.Errorf("tick-0 availability survived: %d", got)
	}
	if got := avail.MinRate(cpuL1, interval.New(5, 6)); got != u(10) {
		t.Errorf("future availability lost: %d", got)
	}
}

func TestTickEDFMultiTickCompletion(t *testing.T) {
	rt := NewRuntime(0)
	task := NewTask("j", mustRealize(t, "a1", compute.Evaluate("a1", "l1", 1)), 10) // 8 cpu
	if err := rt.Spawn(task); err != nil {
		t.Fatal(err)
	}
	avail := resource.NewSet(resource.NewTerm(u(3), cpuL1, interval.New(0, 10)))
	for i := 0; i < 3 && !task.Done(); i++ {
		rt.TickEDF(&avail)
	}
	if !task.Done() {
		t.Fatal("8 units at rate 3 should finish within 3 ticks")
	}
	if task.DoneAt() != 3 {
		t.Errorf("DoneAt = %d, want 3", task.DoneAt())
	}
	// Total consumed should be exactly 8 units: 3+3+2.
	if got := avail.QuantityWithin(cpuL1, interval.New(3, 10)); got != resource.QuantityFromUnits(21) {
		t.Errorf("remaining = %d, want 21 units", got)
	}
}

func TestTickEDFStarvationUnderScarcity(t *testing.T) {
	// Two tasks need the same cpu; supply covers only one by its deadline.
	rt := NewRuntime(0)
	t1 := NewTask("j1", mustRealize(t, "a1", compute.Evaluate("a1", "l1", 1)), 4)
	t2 := NewTask("j2", mustRealize(t, "a2", compute.Evaluate("a2", "l1", 1)), 4)
	if err := rt.Spawn(t1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn(t2); err != nil {
		t.Fatal(err)
	}
	avail := resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 8)))
	for i := 0; i < 8; i++ {
		rt.TickEDF(&avail)
	}
	doneOnTime := 0
	for _, task := range rt.Tasks() {
		if task.Done() && task.DoneAt() <= 4 {
			doneOnTime++
		}
	}
	if doneOnTime != 1 {
		t.Errorf("%d tasks met deadline, want exactly 1 (capacity for one)", doneOnTime)
	}
	if len(rt.Live()) != 0 {
		t.Errorf("both should eventually finish, live = %d", len(rt.Live()))
	}
}

func BenchmarkTickEDF(b *testing.B) {
	// 16 live tasks sharing one cpu pool.
	rt := NewRuntime(0)
	avail := resource.NewSet(resource.NewTerm(u(32), cpuL1, interval.New(0, 1<<40)))
	for i := 0; i < 16; i++ {
		name := compute.ActorName(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		comp, err := cost.Realize(cost.Paper(), name, compute.Evaluate(name, "l1", 1))
		if err != nil {
			b.Fatal(err)
		}
		comp.Steps[0].Amounts = resource.NewAmounts(resource.Amount{
			Qty: resource.QuantityFromUnits(1 << 40), Type: cpuL1,
		})
		if err := rt.Spawn(NewTask("bench", comp, 1<<40)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.TickEDF(&avail)
	}
}
