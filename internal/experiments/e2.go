package experiments

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/resource"
)

// E2Semantics reproduces the paper's worked formal examples: the three
// §III resource-set calculations, the §IV-A Φ constants, and a
// satisfaction check of Figure 1's semantics on a concrete computation
// path (the Theorem 3/4 pipeline in miniature).
func E2Semantics() *metrics.Table {
	t := metrics.NewTable("E2 (paper §III/§IV/Fig.1): worked examples",
		"artifact", "expected", "got", "ok")
	u := resource.FromUnits
	cpu := resource.CPUAt("l1")
	net := resource.Link("l1", "l2")

	addCheck := func(name, expected, got string) {
		t.AddRow(name, expected, got, expected == got)
	}

	// §III example 1: union across distinct located types.
	ex1 := resource.NewSet(
		resource.NewTerm(u(5), cpu, interval.New(0, 3)),
		resource.NewTerm(u(5), net, interval.New(0, 5)),
	)
	addCheck("§III ex1 union (distinct types)",
		"{[5]⟨cpu,l1⟩(0,3), [5]⟨network,l1→l2⟩(0,5)}", ex1.String())

	// §III example 2: overlap simplification.
	ex2 := resource.NewSet(
		resource.NewTerm(u(5), cpu, interval.New(0, 3)),
		resource.NewTerm(u(5), cpu, interval.New(0, 5)),
	)
	addCheck("§III ex2 simplification",
		"{[10]⟨cpu,l1⟩(0,3), [5]⟨cpu,l1⟩(3,5)}", ex2.String())

	// §III example 3: relative complement.
	base := resource.NewSet(resource.NewTerm(u(5), cpu, interval.New(0, 3)))
	req := resource.NewSet(resource.NewTerm(u(3), cpu, interval.New(1, 2)))
	ex3, err := base.Subtract(req)
	got3 := "error: " + fmt.Sprint(err)
	if err == nil {
		got3 = ex3.String()
	}
	addCheck("§III ex3 relative complement",
		"{[5]⟨cpu,l1⟩(0,1), [2]⟨cpu,l1⟩(1,2), [5]⟨cpu,l1⟩(2,3)}", got3)

	// §IV-A Φ constants.
	model := cost.Paper()
	phi := func(a compute.Action) string {
		amounts, err := model.Amounts(a)
		if err != nil {
			return "error"
		}
		return amounts.String()
	}
	addCheck("Φ(a1, send(a2,m))", "{[4]⟨network,l1→l2⟩}",
		phi(compute.Send("a1", "l1", "a2", "l2", 1)))
	addCheck("Φ(a1, evaluate(e))", "{[8]⟨cpu,l1⟩}",
		phi(compute.Evaluate("a1", "l1", 1)))
	addCheck("Φ(a1, create(b))", "{[5]⟨cpu,l1⟩}",
		phi(compute.Create("a1", "l1", "b")))
	addCheck("Φ(a1, ready(b))", "{[1]⟨cpu,l1⟩}",
		phi(compute.Ready("a1", "l1")))
	addCheck("Φ(a1, migrate(l2))", "{[3]⟨cpu,l1⟩, [3]⟨cpu,l2⟩, [6]⟨network,l1→l2⟩}",
		phi(compute.Migrate("a1", "l1", "l2", 6)))

	// Figure 1 semantics on a concrete path: an idle system's expiring
	// resources satisfy exactly the requirements that fit in them.
	theta := resource.NewSet(resource.NewTerm(u(2), cpu, interval.New(0, 10)))
	state := core.NewState(theta, 0)
	res := core.Run(state, 10, 1)
	evalStr := func(f core.Formula, i int) string {
		ok, err := core.Eval(res.Path, i, f)
		if err != nil {
			return "error"
		}
		return fmt.Sprint(ok)
	}
	fits := core.SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(20, cpu)),
		Window:  interval.New(0, 10),
	}}
	addCheck("σ,0 ⊨ satisfy(ρ[20cpu](0,10))", "true", evalStr(fits, 0))
	addCheck("σ,1 ⊨ satisfy(ρ[20cpu](0,10))", "false", evalStr(fits, 1))
	addCheck("σ,0 ⊨ ◇¬satisfy(...)", "true", evalStr(core.Eventually{F: core.Not{F: fits}}, 0))
	small := core.SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(2, cpu)),
		Window:  interval.New(0, 10),
	}}
	addCheck("σ,0 ⊨ satisfy(ρ[2cpu](0,10))", "true", evalStr(small, 0))

	// Theorem 3 witness: cpu→net→cpu with exactly-ordered availability.
	comp, err := cost.Realize(cost.Paper(), "a1",
		compute.Evaluate("a1", "l1", 1),
		compute.Send("a1", "l1", "a2", "l2", 1),
		compute.Evaluate("a1", "l1", 1),
	)
	if err == nil {
		ordered := resource.NewSet(
			resource.NewTerm(u(4), cpu, interval.New(0, 2)),
			resource.NewTerm(u(2), net, interval.New(2, 4)),
			resource.NewTerm(u(4), cpu, interval.New(4, 6)),
		)
		plan, err := core.MeetDeadline(ordered, comp, 0, 6)
		got := "infeasible"
		if err == nil {
			got = fmt.Sprintf("breaks %v", plan.BreaksOf("a1"))
		}
		addCheck("Theorem 3 witness (ordered supply)", "breaks [2 4 6]", got)

		inverted := resource.NewSet(
			resource.NewTerm(u(2), net, interval.New(0, 2)),
			resource.NewTerm(u(4), cpu, interval.New(2, 6)),
		)
		_, err = core.MeetDeadline(inverted, comp, 0, 6)
		got = "infeasible"
		if err == nil {
			got = "feasible"
		}
		addCheck("Theorem 3 negative (inverted supply)", "infeasible", got)
	}
	return t
}
