package rota_test

import (
	"fmt"

	rota "repro"
)

// The §III worked example: overlapping identical located types simplify
// by adding rates.
func ExampleSet_union() {
	a := rota.NewSet(rota.NewTerm(rota.UnitsRate(5), rota.CPUAt("l1"), rota.NewInterval(0, 3)))
	b := rota.NewSet(rota.NewTerm(rota.UnitsRate(5), rota.CPUAt("l1"), rota.NewInterval(0, 5)))
	fmt.Println(a.Union(b))
	// Output:
	// {[10]⟨cpu,l1⟩(0,3), [5]⟨cpu,l1⟩(3,5)}
}

// Theorem 4 in two calls: the second computation is admitted into
// exactly the capacity the first leaves expiring.
func ExampleAdmit() {
	theta := rota.NewSet(rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("l1"), rota.NewInterval(0, 8)))
	state := rota.NewState(theta, 0)

	mk := func(name string, actor rota.ActorName) rota.Distributed {
		c, _ := rota.Realize(rota.PaperCost(), actor, rota.Evaluate(actor, "l1", 1)) // 8 cpu
		d, _ := rota.NewDistributed(name, 0, 8, c)
		return d
	}
	state, _, err := rota.Admit(state, mk("first", "a1"))
	fmt.Println("first:", err)
	state, _, err = rota.Admit(state, mk("second", "a2"))
	fmt.Println("second:", err)
	_, _, err = rota.Admit(state, mk("third", "a3"))
	fmt.Println("third admitted:", err == nil)
	// Output:
	// first: <nil>
	// second: <nil>
	// third admitted: false
}

// Allen's interval algebra (the paper's Table I).
func ExampleRelationBetween() {
	a := rota.NewInterval(0, 4)
	b := rota.NewInterval(2, 6)
	c := rota.NewInterval(6, 9)
	fmt.Println(rota.RelationBetween(a, b))
	fmt.Println(rota.RelationBetween(b, c))
	fmt.Println(rota.ComposeRelations(rota.RelationBetween(a, b), rota.RelationBetween(b, c)))
	// Output:
	// overlaps
	// meets
	// {before}
}

// Figure 1's satisfaction semantics on an executed path: what could the
// expiring resources still absorb?
func ExampleEval() {
	theta := rota.NewSet(rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("l1"), rota.NewInterval(0, 10)))
	res := rota.RunState(rota.NewState(theta, 0), 10, 1)

	fits := rota.SatisfySimple{Req: rota.Simple{
		Amounts: rota.NewNeeds(rota.AmountOf(20, rota.CPUAt("l1"))),
		Window:  rota.NewInterval(0, 10),
	}}
	ok, _ := rota.Eval(res.Path, 0, fits)
	fmt.Println("at t=0:", ok)
	ok, _ = rota.Eval(res.Path, 1, fits)
	fmt.Println("at t=1:", ok)
	// Output:
	// at t=0: true
	// at t=1: false
}
