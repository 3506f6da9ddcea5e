// Temporal verification: using ROTA as a logic rather than a scheduler.
// We build an open system, materialize Definition 2's tree of possible
// evolutions with the bounded explorer, and answer path-quantified
// questions — "is there an evolution where …" (◇ over branches) and
// "does … hold however the system evolves" (□ over branches) — with
// machine-checked witnesses and counterexamples.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	rota "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run answers the path-quantified questions and writes each verdict to w.
func run(w io.Writer) error {
	// A small open system: 2 cpu/tick at the edge for 10 ticks, and a
	// burst of 4 cpu/tick joining for ticks (4,8).
	base := rota.NewSet(rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("edge"), rota.NewInterval(0, 10)))
	burst := rota.NewSet(rota.NewTerm(rota.UnitsRate(4), rota.CPUAt("edge"), rota.NewInterval(4, 8)))

	// One pending job that may or may not be admitted along the way.
	comp, err := rota.Realize(rota.PaperCost(), "worker", rota.Evaluate("worker", "edge", 1))
	if err != nil {
		return err
	}
	comp.Steps[0].Amounts = rota.Amounts{rota.CPUAt("edge"): rota.UnitsQty(12)} // 12 cpu of work
	job, err := rota.NewDistributed("batch", 0, 10, comp)
	if err != nil {
		return err
	}

	ex := &rota.Explorer{
		Joins:   map[rota.Time]rota.Set{4: burst},
		Pending: []rota.Distributed{job},
		Horizon: 10,
	}

	// Q1 (existential): is there an evolution on which a *second* 16-cpu
	// request could still be satisfied? (Only if "batch" is never
	// admitted, or admitted against the burst.)
	bigAsk := rota.SatisfySimple{Req: rota.Simple{
		Amounts: rota.NewNeeds(rota.AmountOf(16, rota.CPUAt("edge"))),
		Window:  rota.NewInterval(0, 10),
	}}
	ok, witness, err := ex.ExistsPath(rota.NewState(base, 0), bigAsk)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "◇ (16 cpu still available):", ok)
	if ok {
		admitted := false
		for _, tr := range witness.Steps {
			if tr.Computation == "batch" {
				admitted = true
			}
		}
		fmt.Fprintln(w, "  witness admits batch:", admitted)
	}

	// Q2 (universal): however the system evolves, a 37-cpu request never
	// fits (total capacity incl. the burst is 20+16 = 36).
	tooBig := rota.SatisfySimple{Req: rota.Simple{
		Amounts: rota.NewNeeds(rota.AmountOf(37, rota.CPUAt("edge"))),
		Window:  rota.NewInterval(0, 10),
	}}
	holds, counter, err := ex.ForAllPaths(rota.NewState(base, 0), rota.Not{F: tooBig})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "□ ¬(37 cpu available):", holds)
	if !holds {
		fmt.Fprintln(w, "  counterexample:", counter)
	}

	// Q3: but 36 cpu IS reachable — on the branch that admits nothing.
	exactly := rota.SatisfySimple{Req: rota.Simple{
		Amounts: rota.NewNeeds(rota.AmountOf(36, rota.CPUAt("edge"))),
		Window:  rota.NewInterval(0, 10),
	}}
	ok, _, err = ex.ExistsPath(rota.NewState(base, 0), exactly)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "◇ (36 cpu available):", ok)

	// Q4: a formula decided on the canonical committed path that
	// RunState materialises.
	state := rota.NewState(base, 0)
	state, _, err = rota.Admit(state, job)
	if err != nil {
		return err
	}
	state, _ = rota.Acquire(state, burst) // the join, known up front here
	res := rota.RunState(state, 10, 1)
	onPath := rota.And{
		L: rota.SatisfyConcurrent{Req: rota.ConcurrentOf(mustJob(t2(), 8))},
		R: rota.Not{F: tooBig},
	}
	verdict, err := rota.Eval(res.Path, 0, onPath)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "committed path ⊨ (another 8-cpu job fits ∧ ¬37cpu):", verdict)
	return nil
}

// t2 builds the second job's computation.
func t2() rota.Computation {
	c, err := rota.Realize(rota.PaperCost(), "extra", rota.Evaluate("extra", "edge", 1))
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func mustJob(c rota.Computation, deadline rota.Time) rota.Distributed {
	d, err := rota.NewDistributed("extra-job", 0, deadline, c)
	if err != nil {
		log.Fatal(err)
	}
	return d
}
