// Quickstart: the ROTA basics end to end — resource terms and sets
// (§III), a costed actor computation (§IV), a Theorem-3 deadline check
// with its witness schedule, and a Figure-1 satisfaction query on the
// executed path.
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

// run walks through the basics and writes what each step shows to w.
func run(w io.Writer) error {
	// --- Resources in time and space (§III) -------------------------------
	// 2 cpu/tick at l1 for 20 ticks, and a 1 unit/tick l1→l2 link that
	// only exists during (4,12) — an open-system resource that will leave.
	theta := rota.NewSet(
		rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("l1"), rota.NewInterval(0, 20)),
		rota.NewTerm(rota.UnitsRate(1), rota.Link("l1", "l2"), rota.NewInterval(4, 12)),
	)
	fmt.Fprintln(w, "available resources Θ =", theta)

	// Resource-set algebra: union simplifies, complement subtracts.
	extra := rota.NewSet(rota.NewTerm(rota.UnitsRate(3), rota.CPUAt("l1"), rota.NewInterval(10, 16)))
	fmt.Fprintln(w, "Θ ∪ extra           =", theta.Union(extra))

	// --- A computation, represented by its resource needs (§IV) ----------
	// evaluate (8 cpu) → send (4 network l1→l2) → evaluate (8 cpu), costed
	// with the paper's Φ constants.
	comp, err := rota.Realize(rota.PaperCost(), "a1",
		rota.Evaluate("a1", "l1", 1),
		rota.Send("a1", "l1", "a2", "l2", 1),
		rota.Evaluate("a1", "l1", 1),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "computation Γ       =", comp)

	// --- Theorem 3: can Γ meet deadline 20 starting at 0? ----------------
	plan, err := rota.MeetDeadline(theta, comp, 0, 20)
	if err != nil {
		return fmt.Errorf("deadline cannot be assured: %w", err)
	}
	fmt.Fprintf(w, "ASSURED: finishes by t=%d, break points %v\n",
		plan.Finish, plan.BreaksOf("a1"))

	// The same computation with deadline 8 is infeasible: the link only
	// opens at t=4 and the final 8 cpu cannot fit before t=8.
	if _, err := rota.MeetDeadline(theta, comp, 0, 8); err != nil {
		fmt.Fprintln(w, "deadline 8 correctly refused:", err)
	}

	// --- Executing the committed path and querying the logic -------------
	state := rota.NewState(theta, 0)
	dist, err := rota.NewDistributed("job", 0, 20, comp)
	if err != nil {
		return err
	}
	state, _, err = rota.Admit(state, dist)
	if err != nil {
		return err
	}
	res := rota.RunState(state, 20, 1)
	fmt.Fprintf(w, "executed: job completed at t=%d with %d violations\n",
		res.Completed["job"], len(res.Violations))

	// Figure 1 semantics: would another 8-cpu requirement have fit in the
	// resources this path let expire?
	f := rota.SatisfySimple{Req: rota.Simple{
		Amounts: rota.NewNeeds(rota.AmountOf(8, rota.CPUAt("l1"))),
		Window:  rota.NewInterval(0, 20),
	}}
	ok, err := rota.Eval(res.Path, 0, f)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "σ,0 ⊨ satisfy(ρ[8 cpu](0,20)) =", ok)
	return nil
}
