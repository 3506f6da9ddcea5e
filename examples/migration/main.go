// Choosing between courses of action — the use the paper's conclusion
// highlights: "this can be useful for computations choosing between
// various courses of action, allowing them to avoid attempting infeasible
// pursuits."
//
// An actor at an overloaded edge node must finish 40 units of evaluation
// by a deadline. It can (a) stay, (b) migrate to a big-core server and
// compute there, or (c) split: compute half locally while a created
// helper computes the rest remotely. Each alternative is expressed as a
// computation and checked with MeetDeadline; the actor picks the earliest
// assured finish rather than discovering failure at the deadline.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	rota "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run weighs the courses of action and writes each verdict and the one
// chosen to w.
func run(w io.Writer) error {
	// The environment: edge is busy (only 1 cpu/tick free), the server
	// has 6 cpu/tick but the uplink is slow (1 unit/tick) and opens late.
	theta := rota.NewSet(
		rota.NewTerm(rota.UnitsRate(1), rota.CPUAt("edge"), rota.NewInterval(0, 60)),
		rota.NewTerm(rota.UnitsRate(6), rota.CPUAt("server"), rota.NewInterval(0, 60)),
		rota.NewTerm(rota.UnitsRate(1), rota.Link("edge", "server"), rota.NewInterval(4, 60)),
	)
	const deadline = 30
	fmt.Fprintln(w, "environment Θ =", theta)
	fmt.Fprintln(w, "deadline      =", deadline)
	fmt.Fprintln(w)

	type alternative struct {
		name string
		dist rota.Distributed
	}
	var alts []alternative

	// (a) Stay at the edge: 40 units at 1 cpu/tick.
	stay, err := rota.Realize(rota.PaperCost(), "worker",
		rota.Evaluate("worker", "edge", 5)) // weight 5 ⇒ 8+... see cost model
	if err != nil {
		return err
	}
	// Use explicit amounts for clarity: exactly 40 cpu at the edge.
	stay.Steps[0].Amounts = rota.Amounts{rota.CPUAt("edge"): rota.UnitsQty(40)}
	stayDist, err := rota.NewDistributed("stay", 0, deadline, stay)
	if err != nil {
		return err
	}
	alts = append(alts, alternative{"stay at edge", stayDist})

	// (b) Migrate (8 state units over the slow link), then compute fast.
	migrate, err := rota.Realize(rota.PaperCost(), "worker",
		rota.Migrate("worker", "edge", "server", 8),
		rota.Evaluate("worker", "server", 1),
	)
	if err != nil {
		return err
	}
	migrate.Steps[1].Amounts = rota.Amounts{rota.CPUAt("server"): rota.UnitsQty(40)}
	migDist, err := rota.NewDistributed("migrate", 0, deadline, migrate)
	if err != nil {
		return err
	}
	alts = append(alts, alternative{"migrate to server", migDist})

	// (c) Split: 20 units locally; create a helper (5 cpu), ship it the
	// task (send over the link), helper does 20 units on the server.
	local, err := rota.Realize(rota.PaperCost(), "worker",
		rota.Create("worker", "edge", "helper"),
		rota.Send("worker", "edge", "helper", "server", 2),
		rota.Evaluate("worker", "edge", 1),
	)
	if err != nil {
		return err
	}
	local.Steps[2].Amounts = rota.Amounts{rota.CPUAt("edge"): rota.UnitsQty(20)}
	helper, err := rota.Realize(rota.PaperCost(), "helper",
		rota.Evaluate("helper", "server", 1))
	if err != nil {
		return err
	}
	helper.Steps[0].Amounts = rota.Amounts{rota.CPUAt("server"): rota.UnitsQty(20)}
	splitDist, err := rota.NewDistributed("split", 0, deadline, local, helper)
	if err != nil {
		return err
	}
	alts = append(alts, alternative{"split edge+server", splitDist})

	// Evaluate every course of action before committing to any.
	type verdict struct {
		name   string
		finish rota.Time
		ok     bool
		reason string
	}
	var verdicts []verdict
	for _, alt := range alts {
		state := rota.NewState(theta, 0)
		_, plan, err := rota.Admit(state, alt.dist)
		if err != nil {
			verdicts = append(verdicts, verdict{name: alt.name, reason: err.Error()})
			continue
		}
		verdicts = append(verdicts, verdict{name: alt.name, finish: plan.Finish, ok: true})
	}
	sort.SliceStable(verdicts, func(i, j int) bool {
		if verdicts[i].ok != verdicts[j].ok {
			return verdicts[i].ok
		}
		return verdicts[i].finish < verdicts[j].finish
	})
	for _, v := range verdicts {
		if v.ok {
			fmt.Fprintf(w, "  %-20s ASSURED by t=%d\n", v.name, v.finish)
		} else {
			fmt.Fprintf(w, "  %-20s infeasible (%s)\n", v.name, v.reason)
		}
	}
	if best := verdicts[0]; best.ok {
		fmt.Fprintf(w, "\nchosen course of action: %s (finishes %d ticks before the deadline)\n",
			best.name, deadline-best.finish)
	} else {
		fmt.Fprintln(w, "\nno course of action can be assured — do not start")
	}
	return nil
}
