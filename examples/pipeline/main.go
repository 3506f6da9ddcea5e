// Interacting actors — the paper's §VI extension, implemented. A
// scatter-gather pipeline: a coordinator scatters work to two mappers,
// each mapper computes and sends its result back, and the coordinator can
// only reduce after *both* replies arrive (blocking waits).
//
// The paper's §IV model cannot express this (actors must be independent);
// §VI sketches the fix — "break down an actor's computation into
// sequences of independent computations separated by states in which it
// is waiting" — which is exactly the Workflow type: segments plus wait
// edges. The demo shows (1) a witness schedule that respects the waits,
// and (2) why ignoring the waits (the §IV approximation) underestimates
// the finish time and can over-promise deadlines.
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

// run plans the scatter-gather workflow and writes its timeline and
// deadline sweep to out.
func run(out io.Writer) error {
	// Cluster: coordinator node plus two worker nodes; modest links.
	theta := rota.NewSet(
		rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("coord"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(3), rota.CPUAt("w1"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(3), rota.CPUAt("w2"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(2), rota.Link("coord", "w1"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(2), rota.Link("coord", "w2"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(2), rota.Link("w1", "coord"), rota.NewInterval(0, 40)),
		rota.NewTerm(rota.UnitsRate(2), rota.Link("w2", "coord"), rota.NewInterval(0, 40)),
	)

	// Coordinator, segment 0: scatter (two sends).
	scatter, err := rota.Realize(rota.PaperCost(), "coord",
		rota.Send("coord", "coord", "map1", "w1", 1),
		rota.Send("coord", "coord", "map2", "w2", 1),
	)
	if err != nil {
		return err
	}
	// Coordinator, segment 1: reduce — BLOCKED until both replies.
	reduce, err := rota.Realize(rota.PaperCost(), "coord",
		rota.Evaluate("coord", "coord", 1),
	)
	if err != nil {
		return err
	}
	reduce.Steps[0].Amounts = rota.Amounts{rota.CPUAt("coord"): rota.UnitsQty(10)}

	mapper := func(name rota.ActorName, node rota.Location) rota.Computation {
		m, err := rota.Realize(rota.PaperCost(), name,
			rota.Evaluate(name, node, 1),
			rota.Send(name, node, "coord", "coord", 1),
		)
		if err != nil {
			log.Fatal(err)
		}
		m.Steps[0].Amounts = rota.Amounts{rota.CPUAt(node): rota.UnitsQty(18)}
		return m
	}

	coordRef := func(i int) rota.SegmentRef { return rota.SegmentRef{Actor: "coord", Segment: i} }
	m1Ref := rota.SegmentRef{Actor: "map1", Segment: 0}
	m2Ref := rota.SegmentRef{Actor: "map2", Segment: 0}

	w, err := rota.NewWorkflow("scatter-gather", 0, 30,
		[]rota.Segmented{
			{Actor: "coord", Segments: []rota.Computation{scatter, reduce}},
			{Actor: "map1", Segments: []rota.Computation{mapper("map1", "w1")}},
			{Actor: "map2", Segments: []rota.Computation{mapper("map2", "w2")}},
		},
		[]rota.WaitEdge{
			{From: coordRef(0), To: m1Ref}, // mappers wait for the scatter
			{From: coordRef(0), To: m2Ref},
			{From: m1Ref, To: coordRef(1)}, // reduce waits for both maps
			{From: m2Ref, To: coordRef(1)},
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "workflow:", w)

	plan, err := rota.FeasibleWorkflow(theta, w)
	if err != nil {
		return fmt.Errorf("deadline cannot be assured: %w", err)
	}
	if err := rota.VerifyWorkflowPlan(theta, w, plan); err != nil {
		return fmt.Errorf("plan failed verification: %w", err)
	}
	fmt.Fprintf(out, "ASSURED by t=%d (deadline 30). Segment timeline:\n", plan.Finish)
	for _, ref := range []rota.SegmentRef{coordRef(0), m1Ref, m2Ref, coordRef(1)} {
		fmt.Fprintf(out, "  %-8v runs (%d → %d)\n", ref, plan.StartAt[ref], plan.DoneAt[ref])
	}

	// The §IV approximation treats the same actors as independent — and
	// promises an earlier, unachievable finish.
	flat, err := rota.NewWorkflow("flat", 0, 30, w.Actors, nil)
	if err != nil {
		return err
	}
	flatPlan, err := rota.FeasibleWorkflow(theta, flat)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nignoring the waits (§IV model) promises t=%d — optimistic by %d ticks,\n",
		flatPlan.Finish, plan.Finish-flatPlan.Finish)
	fmt.Fprintln(out, "because the reduce would start before the map replies exist.")

	// Tighten the deadline until the waits make it infeasible.
	for _, d := range []rota.Time{30, 20, 12} {
		wd, err := rota.NewWorkflow("scatter-gather", 0, d, w.Actors, w.Edges)
		if err != nil {
			return err
		}
		if _, err := rota.FeasibleWorkflow(theta, wd); err != nil {
			fmt.Fprintf(out, "deadline %2d: REFUSED (%v)\n", d, err)
		} else {
			fmt.Fprintf(out, "deadline %2d: assured\n", d)
		}
	}
	return nil
}
