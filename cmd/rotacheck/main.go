// Command rotacheck decides deadline assurance for the jobs of a
// scenario file: for each job, in arrival order, it runs the Theorem-4
// admission check against the remaining free resources and prints the
// verdict with its witness break points.
//
// Usage:
//
//	rotacheck scenario.rota
//	rotacheck -independent scenario.rota   # check each job against the full Θ
//	rotacheck -formula 'holds(l1, cpu>=8, from 0 to 20) and feasible(j1)' scenario.rota
//	echo "..." | rotacheck -
//
// -formula asks a question in the temporal query grammar of
// internal/query (the one /v1/query serves) and decides it on the final
// state: its free view at its clock, and the admitted commitments the
// query names. It refuses -independent, which admits nothing.
//
// Exit status is 0 when every job is accommodated, 2 when any is not.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/schedule"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rotacheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("rotacheck", flag.ContinueOnError)
	independent := fs.Bool("independent", false,
		"check every job against the full resource set instead of admitting cumulatively")
	verbose := fs.Bool("v", false, "print witness allocations, not just break points")
	formula := fs.String("formula", "",
		`temporal query to decide on the final state, e.g. "holds(l1, cpu>=8, eventually, from 0 to 20) and feasible(j1)"`)
	stateIn := fs.String("state", "", "load the initial ROTA state from a snapshot instead of starting fresh")
	stateOut := fs.String("save-state", "", "write the final ROTA state (resources + commitments) to this snapshot file")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	const usage = "usage: rotacheck [-independent | -formula query] [-v] [-state file] [-save-state file] <scenario-file|->"
	if fs.NArg() != 1 {
		return 1, errors.New(usage)
	}
	if *independent && *formula != "" {
		// -independent admits nothing, so the query would be decided on a
		// state holding none of the jobs it names.
		return 1, fmt.Errorf("-formula needs the admitted state, which -independent never builds\n%s", usage)
	}
	var in io.Reader
	if fs.Arg(0) == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return 1, err
		}
		defer f.Close()
		in = f
	}
	sc, err := scenario.Parse(in, nil)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "resources: %s\n", sc.Resources)

	var state core.State
	if *stateIn != "" {
		f, err := os.Open(*stateIn)
		if err != nil {
			return 1, err
		}
		state, err = core.RestoreState(f)
		f.Close()
		if err != nil {
			return 1, err
		}
		// Scenario resources join the restored state (acquisition rule).
		state, _ = core.Acquire(state, sc.Resources)
		fmt.Fprintf(out, "restored state at t=%d with %d commitments\n",
			state.Now, len(state.Commitments))
	} else {
		state = core.NewState(sc.Resources, 0)
	}
	allOK := true
	for _, job := range sc.Jobs {
		var plan schedule.Plan
		var admitErr error
		if *independent {
			fresh := core.NewState(sc.Resources, 0)
			plan, admitErr = core.AccommodateAdditional(fresh, job)
		} else {
			var next core.State
			next, plan, admitErr = core.Admit(state, job)
			if admitErr == nil {
				state = next
			}
		}
		if admitErr != nil {
			allOK = false
			fmt.Fprintf(out, "job %-12s REFUSED  (%v)\n", job.Name, admitErr)
			continue
		}
		fmt.Fprintf(out, "job %-12s ASSURED  finish by %d (deadline %d)\n",
			job.Name, plan.Finish, job.Deadline)
		actors := make([]string, 0, len(plan.Breaks))
		for _, b := range plan.Breaks {
			actors = append(actors, string(b.Actor))
		}
		sort.Strings(actors)
		for _, a := range actors {
			fmt.Fprintf(out, "  actor %-10s breaks %v\n", a, plan.BreaksOf(compute.ActorName(a)))
		}
		if *verbose {
			for _, alloc := range plan.Allocs {
				fmt.Fprintf(out, "  alloc %s phase %d: %s\n", alloc.Actor, alloc.Phase, alloc.Term)
			}
		}
	}
	// Workflow jobs (segment/wait directives) are decided independently
	// against the full resource set: the witness is per-segment timing.
	for _, w := range sc.Workflows {
		plan, err := schedule.FeasibleWorkflow(sc.Resources, w)
		if err != nil {
			allOK = false
			fmt.Fprintf(out, "job %-12s REFUSED  (%v)\n", w.Name, err)
			continue
		}
		fmt.Fprintf(out, "job %-12s ASSURED  finish by %d (deadline %d, workflow)\n",
			w.Name, plan.Finish, w.Deadline)
		order, _ := w.TopoOrder()
		for _, ref := range order {
			fmt.Fprintf(out, "  segment %-10v runs (%d → %d)\n", ref, plan.StartAt[ref], plan.DoneAt[ref])
		}
		if *verbose {
			for _, alloc := range plan.Allocs {
				fmt.Fprintf(out, "  alloc %v phase %d: %s\n", alloc.Ref, alloc.Phase, alloc.Term)
			}
		}
	}

	if *formula != "" {
		c, err := query.ParseText(*formula)
		if err != nil {
			return 1, err
		}
		snap, err := snapshotOf(state, c.Names())
		if err != nil {
			return 1, err
		}
		res, err := c.Evaluate(snap)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "formula %s = %v\n", c.Source(), res.Holds)
	}
	if *stateOut != "" {
		f, err := os.Create(*stateOut)
		if err != nil {
			return 1, err
		}
		werr := core.Snapshot(state, f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 1, werr
		}
	}
	if !allOK {
		return 2, nil
	}
	return 0, nil
}

// snapshotOf is the query layer's view of a final state: its free view
// at its clock, and the admitted commitments among names. A scenario job
// is admitted at the start of its requirement window, its start or the
// clock, whichever is later.
//
// No commitment arrives on the committed path core.Run materialises
// from the state, so the free view ahead of the clock never changes on
// it. Satisfaction is monotone in the resources available, so a plain
// holds atom decided on this view has the verdict of satisfy at
// position 0 of that path, and an eventually atom that of ◇satisfy
// (TestHoldsAgreesWithTheCommittedPath).
func snapshotOf(state core.State, names []string) (query.Snapshot, error) {
	free, err := state.FreeResources()
	if err != nil {
		return query.Snapshot{}, err
	}
	snap := query.Snapshot{Now: state.Now, Free: free}
	for _, name := range names {
		c, ok := state.Commitment(name)
		if !ok {
			continue
		}
		demand := c.RemainingDemand(state.Now)
		snap.Commitments = append(snap.Commitments, query.Commitment{Name: name,
			Admitted: c.Req.Window.Start, Finish: c.Plan.Finish, Deadline: c.Req.Window.End,
			Locations: demand.Locations(), Demand: demand})
	}
	return snap, nil
}
