// Command rotasim runs one open-system simulation: a synthetic workload
// and churn trace driven through an admission policy and executor, with
// the resulting admission/miss/utilization statistics printed as a table.
//
// Usage:
//
//	rotasim -policy rota -jobs 200 -horizon 1000
//	rotasim -policy always-admit -executor greedy -load 1.5
//	rotasim -policy naive-total -renege 0.2 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/sim"
	tracepkg "repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rotasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rotasim", flag.ContinueOnError)
	policyName := fs.String("policy", "rota", "admission policy: rota, rota-exhaustive, naive-total, edf-feasible, always-admit")
	executor := fs.String("executor", "", "execution model: planned or greedy (default: planned for rota, greedy otherwise)")
	seed := fs.Int64("seed", 42, "random seed for workload and churn")
	jobs := fs.Int("jobs", 150, "number of jobs to offer")
	horizon := fs.Int64("horizon", 800, "simulation horizon in ticks")
	locations := fs.Int("locations", 3, "number of locations")
	baseRate := fs.Int64("base", 2, "static cpu units/tick per location (0 disables)")
	churnGap := fs.Float64("churn", 8, "mean ticks between resource joins (0 disables churn)")
	renege := fs.Float64("renege", 0, "probability a joining resource reneges early")
	slack := fs.Float64("slack", 2.5, "deadline slack factor")
	csv := fs.Bool("csv", false, "emit CSV")
	traceFile := fs.String("trace", "", "write a JSONL event trace to this file ('-' for stdout)")
	repair := fs.Bool("repair", false, "re-plan commitments broken by reneging resources (planned executor)")
	workloadIn := fs.String("workload", "", "read the job list from a JSON file instead of generating one")
	workloadOut := fs.String("dump-workload", "", "also write the job list to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	locs := resource.Locations(*locations)

	var policy admission.Policy
	switch *policyName {
	case "rota":
		policy = &admission.Rota{}
	case "rota-exhaustive":
		policy = &admission.Rota{Exhaustive: true}
	case "naive-total":
		policy = admission.NewNaiveTotal()
	case "edf-feasible":
		policy = admission.NewEDFFeasible()
	case "always-admit":
		policy = admission.AlwaysAdmit{}
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}

	exec := sim.GreedyEDF
	if *policyName == "rota" || *policyName == "rota-exhaustive" {
		exec = sim.Planned
	}
	switch *executor {
	case "":
	case "planned":
		exec = sim.Planned
	case "greedy":
		exec = sim.GreedyEDF
	default:
		return fmt.Errorf("unknown executor %q", *executor)
	}

	var jobList []workload.Job
	if *workloadIn != "" {
		f, err := os.Open(*workloadIn)
		if err != nil {
			return err
		}
		jobList, err = workload.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		jobList, err = workload.Generate(workload.Config{
			Seed:             *seed,
			Locations:        locs,
			NumJobs:          *jobs,
			MeanInterarrival: float64(*horizon) / float64(*jobs+1),
			ActorsMin:        1,
			ActorsMax:        3,
			StepsMin:         1,
			StepsMax:         4,
			SendProb:         0.2,
			MigrateProb:      0.05,
			EvalWeightMax:    3,
			SlackFactor:      *slack,
		})
		if err != nil {
			return err
		}
	}
	if *workloadOut != "" {
		f, err := os.Create(*workloadOut)
		if err != nil {
			return err
		}
		werr := workload.WriteJSON(jobList, f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}

	var trace churn.Trace
	if *churnGap > 0 {
		var err error
		trace, err = churn.Generate(churn.Config{
			Seed:             *seed + 1,
			Locations:        locs,
			Horizon:          interval.Time(*horizon),
			MeanInterarrival: *churnGap,
			LeaseMin:         8,
			LeaseMax:         80,
			RateMin:          1,
			RateMax:          4,
			LinkProb:         0.3,
			RenegeProb:       *renege,
			Base:             *baseRate,
		})
		if err != nil {
			return err
		}
	} else if *baseRate > 0 {
		for _, loc := range locs {
			trace.Base.Add(resource.NewTerm(
				resource.FromUnits(*baseRate), resource.CPUAt(loc),
				interval.New(0, interval.Time(*horizon))))
		}
	}
	// A static full mesh of unit links so send/migrate steps are
	// schedulable regardless of churn.
	for _, src := range locs {
		for _, dst := range locs {
			if src != dst {
				trace.Base.Add(resource.NewTerm(
					resource.FromUnits(1), resource.Link(src, dst),
					interval.New(0, interval.Time(*horizon))))
			}
		}
	}

	var eventLog *tracepkg.Log
	if *traceFile != "" {
		eventLog = tracepkg.NewLog()
	}
	res, err := sim.Run(sim.Config{Policy: policy, Executor: exec, Trace: eventLog, Repair: *repair}, jobList, trace)
	if err != nil {
		return err
	}
	if eventLog != nil {
		var dst io.Writer = os.Stdout
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			dst = f
		}
		if err := eventLog.WriteJSONL(dst); err != nil {
			return err
		}
	}

	t := metrics.NewTable(
		fmt.Sprintf("rotasim: %s / %s (seed %d)", res.Policy, res.Executor, *seed),
		"metric", "value")
	t.AddRow("offered", res.Offered)
	t.AddRow("admitted", res.Admitted)
	t.AddRow("rejected", res.Rejected)
	t.AddRow("completed on time", res.CompletedOnTime)
	t.AddRow("missed", res.Missed)
	t.AddRow("violations", res.Violations)
	if *repair {
		t.AddRow("repaired", res.Repaired)
	}
	t.AddRow("admit rate", res.AdmitRate())
	t.AddRow("miss rate", res.MissRate())
	t.AddRow("goodput ratio", res.GoodputRatio())
	t.AddRow("utilization", res.Utilization())
	t.AddRow("decisions", res.Decisions)
	if res.Decisions > 0 {
		t.AddRow("mean decision µs", float64(res.DecisionTime.Microseconds())/float64(res.Decisions))
	}
	t.Print(out, *csv)
	return nil
}
