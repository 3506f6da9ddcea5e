// Open-system churn: computing on peer-owned resources that join and
// leave — the paper's target environment. All capacity arrives through
// the resource acquisition rule carrying explicit departure times;
// Theorem 4 admits new computations into exactly the capacity that would
// otherwise expire unused.
//
// The second half injects dishonest peers (resources that renege on their
// advertised departure time) to quantify how much of the assurance rests
// on the paper's join-with-departure-time assumption.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	rota "repro"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sweeps churn and reneging under ROTA admission and writes the table
// and the Theorem-4 step to w.
func run(w io.Writer) error {
	locs := []rota.Location{"peer1", "peer2", "peer3", "peer4"}
	const horizon = 800

	jobs, err := rota.GenerateWorkload(rota.WorkloadConfig{
		Seed:             7,
		Locations:        locs,
		NumJobs:          150,
		MeanInterarrival: float64(horizon) / 150,
		ActorsMin:        1,
		ActorsMax:        2,
		StepsMin:         1,
		StepsMax:         3,
		SendProb:         0.15,
		MigrateProb:      0,
		EvalWeightMax:    2,
		SlackFactor:      3,
	})
	if err != nil {
		return err
	}

	table := metrics.NewTable("peer-owned resources: ROTA admission under churn",
		"churn-gap", "renege-p", "joins", "admitted", "on-time", "missed", "violations", "utilization")

	for _, gap := range []float64{3, 6, 12} {
		for _, renege := range []float64{0, 0.25} {
			trace, err := rota.GenerateChurn(rota.ChurnConfig{
				Seed:             11,
				Locations:        locs,
				Horizon:          horizon,
				MeanInterarrival: gap,
				LeaseMin:         10,
				LeaseMax:         80,
				RateMin:          1,
				RateMax:          4,
				LinkProb:         0.3,
				RenegeProb:       renege,
			})
			if err != nil {
				return err
			}
			res, err := rota.Simulate(rota.SimConfig{
				Policy:   rota.RotaPolicy(),
				Executor: rota.ExecPlanned,
			}, jobs, trace)
			if err != nil {
				return err
			}
			table.AddRow(gap, renege, len(trace.Joins), res.Admitted,
				res.CompletedOnTime, res.Missed, res.Violations, res.Utilization())
		}
	}
	table.AddNote("renege-p=0: honest churn — the assurance is unconditional (0 missed, 0 violations)")
	table.AddNote("renege-p>0: misses appear only because peers broke their advertised leases")
	table.Render(w)

	// A single-step view of Theorem 4's "harvest the expiring resources":
	fmt.Fprintln(w, "\nTheorem 4 in one step:")
	theta := rota.NewSet(rota.NewTerm(rota.UnitsRate(2), rota.CPUAt("peer1"), rota.NewInterval(0, 10)))
	state := rota.NewState(theta, 0)
	first, err := mkJob("first", "a1", 0, 10)
	if err != nil {
		return err
	}
	state, plan, err := rota.Admit(state, first)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  admitted %q consuming ticks up to t=%d\n", "first", plan.Finish)
	free, err := state.FreeResources()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  resources still expiring unused:", free)
	second, err := mkJob("second", "a2", 0, 10)
	if err != nil {
		return err
	}
	if _, _, err := rota.Admit(state, second); err == nil {
		fmt.Fprintln(w, "  second job admitted into exactly that expiring capacity")
	}
	return nil
}

func mkJob(name string, a rota.ActorName, start, deadline rota.Time) (rota.Distributed, error) {
	comp, err := rota.Realize(rota.PaperCost(), a, rota.Evaluate(a, "peer1", 1))
	if err != nil {
		return rota.Distributed{}, err
	}
	return rota.NewDistributed(name, start, deadline, comp)
}
