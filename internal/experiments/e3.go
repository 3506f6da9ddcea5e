package experiments

import (
	"math/rand"

	"repro/internal/admission"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/resource"
)

// E3Config parameterizes the checker-soundness experiment.
type E3Config struct {
	Seed   int64
	Trials int
	// JobsPerTrial is how many admissions are attempted per random
	// scenario.
	JobsPerTrial int
}

// DefaultE3 returns the parameters used by the harness.
func DefaultE3() E3Config {
	return E3Config{Seed: 1009, Trials: 300, JobsPerTrial: 5}
}

// E3CheckerSoundness validates the paper's central claim end-to-end:
// every computation the Theorem-4 checker admits completes by its
// deadline when the committed path is executed (soundness must be exact —
// zero violations, zero late completions). It also estimates the greedy
// checker's conservatism: how many of its rejections a slower exhaustive
// search or the EDF trial would have accepted.
func E3CheckerSoundness(cfg E3Config) *metrics.Table {
	rng := rand.New(rand.NewSource(cfg.Seed))
	locs := []resource.Location{"l1", "l2", "l3"}

	var (
		attempted, admitted, rejected         int
		violations, late, completions         int
		rejectedButExhaustive, rejectedButEDF int
	)

	for trial := 0; trial < cfg.Trials; trial++ {
		var theta resource.Set
		for i := 0; i < 2+rng.Intn(5); i++ {
			loc := locs[rng.Intn(len(locs))]
			start := interval.Time(rng.Intn(12))
			theta.Add(resource.NewTerm(
				resource.FromUnits(int64(1+rng.Intn(5))),
				resource.CPUAt(loc),
				interval.New(start, start+2+interval.Time(rng.Intn(14)))))
			if rng.Intn(2) == 0 {
				theta.Add(resource.NewTerm(
					resource.FromUnits(int64(1+rng.Intn(3))),
					resource.Link(locs[rng.Intn(len(locs))], locs[rng.Intn(len(locs))]),
					interval.New(start, start+2+interval.Time(rng.Intn(14)))))
			}
		}
		state := core.NewState(theta, 0)
		var thisAdmitted []string
		deadlines := make(map[string]interval.Time)

		for j := 0; j < cfg.JobsPerTrial; j++ {
			job, err := randomJob(rng, trial, j, locs)
			if err != nil {
				continue
			}
			attempted++
			next, _, err := core.Admit(state, job)
			if err != nil {
				rejected++
				// Conservatism probes.
				free, ferr := state.FreeResources()
				if ferr == nil {
					req := core.ConcurrentAt(job, state.Now)
					if _, xerr := scheduleExhaustive(free, req); xerr == nil {
						rejectedButExhaustive++
					}
					edf := admission.NewEDFFeasible()
					if dec := edf.Decide(admission.View{Now: state.Now, Theta: free}, job); dec.Admit {
						rejectedButEDF++
					}
				}
				continue
			}
			state = next
			admitted++
			thisAdmitted = append(thisAdmitted, job.Name)
			deadlines[job.Name] = job.Deadline
		}
		res := core.Run(state, 0, 1)
		violations += len(res.Violations)
		for _, name := range thisAdmitted {
			doneAt, done := res.Completed[name]
			switch {
			case !done:
				late++
			case doneAt > deadlines[name]:
				late++
			default:
				completions++
			}
		}
	}

	t := metrics.NewTable("E3: checker soundness vs executed ground truth",
		"metric", "value")
	t.AddRow("scenarios", cfg.Trials)
	t.AddRow("admission attempts", attempted)
	t.AddRow("admitted", admitted)
	t.AddRow("rejected", rejected)
	t.AddRow("admitted & completed on time", completions)
	t.AddRow("admitted but late/incomplete (MUST be 0)", late)
	t.AddRow("plan violations (MUST be 0)", violations)
	t.AddRow("rejections overturned by exhaustive search", rejectedButExhaustive)
	t.AddRow("rejections overturned by EDF trial", rejectedButEDF)
	t.AddNote("soundness holds iff rows marked MUST are zero; overturned rejections measure greedy conservatism")
	return t
}

// randomJob builds a random 1–3 actor computation with a feasible-looking
// deadline.
func randomJob(rng *rand.Rand, trial, idx int, locs []resource.Location) (compute.Distributed, error) {
	nActors := 1 + rng.Intn(3)
	var comps []compute.Computation
	var critical resource.Quantity
	for ai := 0; ai < nActors; ai++ {
		name := compute.ActorName(randName(trial, idx, ai))
		loc := locs[rng.Intn(len(locs))]
		var actions []compute.Action
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch rng.Intn(4) {
			case 0:
				actions = append(actions, compute.Send(name, "l1", "peer", "l2", 1))
			case 1:
				actions = append(actions, compute.Create(name, loc, compute.ActorName(randName(trial, idx, ai)+"c")))
			default:
				actions = append(actions, compute.Evaluate(name, loc, int64(1+rng.Intn(2))))
			}
		}
		comp, err := cost.Realize(cost.Paper(), name, actions...)
		if err != nil {
			return compute.Distributed{}, err
		}
		if w := comp.TotalQty(); w > critical {
			critical = w
		}
		comps = append(comps, comp)
	}
	deadline := interval.Time(6 + rng.Intn(20))
	return compute.NewDistributed(randName(trial, idx, 99), 0, deadline, comps...)
}

func randName(trial, idx, ai int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return string(letters[trial%26]) + string(letters[idx%26]) + string(letters[ai%26]) +
		string(rune('0'+trial/26%10)) + string(rune('0'+ai/26%10))
}
