package admission

import (
	"repro/internal/actor"
	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// edfMeetsAll forward-simulates the given jobs under EDF sharing of theta
// from time now and reports whether every job completes by its deadline.
//
// The trial is conservative for jobs that already made progress: it
// re-simulates their full remaining scripts from scratch (the policy
// does not track per-step progress), so it can under-admit but never
// over-admits relative to its own execution model.
func edfMeetsAll(theta resource.Set, now interval.Time, jobs []compute.Distributed) bool {
	rt := actor.NewRuntime(now)
	avail := theta.TrimmedBefore(now)

	latest := now
	deadlines := make(map[string]interval.Time, len(jobs))
	for _, d := range jobs {
		deadlines[d.Name] = d.Deadline
		if d.Deadline > latest {
			latest = d.Deadline
		}
		for _, comp := range d.Actors {
			if err := rt.Spawn(actor.NewTask(d.Name, comp, d.Deadline)); err != nil {
				return false
			}
		}
	}
	for rt.Now() < latest && len(rt.Live()) > 0 {
		rt.TickEDF(&avail)
	}
	for _, t := range rt.Tasks() {
		if !t.Done() || t.DoneAt() > deadlines[t.Job] {
			return false
		}
	}
	return true
}
