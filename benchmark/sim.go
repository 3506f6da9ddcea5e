package main

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sim_batch: the paper's own evaluation loop. One pass is sim.Run with
// admission.Rota and the Planned executor over generated jobs and a
// churn trace with joins and honest leaves; passes over seeds N, N+1, …
// repeat for the run length.

const (
	simLocs    = 6
	simJobs    = 1500
	simHorizon = 500
	// simGolden is sim.admitted of the first pass at the default seed
	// (-seed 1), frozen when the benchmark was defined. A change that
	// moves it changed what the paper's admission control decides.
	simGolden     = 1261
	simGoldenSeed = 1
)

// simInput generates one pass's inputs from its seed.
func simInput(seed int64, smoke bool) ([]workload.Job, churn.Trace, error) {
	locs := make([]resource.Location, simLocs)
	for i := range locs {
		locs[i] = resource.Location(fmt.Sprintf("l%d", i+1))
	}
	nJobs, hz := simJobs, simHorizon
	if smoke {
		nJobs, hz = simJobs/8, simHorizon/8
	}
	jobs, err := workload.Generate(workload.Config{
		Seed:             seed,
		Locations:        locs,
		NumJobs:          nJobs,
		MeanInterarrival: float64(hz) / float64(nJobs+1),
		ActorsMin:        1,
		ActorsMax:        3,
		StepsMin:         1,
		StepsMax:         4,
		SendProb:         0.2,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      3,
	})
	if err != nil {
		return nil, churn.Trace{}, err
	}
	trace, err := churn.Generate(churn.Config{
		Seed:             seed + 1,
		Locations:        locs,
		Horizon:          interval.Time(hz),
		MeanInterarrival: 1,
		LeaseMin:         40,
		LeaseMax:         200,
		RateMin:          1,
		RateMax:          8,
		LinkProb:         0.5,
		RenegeProb:       0,
		Base:             24,
	})
	return jobs, trace, err
}

// timedPolicy wraps admission.Rota to time every verdict from outside.
type timedPolicy struct {
	admission.Rota
	durs []uint32 // ns, fixed capacity like the clients' sample buffers
}

func (p *timedPolicy) Decide(v admission.View, job compute.Distributed) admission.Decision {
	start := time.Now()
	dec := p.Rota.Decide(v, job)
	ns := time.Since(start).Nanoseconds()
	if ns > sampleMask {
		ns = sampleMask
	}
	p.durs = append(p.durs, uint32(ns))
	return dec
}

// simPass is one pass's outcome.
type simPass struct {
	res     sim.Result
	wall    time.Duration
	decides time.Duration // time inside the policy's verdicts
}

// runSimPass runs one pass and checks Theorem 4 under honest leaves:
// no admitted job misses its deadline, no plan is violated.
func runSimPass(policy *timedPolicy, jobs []workload.Job, trace churn.Trace) (simPass, error) {
	before := len(policy.durs)
	start := time.Now()
	res, err := sim.Run(sim.Config{Policy: policy, Executor: sim.Planned}, jobs, trace)
	wall := time.Since(start)
	if err != nil {
		return simPass{}, err
	}
	if res.Missed != 0 || res.Violations != 0 {
		return simPass{}, fmt.Errorf("sim: %d missed, %d violations among %d admitted (Theorem 4 under honest leaves)",
			res.Missed, res.Violations, res.Admitted)
	}
	if res.Offered != len(jobs) || res.Admitted+res.Rejected != res.Offered {
		return simPass{}, fmt.Errorf("sim: offered %d of %d jobs, %d admitted + %d rejected", res.Offered, len(jobs), res.Admitted, res.Rejected)
	}
	var decides time.Duration
	for _, ns := range policy.durs[before:] {
		decides += time.Duration(ns)
	}
	return simPass{res: res, wall: wall, decides: decides}, nil
}

// simLayers is one traced pass: the same planned loop sim.Run runs,
// performed by the harness through internal/core's exported functions
// with a timer around each, so the rungs sum to the pass.
type simLayers struct {
	freeRes, accommodate, tick             []float64 // µs per call
	sumFreeRes, sumAccommodate, sumTick    time.Duration
	admitted, rejected, ticks, commitments int
	peak                                   core.State // the state with the most commitments
}

func replaySimPass(jobs []workload.Job, trace churn.Trace) simLayers {
	var out simLayers
	arrivals := make(map[interval.Time][]workload.Job)
	joins := make(map[interval.Time][]churn.Join)
	var hz interval.Time
	for _, j := range jobs {
		arrivals[j.Arrival] = append(arrivals[j.Arrival], j)
		if j.Dist.Deadline > hz {
			hz = j.Dist.Deadline
		}
	}
	for _, j := range trace.Joins {
		joins[j.At] = append(joins[j.At], j)
		if end := j.Terms.Hull().End; end > hz {
			hz = end
		}
	}
	if end := trace.Base.Hull().End; end > hz {
		hz = end
	}
	state := core.NewState(trace.Base, 0)
	timed := func(sum *time.Duration, each *[]float64, fn func()) {
		start := time.Now()
		fn()
		d := time.Since(start)
		*sum += d
		*each = append(*each, float64(d.Nanoseconds())/1e3)
	}
	for now := interval.Time(0); now <= hz; now++ {
		for _, j := range joins[now] {
			state, _ = core.Acquire(state, j.Terms)
		}
		for _, job := range arrivals[now] {
			timed(&out.sumFreeRes, &out.freeRes, func() { _, _ = state.FreeResources() })
			timed(&out.sumAccommodate, &out.accommodate, func() {
				plan, err := core.AccommodateAdditional(state, job.Dist)
				if err != nil {
					out.rejected++
					return
				}
				next, _, err := core.Accommodate(state, core.ConcurrentAt(job.Dist, state.Now), plan)
				if err != nil {
					out.rejected++
					return
				}
				state = next
				out.admitted++
			})
		}
		if n := len(state.Commitments); n > out.commitments {
			out.commitments = n
			out.peak = state
		}
		timed(&out.sumTick, &out.tick, func() { state, _, _ = core.Tick(state, 1) })
		out.ticks++
	}
	return out
}
