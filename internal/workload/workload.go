// Package workload generates synthetic deadline-constrained distributed
// computations for the evaluation harness. The paper evaluates nothing
// empirically; these generators produce the open-system workloads its
// motivation describes — multi-actor computations arriving over time,
// each a sequence of send/evaluate/create/ready/migrate actions with an
// earliest start and a deadline.
//
// All randomness is drawn from a seeded source, so every generated
// workload is reproducible from its Config.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

// Config parameterizes a workload.
type Config struct {
	// Seed fixes the random stream.
	Seed int64
	// Locations are the nodes actors may run on. At least one required.
	Locations []resource.Location
	// NumJobs is the number of distributed computations to generate.
	NumJobs int
	// MeanInterarrival is the mean gap between job arrivals in ticks
	// (exponential); 0 means all jobs arrive at t=0.
	MeanInterarrival float64
	// ActorsMin/Max bound the number of actors per job.
	ActorsMin, ActorsMax int
	// StepsMin/Max bound the number of actions per actor.
	StepsMin, StepsMax int
	// SendProb is the probability a step is a send (needs ≥ 2 locations);
	// MigrateProb the probability it is a migrate. The remainder are
	// evaluate/create/ready.
	SendProb, MigrateProb float64
	// EvalWeightMax bounds the weight of evaluate actions (≥ 1).
	EvalWeightMax int64
	// SlackFactor sets deadlines: the window length is SlackFactor times
	// a lower bound on the job's critical work. Must be ≥ 1 for feasible
	// jobs; < 1 generates overloaded jobs on purpose.
	SlackFactor float64
	// Model is the Φ used to cost actions; cost.Paper() if nil.
	Model cost.Model
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Locations) == 0 {
		return fmt.Errorf("workload: no locations")
	}
	if c.NumJobs < 0 {
		return fmt.Errorf("workload: negative NumJobs")
	}
	if c.ActorsMin < 1 || c.ActorsMax < c.ActorsMin {
		return fmt.Errorf("workload: bad actor bounds [%d,%d]", c.ActorsMin, c.ActorsMax)
	}
	if c.StepsMin < 1 || c.StepsMax < c.StepsMin {
		return fmt.Errorf("workload: bad step bounds [%d,%d]", c.StepsMin, c.StepsMax)
	}
	if c.SendProb < 0 || c.MigrateProb < 0 || c.SendProb+c.MigrateProb > 1 {
		return fmt.Errorf("workload: bad action probabilities %f/%f", c.SendProb, c.MigrateProb)
	}
	if c.SlackFactor <= 0 {
		return fmt.Errorf("workload: SlackFactor must be positive")
	}
	return nil
}

// Job is one generated computation and its arrival time. The computation
// window opens at arrival.
type Job struct {
	Dist    compute.Distributed
	Arrival interval.Time
}

// Generate produces a reproducible job sequence.
func Generate(cfg Config) ([]Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = cost.Paper()
	}
	if cfg.EvalWeightMax < 1 {
		cfg.EvalWeightMax = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]Job, 0, cfg.NumJobs)
	clock := 0.0
	for j := 0; j < cfg.NumJobs; j++ {
		if cfg.MeanInterarrival > 0 {
			clock += rng.ExpFloat64() * cfg.MeanInterarrival
		}
		arrival := interval.Time(clock)
		job, err := generateJob(rng, cfg, model, j, arrival)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Dist: job, Arrival: arrival})
	}
	return jobs, nil
}

func generateJob(rng *rand.Rand, cfg Config, model cost.Model, idx int, arrival interval.Time) (compute.Distributed, error) {
	nActors := cfg.ActorsMin + rng.Intn(cfg.ActorsMax-cfg.ActorsMin+1)
	var actors []compute.Computation
	var critical resource.Quantity // max per-actor total work, a bound on serial work
	for ai := 0; ai < nActors; ai++ {
		name := compute.ActorName(fmt.Sprintf("j%d.a%d", idx, ai))
		loc := cfg.Locations[rng.Intn(len(cfg.Locations))]
		nSteps := cfg.StepsMin + rng.Intn(cfg.StepsMax-cfg.StepsMin+1)
		actions := make([]compute.Action, 0, nSteps)
		for si := 0; si < nSteps; si++ {
			actions = append(actions, randomAction(rng, cfg, name, &loc, si))
		}
		comp, err := cost.Realize(model, name, actions...)
		if err != nil {
			return compute.Distributed{}, fmt.Errorf("workload: job %d actor %d: %w", idx, ai, err)
		}
		if w := comp.TotalQty(); w > critical {
			critical = w
		}
		actors = append(actors, comp)
	}
	// Deadline: window long enough for SlackFactor × the critical actor's
	// work delivered at one unit per tick.
	length := interval.Time(cfg.SlackFactor*float64(critical.Units())) + 1
	return compute.NewDistributed(fmt.Sprintf("job-%d", idx), arrival, arrival+length, actors...)
}

// randomAction picks an action type; loc is updated by migrations so
// later actions are costed at the new location.
func randomAction(rng *rand.Rand, cfg Config, name compute.ActorName, loc *resource.Location, step int) compute.Action {
	p := rng.Float64()
	switch {
	case p < cfg.SendProb && len(cfg.Locations) > 1:
		dest := *loc
		for dest == *loc {
			dest = cfg.Locations[rng.Intn(len(cfg.Locations))]
		}
		return compute.Send(name, *loc, compute.ActorName(fmt.Sprintf("%s.peer%d", name, step)), dest, 1+rng.Int63n(4))
	case p < cfg.SendProb+cfg.MigrateProb && len(cfg.Locations) > 1:
		dest := *loc
		for dest == *loc {
			dest = cfg.Locations[rng.Intn(len(cfg.Locations))]
		}
		a := compute.Migrate(name, *loc, dest, 1+rng.Int63n(8))
		*loc = dest
		return a
	default:
		switch rng.Intn(3) {
		case 0:
			return compute.Create(name, *loc, compute.ActorName(fmt.Sprintf("%s.c%d", name, step)))
		case 1:
			return compute.Ready(name, *loc)
		default:
			return compute.Evaluate(name, *loc, 1+rng.Int63n(cfg.EvalWeightMax))
		}
	}
}

// TotalWork sums the required quantity across a job list (for offered
// load accounting).
func TotalWork(jobs []Job) resource.Quantity {
	var total resource.Quantity
	for _, j := range jobs {
		total += j.Dist.TotalQty()
	}
	return total
}
