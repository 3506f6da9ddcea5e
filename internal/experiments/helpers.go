package experiments

import (
	"repro/internal/compute"
	"repro/internal/resource"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// scheduleExhaustive runs the witness search with actor-permutation
// backtracking enabled.
func scheduleExhaustive(theta resource.Set, req compute.Concurrent) (schedule.Plan, error) {
	return schedule.Concurrent(theta, req, true)
}

// calibrateWorkload generates a job sequence whose total offered work is
// approximately load × capacity, spread over the horizon. It probes the
// generator once to estimate mean job work, then sizes the job count and
// interarrival accordingly — keeping workload shape constant while the
// offered load varies.
func calibrateWorkload(base workload.Config, load float64, capacity resource.Quantity, horizon int64) ([]workload.Job, error) {
	probe := base
	probe.NumJobs = 40
	probe.MeanInterarrival = 1
	probeJobs, err := workload.Generate(probe)
	if err != nil {
		return nil, err
	}
	meanWork := float64(workload.TotalWork(probeJobs)) / float64(len(probeJobs))
	if meanWork <= 0 {
		meanWork = 1
	}
	target := load * float64(capacity)
	numJobs := int(target/meanWork + 0.5)
	if numJobs < 1 {
		numJobs = 1
	}
	cfg := base
	cfg.NumJobs = numJobs
	cfg.MeanInterarrival = float64(horizon) / float64(numJobs+1)
	return workload.Generate(cfg)
}
