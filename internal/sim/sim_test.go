package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/churn"
	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workload"
)

var cpuL1 = resource.CPUAt("l1")

func u(n int64) resource.Rate { return resource.FromUnits(n) }

func staticTrace(units int64, horizon interval.Time, locs ...resource.Location) churn.Trace {
	var tr churn.Trace
	for _, loc := range locs {
		tr.Base.Add(resource.NewTerm(resource.FromUnits(units), resource.CPUAt(loc), interval.New(0, horizon)))
	}
	return tr
}

func mkJob(t testing.TB, name string, a compute.ActorName, loc resource.Location, start, deadline interval.Time) workload.Job {
	t.Helper()
	c, err := cost.Realize(cost.Paper(), a, compute.Evaluate(a, loc, 1)) // 8 cpu
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed(name, start, deadline, c)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Dist: d, Arrival: start}
}

func TestPlannedRotaCompletesEverythingItAdmits(t *testing.T) {
	trace := staticTrace(2, 40, "l1")
	jobs := []workload.Job{
		mkJob(t, "j1", "a1", "l1", 0, 10),
		mkJob(t, "j2", "a2", "l1", 0, 10),
		mkJob(t, "j3", "a3", "l1", 2, 12),  // arrives when capacity is committed
		mkJob(t, "j4", "a4", "l1", 12, 20), // fits after the first wave
	}
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 4 {
		t.Errorf("Offered = %d", res.Offered)
	}
	if res.Admitted+res.Rejected != res.Offered {
		t.Errorf("admitted %d + rejected %d != offered %d", res.Admitted, res.Rejected, res.Offered)
	}
	// The assurance property: zero misses, zero violations.
	if res.Missed != 0 || res.Violations != 0 {
		t.Errorf("missed=%d violations=%d, want 0/0", res.Missed, res.Violations)
	}
	if res.CompletedOnTime != res.Admitted {
		t.Errorf("completed %d != admitted %d", res.CompletedOnTime, res.Admitted)
	}
	if res.Admitted < 3 {
		t.Errorf("admitted only %d of 4; capacity fits at least 3", res.Admitted)
	}
	if res.GoodWork != res.AdmittedWork {
		t.Errorf("goodput %d != admitted work %d", res.GoodWork, res.AdmittedWork)
	}
	if res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Errorf("utilization = %f", res.Utilization())
	}
}

func TestPlannedRequiresPlans(t *testing.T) {
	trace := staticTrace(2, 20, "l1")
	jobs := []workload.Job{mkJob(t, "j1", "a1", "l1", 0, 10)}
	_, err := Run(Config{Policy: admission.AlwaysAdmit{}, Executor: Planned}, jobs, trace)
	if !errors.Is(err, ErrPlanlessAdmission) {
		t.Fatalf("want ErrPlanlessAdmission, got %v", err)
	}
}

func TestGreedyAlwaysAdmitOverloads(t *testing.T) {
	// Capacity for one job per 4 ticks; offer 4 jobs with deadline 8.
	trace := staticTrace(2, 20, "l1")
	var jobs []workload.Job
	for i, a := range []compute.ActorName{"a1", "a2", "a3", "a4"} {
		jobs = append(jobs, mkJob(t, "j"+string(rune('1'+i)), a, "l1", 0, 8))
	}
	res, err := Run(Config{Policy: admission.AlwaysAdmit{}, Executor: GreedyEDF}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 4 {
		t.Fatalf("Admitted = %d", res.Admitted)
	}
	// 16 units by t=8 at rate 2; 4 jobs need 32: at most 2 finish on time.
	if res.CompletedOnTime > 2 {
		t.Errorf("CompletedOnTime = %d, capacity supports at most 2", res.CompletedOnTime)
	}
	if res.Missed < 2 {
		t.Errorf("Missed = %d, want ≥ 2", res.Missed)
	}
	if res.MissRate() <= 0 {
		t.Error("MissRate should be positive under overload")
	}
}

func TestGreedyEDFFeasibleAvoidsOverload(t *testing.T) {
	trace := staticTrace(2, 20, "l1")
	var jobs []workload.Job
	for i, a := range []compute.ActorName{"a1", "a2", "a3", "a4"} {
		jobs = append(jobs, mkJob(t, "j"+string(rune('1'+i)), a, "l1", 0, 8))
	}
	res, err := Run(Config{Policy: admission.NewEDFFeasible(), Executor: GreedyEDF}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 0 {
		t.Errorf("edf-feasible missed %d", res.Missed)
	}
	if res.Admitted < 2 {
		t.Errorf("admitted %d, capacity supports 2", res.Admitted)
	}
}

func TestChurnJoinExpandsCapacity(t *testing.T) {
	// No base; a join at t=0 carries all capacity.
	tr := churn.Trace{Joins: []churn.Join{{
		At:    0,
		Terms: resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10))),
	}}}
	jobs := []workload.Job{mkJob(t, "j1", "a1", "l1", 0, 10)}
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned}, jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1 || res.CompletedOnTime != 1 {
		t.Errorf("join-supplied job: admitted=%d completed=%d", res.Admitted, res.CompletedOnTime)
	}
}

func TestRenegeCausesViolation(t *testing.T) {
	// Resource joins, job admitted against it, resource withdraws at t=2.
	tr := churn.Trace{Joins: []churn.Join{{
		At:        0,
		Terms:     resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10))),
		RenegeAt:  2,
		Withdrawn: resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(2, 10))),
	}}}
	jobs := []workload.Job{mkJob(t, "doomed", "a1", "l1", 0, 10)}
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned}, jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1 {
		t.Fatalf("Admitted = %d", res.Admitted)
	}
	if res.Violations == 0 {
		t.Error("renege should cause violations")
	}
	if res.Missed != 1 || res.CompletedOnTime != 0 {
		t.Errorf("missed=%d completed=%d, want 1/0", res.Missed, res.CompletedOnTime)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	wcfg := workload.Config{
		Seed: 9, Locations: []resource.Location{"l1", "l2"},
		NumJobs: 30, MeanInterarrival: 4,
		ActorsMin: 1, ActorsMax: 2, StepsMin: 1, StepsMax: 3,
		SendProb: 0.2, MigrateProb: 0.05, EvalWeightMax: 2, SlackFactor: 3,
	}
	ccfg := churn.Config{
		Seed: 10, Locations: []resource.Location{"l1", "l2"},
		Horizon: 400, MeanInterarrival: 6,
		LeaseMin: 10, LeaseMax: 60, RateMin: 1, RateMax: 3,
		LinkProb: 0.3, Base: 2,
	}
	jobs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := churn.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned}, jobs, trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	a.DecisionTime, b.DecisionTime = 0, 0 // wall clock is not deterministic
	if a != b {
		t.Errorf("identical runs diverge:\n%+v\n%+v", a, b)
	}
	if a.Missed != 0 || a.Violations != 0 {
		t.Errorf("rota planned run missed=%d violations=%d", a.Missed, a.Violations)
	}
}

func TestGreedyRequiresUnitDT(t *testing.T) {
	trace := staticTrace(1, 10, "l1")
	_, err := Run(Config{Policy: admission.AlwaysAdmit{}, Executor: GreedyEDF, DT: 2}, nil, trace)
	if err == nil {
		t.Fatal("DT=2 greedy accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil, churn.Trace{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Run(Config{Policy: admission.AlwaysAdmit{}, Executor: Executor(9)}, nil, churn.Trace{}); err == nil {
		t.Error("unknown executor accepted")
	}
	if Executor(9).String() == "" || Planned.String() != "planned" || GreedyEDF.String() != "greedy-edf" {
		t.Error("executor names wrong")
	}
}

func TestTraceIntegration(t *testing.T) {
	tr := churn.Trace{Joins: []churn.Join{{
		At:        0,
		Terms:     resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10))),
		RenegeAt:  2,
		Withdrawn: resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(2, 10))),
	}}}
	jobs := []workload.Job{mkJob(t, "doomed", "a1", "l1", 0, 10)}
	log := trace.NewLog()
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, Trace: log}, jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("scenario should produce violations")
	}
	for _, kind := range []trace.Kind{
		trace.KindJoin, trace.KindRenege, trace.KindArrival,
		trace.KindAdmit, trace.KindViolation, trace.KindMiss,
	} {
		if len(log.Filter(kind)) == 0 {
			t.Errorf("no %s events recorded", kind)
		}
	}
	// The JSONL stream round-trips.
	var sb strings.Builder
	if err := log.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events()) != len(log.Events()) {
		t.Errorf("round trip %d != %d", len(back.Events()), len(log.Events()))
	}
}

func TestTraceGreedyIntegration(t *testing.T) {
	log := trace.NewLog()
	tr := staticTrace(2, 20, "l1")
	var jobs []workload.Job
	for i, a := range []compute.ActorName{"a1", "a2", "a3", "a4"} {
		jobs = append(jobs, mkJob(t, "j"+string(rune('1'+i)), a, "l1", 0, 8))
	}
	if _, err := Run(Config{Policy: admission.AlwaysAdmit{}, Executor: GreedyEDF, Trace: log}, jobs, tr); err != nil {
		t.Fatal(err)
	}
	if len(log.Filter(trace.KindAdmit)) != 4 {
		t.Errorf("admit events = %d", len(log.Filter(trace.KindAdmit)))
	}
	if len(log.Filter(trace.KindMiss)) == 0 {
		t.Error("overload should record misses")
	}
	if len(log.Filter(trace.KindComplete)) == 0 {
		t.Error("some jobs should complete")
	}
}

func TestRepairRecoversRenegedCommitments(t *testing.T) {
	// rate-3 provider joins and reneges at t=2; a rate-1 base survives.
	// Without repair the 16-unit job is lost; with repair it completes by
	// its deadline on the survivor.
	tr := churn.Trace{Joins: []churn.Join{{
		At:        0,
		Terms:     resource.NewSet(resource.NewTerm(u(3), cpuL1, interval.New(0, 12))),
		RenegeAt:  2,
		Withdrawn: resource.NewSet(resource.NewTerm(u(3), cpuL1, interval.New(2, 12))),
	}}}
	tr.Base.Add(resource.NewTerm(u(1), cpuL1, interval.New(0, 12)))

	job := mkJob(t, "patient", "a1", "l1", 0, 12)
	job.Dist.Actors[0].Steps[0].Amounts = resource.NewAmounts(resource.AmountOf(16, cpuL1))

	without, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned},
		[]workload.Job{job}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if without.Missed != 1 || without.CompletedOnTime != 0 {
		t.Fatalf("without repair: %+v", without)
	}

	with, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, Repair: true},
		[]workload.Job{job}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if with.Repaired != 1 {
		t.Errorf("Repaired = %d, want 1", with.Repaired)
	}
	if with.CompletedOnTime != 1 || with.Missed != 0 {
		t.Errorf("with repair: completed=%d missed=%d, want 1/0",
			with.CompletedOnTime, with.Missed)
	}
}

func TestRepairIrreparableCountsMissImmediately(t *testing.T) {
	// No survivor at all: repair must fail and the job counts as missed.
	tr := churn.Trace{Joins: []churn.Join{{
		At:        0,
		Terms:     resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 10))),
		RenegeAt:  2,
		Withdrawn: resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(2, 10))),
	}}}
	jobs := []workload.Job{mkJob(t, "doomed", "a1", "l1", 0, 10)}
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, Repair: true}, jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 0 || res.Missed != 1 {
		t.Errorf("repaired=%d missed=%d, want 0/1", res.Repaired, res.Missed)
	}
}

func TestPlannedCoarseDT(t *testing.T) {
	// DT=2 batches two ticks per transition but must preserve outcomes:
	// same admissions and completions as DT=1 for a deterministic load.
	trace := staticTrace(2, 40, "l1")
	jobs := []workload.Job{
		mkJob(t, "j1", "a1", "l1", 0, 12),
		mkJob(t, "j2", "a2", "l1", 4, 20),
	}
	fine, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, DT: 1}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, DT: 2}, jobs, trace)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Admitted != coarse.Admitted ||
		fine.CompletedOnTime != coarse.CompletedOnTime ||
		fine.Missed != coarse.Missed ||
		fine.ConsumedQty != coarse.ConsumedQty {
		t.Errorf("DT=1 %+v vs DT=2 %+v", fine, coarse)
	}
}

func TestSoakLargeOpenSystem(t *testing.T) {
	// A large end-to-end soak: 600 jobs, heavy churn with reneging, plan
	// repair enabled — the assurance invariants must hold at scale and
	// every statistic must stay internally consistent.
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	jobs, err := workload.Generate(workload.Config{
		Seed:             12021,
		Locations:        []resource.Location{"l1", "l2", "l3", "l4"},
		NumJobs:          600,
		MeanInterarrival: 5,
		ActorsMin:        1,
		ActorsMax:        3,
		StepsMin:         1,
		StepsMax:         5,
		SendProb:         0.25,
		MigrateProb:      0.05,
		EvalWeightMax:    3,
		SlackFactor:      2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := churn.Generate(churn.Config{
		Seed:             12022,
		Locations:        []resource.Location{"l1", "l2", "l3", "l4"},
		Horizon:          3200,
		MeanInterarrival: 3,
		LeaseMin:         10,
		LeaseMax:         120,
		RateMin:          1,
		RateMax:          4,
		LinkProb:         0.35,
		RenegeProb:       0.15,
		Base:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Policy: &admission.Rota{}, Executor: Planned, Repair: true}, jobs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 600 {
		t.Fatalf("Offered = %d", res.Offered)
	}
	if res.Admitted+res.Rejected != res.Offered {
		t.Errorf("conservation broken: %d + %d != %d", res.Admitted, res.Rejected, res.Offered)
	}
	if res.CompletedOnTime+res.Missed != res.Admitted {
		t.Errorf("outcome conservation broken: %d + %d != %d",
			res.CompletedOnTime, res.Missed, res.Admitted)
	}
	if res.Admitted < 100 {
		t.Errorf("suspiciously few admissions: %d", res.Admitted)
	}
	// With 15% reneging some misses are legitimate, but misses must not
	// exceed the commitments that were actually damaged or irreparable.
	if res.Missed > res.Violations+res.Repaired {
		t.Errorf("more misses (%d) than damage events (%d violations, %d repairs)",
			res.Missed, res.Violations, res.Repaired)
	}
	if res.GoodWork > res.AdmittedWork || res.AdmittedWork > res.OfferedWork {
		t.Errorf("work accounting broken: %d / %d / %d",
			res.GoodWork, res.AdmittedWork, res.OfferedWork)
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization out of range: %f", u)
	}
}
