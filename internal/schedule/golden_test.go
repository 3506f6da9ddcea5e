package schedule_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// goldenLocs are the locations of the plan-equivalence fixture.
var goldenLocs = []resource.Location{"l1", "l2", "l3", "l4"}

// goldenTheta is rotad's base Θ shape: cpu at every location plus a full
// mesh of links, all over (0, 2²⁰).
func goldenTheta(cpu, link int64) resource.Set {
	var theta resource.Set
	window := interval.New(0, 1<<20)
	for _, loc := range goldenLocs {
		theta.Add(resource.NewTerm(resource.FromUnits(cpu), resource.CPUAt(loc), window))
	}
	for _, src := range goldenLocs {
		for _, dst := range goldenLocs {
			if src != dst {
				theta.Add(resource.NewTerm(resource.FromUnits(link), resource.Link(src, dst), window))
			}
		}
	}
	return theta
}

// hashPlan folds one planning outcome into h in a canonical rendering:
// every allocation in plan order, every actor's break points in actor
// order, the finish time — or the error text.
func hashPlan(h hash.Hash, name string, plan schedule.Plan, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s: error %v\n", name, err)
		return
	}
	fmt.Fprintf(h, "%s: finish %d\n", name, plan.Finish)
	for _, a := range plan.Allocs {
		fmt.Fprintf(h, "  %s/%d %d %s %d %d\n", a.Actor, a.Phase, a.Term.Rate, a.Term.Type, a.Term.Span.Start, a.Term.Span.End)
	}
	actors := make([]string, 0, len(plan.Breaks))
	for _, b := range plan.Breaks {
		actors = append(actors, string(b.Actor))
	}
	sort.Strings(actors)
	for _, actor := range actors {
		fmt.Fprintf(h, "  breaks %s %v\n", actor, plan.BreaksOf(compute.ActorName(actor)))
	}
}

// loadedFreeView plans n resident one-evaluate commitments with staggered
// windows (start = k·8 mod 4096, width 128, round-robin over locations —
// the shape benchAdmitLedger and the benchmark's admit_loaded preload)
// against theta, subtracting each plan, and returns what is left. Every
// resident plan is folded into h.
func loadedFreeView(t *testing.T, h hash.Hash, theta resource.Set, n int) resource.Set {
	t.Helper()
	free := theta
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("pre%d", k)
		actor := compute.ActorName(name + ".a")
		c, err := cost.Realize(cost.Paper(), actor, compute.Evaluate(actor, goldenLocs[k%len(goldenLocs)], 1))
		if err != nil {
			t.Fatal(err)
		}
		start := interval.Time((k * 8) % 4096)
		d, err := compute.NewDistributed(name, start, start+128, c)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := schedule.Concurrent(free, compute.ConcurrentOf(d), false)
		hashPlan(h, name, plan, err)
		if err != nil {
			t.Fatalf("resident %d: %v", k, err)
		}
		if free, err = free.Subtract(plan.Demand()); err != nil {
			t.Fatalf("resident %d: %v", k, err)
		}
	}
	return free
}

// TestPlanEquivalenceGolden pins the witness plans themselves: Allocs,
// Breaks and Finish of every plan over a loaded free view must render to
// the hash recorded before the planner stopped cloning Θ. Two fixtures:
// the benchmark's roomy admit_loaded shape (every job fits, every second
// admitted job stays reserved so the view keeps fragmenting), and a tight
// Θ where plans spread over many segments, rejections occur and the
// exhaustive ordering search runs.
func TestPlanEquivalenceGolden(t *testing.T) {
	h := sha256.New()

	free := loadedFreeView(t, h, goldenTheta(512, 64), 1000)
	jobs, err := workload.Generate(workload.Config{
		Seed: 20100621, Locations: goldenLocs, NumJobs: 600, MeanInterarrival: 4096.0 / 600,
		ActorsMin: 2, ActorsMax: 3, StepsMin: 2, StepsMax: 4,
		SendProb: 0.2, MigrateProb: 0.05, EvalWeightMax: 3, SlackFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i, job := range jobs {
		plan, err := schedule.Concurrent(free, compute.ConcurrentOf(job.Dist), false)
		hashPlan(h, job.Dist.Name, plan, err)
		if err != nil {
			continue
		}
		admitted++
		if err := schedule.Verify(free, compute.ConcurrentOf(job.Dist), plan); err != nil {
			t.Fatalf("job %d: plan is not a witness: %v", i, err)
		}
		if i%2 == 0 {
			if free, err = free.Subtract(plan.Demand()); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	}
	if admitted < 500 {
		t.Fatalf("only %d of %d roomy jobs planned; the fixture no longer exercises the planner", admitted, len(jobs))
	}

	tight := loadedFreeView(t, h, goldenTheta(2, 1), 200)
	jobs, err = workload.Generate(workload.Config{
		Seed: 7, Locations: goldenLocs, NumJobs: 300, MeanInterarrival: 4096.0 / 300,
		ActorsMin: 2, ActorsMax: 4, StepsMin: 2, StepsMax: 5,
		SendProb: 0.25, MigrateProb: 0.1, EvalWeightMax: 6, SlackFactor: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	planned, refused := 0, 0
	for _, job := range jobs {
		req := compute.ConcurrentOf(job.Dist)
		plan, err := schedule.Concurrent(tight, req, true)
		hashPlan(h, job.Dist.Name, plan, err)
		if err != nil {
			refused++
			continue
		}
		planned++
		if tight, err = tight.Subtract(plan.Demand()); err != nil {
			t.Fatal(err)
		}
	}
	if planned == 0 || refused == 0 {
		t.Fatalf("tight fixture planned %d, refused %d; it must exercise both", planned, refused)
	}

	got := hex.EncodeToString(h.Sum(nil))
	raw, err := os.ReadFile("testdata/plan_golden.sha256")
	if err != nil {
		t.Fatalf("golden hash missing (this run: %s): %v", got, err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Fatalf("plans changed: hash %s, golden %s", got, want)
	}
}
