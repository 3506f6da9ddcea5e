package core

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

// TestConcurrentAtAllocatesLittle bounds the requirement build every
// decision pays: ConcurrentAt of a 3-actor job, four steps per actor
// (a single-type run that merges, a send and a migrate, so phases of one
// and of several types), clamped to a later now or not, allocates at
// most 2 + actors times — whatever the number of phases and amounts.
func TestConcurrentAtAllocatesLittle(t *testing.T) {
	var actors []compute.Computation
	for _, name := range []compute.ActorName{"a", "b", "c"} {
		c, err := cost.Realize(cost.Paper(), name,
			compute.Evaluate(name, "l1", 1),
			compute.Evaluate(name, "l1", 1),
			compute.Send(name, "l1", "x", "l2", 1),
			compute.Migrate(name, "l1", "l2", 3),
		)
		if err != nil {
			t.Fatal(err)
		}
		actors = append(actors, c)
	}
	dist, err := compute.NewDistributed("job", 0, 64, actors...)
	if err != nil {
		t.Fatal(err)
	}
	req := ConcurrentAt(dist, 8)
	if len(req.Actors) != 3 || len(req.Actors[0].Phases) != 3 || req.Window != interval.New(8, 64) {
		t.Fatalf("requirement = %v with %d phases per actor", req, len(req.Actors[0].Phases))
	}
	if got, _ := req.Actors[0].Phases[0].Amounts.Lookup(resource.CPUAt("l1")); got != resource.QuantityFromUnits(16) {
		t.Fatalf("merged evaluate phase needs %v cpu, want 16 units", got)
	}
	limit := float64(2 + len(dist.Actors))
	for _, now := range []interval.Time{0, 8} {
		allocs := testing.AllocsPerRun(100, func() { ConcurrentAt(dist, now) })
		t.Logf("now=%d: %.0f allocations per build", now, allocs)
		if allocs > limit {
			t.Errorf("ConcurrentAt at now=%d allocates %.0f times, want ≤ %.0f", now, allocs, limit)
		}
	}
}
