package schedule

import (
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// randSingleActorReq builds a random single-actor complex requirement.
func randSingleActorReq(rng *rand.Rand, name compute.ActorName, deadline interval.Time) compute.Complex {
	types := []resource.LocatedType{cpuL1, cpuL2, netL12}
	nSteps := 1 + rng.Intn(4)
	steps := make([]compute.Step, 0, nSteps)
	for i := 0; i < nSteps; i++ {
		lt := types[rng.Intn(len(types))]
		steps = append(steps, compute.Step{
			Action: compute.Evaluate(name, "l1", 1),
			Amounts: resource.NewAmounts(resource.Amount{
				Qty:  resource.QuantityFromUnits(int64(1 + rng.Intn(6))),
				Type: lt,
			}),
		})
	}
	comp, err := compute.NewComputation(name, steps...)
	if err != nil {
		panic(err)
	}
	return compute.ComplexOf(comp, interval.New(0, deadline))
}

func randSupply(rng *rand.Rand, n int) resource.Set {
	types := []resource.LocatedType{cpuL1, cpuL2, netL12}
	var theta resource.Set
	for i := 0; i < n; i++ {
		start := interval.Time(rng.Intn(10))
		theta.Add(resource.NewTerm(
			resource.FromUnits(int64(1+rng.Intn(4))),
			types[rng.Intn(len(types))],
			interval.New(start, start+1+interval.Time(rng.Intn(10)))))
	}
	return theta
}

// TestPropertyMoreResourcesPreserveFeasibility: if a schedule exists in
// Θ, one exists in Θ ∪ Θ' for any Θ'. The single-actor procedure is
// exact, so this must hold unconditionally there.
func TestPropertyMoreResourcesPreserveFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 500; iter++ {
		req := randSingleActorReq(rng, "a1", 8+interval.Time(rng.Intn(16)))
		theta := randSupply(rng, 2+rng.Intn(4))
		if _, err := Single(theta, req); err != nil {
			continue
		}
		bigger := theta.Union(randSupply(rng, 1+rng.Intn(3)))
		if _, err := Single(bigger, req); err != nil {
			t.Fatalf("iter %d: adding resources broke feasibility\nreq=%v\ntheta=%v\nbigger=%v",
				iter, req, theta, bigger)
		}
	}
}

// TestPropertyLongerDeadlinePreservesFeasibility: extending the window's
// end can only help a single actor.
func TestPropertyLongerDeadlinePreservesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for iter := 0; iter < 500; iter++ {
		deadline := 6 + interval.Time(rng.Intn(14))
		req := randSingleActorReq(rng, "a1", deadline)
		theta := randSupply(rng, 2+rng.Intn(4))
		if _, err := Single(theta, req); err != nil {
			continue
		}
		relaxed := compute.Complex{
			Actor:  req.Actor,
			Phases: req.Phases,
			Window: interval.New(req.Window.Start, req.Window.End+1+interval.Time(rng.Intn(8))),
		}
		if _, err := Single(theta, relaxed); err != nil {
			t.Fatalf("iter %d: longer deadline broke feasibility\nreq=%v\ntheta=%v", iter, req, theta)
		}
	}
}

// TestPropertySingleMatchesBruteForce cross-validates the greedy
// single-actor procedure against exhaustive enumeration of break points
// on small instances: greedy must agree exactly on feasibility (Theorem 2
// quantifies over all break-point choices).
func TestPropertySingleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 400; iter++ {
		deadline := 3 + interval.Time(rng.Intn(8)) // small windows keep brute force cheap
		req := randSingleActorReq(rng, "a1", deadline)
		theta := randSupply(rng, 1+rng.Intn(3))

		_, greedyErr := Single(theta, req)
		brute := bruteForceFeasible(theta, req)
		if (greedyErr == nil) != brute {
			t.Fatalf("iter %d: greedy=%v brute=%v\nreq=%+v\ntheta=%v",
				iter, greedyErr == nil, brute, req, theta)
		}
	}
}

// bruteForceFeasible enumerates every monotone assignment of break points
// on the integer grid and tests the per-subinterval aggregate condition
// of Theorem 2 directly.
func bruteForceFeasible(theta resource.Set, req compute.Complex) bool {
	m := len(req.Phases)
	if m == 0 {
		return true
	}
	var rec func(breaks []interval.Time, from interval.Time) bool
	rec = func(breaks []interval.Time, from interval.Time) bool {
		if len(breaks) == m-1 {
			return satisfiedWithBreaks(theta, req, breaks)
		}
		for t := from; t <= req.Window.End; t++ {
			if rec(append(breaks, t), t) {
				return true
			}
		}
		return false
	}
	return rec(nil, req.Window.Start)
}

// satisfiedWithBreaks partitions req's window at the monotone break
// points t1 … t_{m-1} and tests every phase's simple requirement on its
// subinterval (Theorem 2's "so that the system can satisfy the simple
// resource requirements for each subinterval"). The subintervals are
// disjoint, so quantity in one cannot be counted again in another.
func satisfiedWithBreaks(theta resource.Set, req compute.Complex, breaks []interval.Time) bool {
	prev := req.Window.Start
	for i, ph := range req.Phases {
		end := req.Window.End
		if i < len(breaks) {
			end = breaks[i]
		}
		sub := compute.Simple{Amounts: ph.Amounts, Window: interval.New(prev, end)}
		if !sub.SatisfiedBy(func(lt resource.LocatedType) resource.Quantity { return theta.QuantityWithin(lt, sub.Window) }) {
			return false
		}
		prev = end
	}
	return true
}
