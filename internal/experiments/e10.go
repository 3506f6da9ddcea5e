package experiments

import (
	"math/rand"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/schedule"
)

// E10Config parameterizes the Φ-estimation-error study.
type E10Config struct {
	Seed int64
	// RelErrs sweeps the relative estimation error (±fraction).
	RelErrs []float64
	// Trials per (error, bias) cell.
	Trials int
}

// DefaultE10 returns the harness parameters.
func DefaultE10() E10Config {
	return E10Config{Seed: 173, RelErrs: []float64{0, 0.1, 0.25, 0.5}, Trials: 150}
}

// E10Estimation quantifies the paper's footnote that Φ need not be exact:
// "at the cost of some inefficiency, estimates could be used and revised
// as necessary." Admission decides using a *noisy estimate* of each
// job's requirements; the reservation (the witness plan's demand) is then
// checked against the job's *actual* requirements.
//
//   - Unbiased noise: underestimates slip through admission but the
//     reservation cannot feed the real work — broken assurances grow
//     with the error.
//   - Pessimistic (over-estimating) noise: assurance is preserved by
//     construction; the cost is the inefficiency the footnote predicts —
//     lower admission and over-reservation that grow with the error.
func E10Estimation(cfg E10Config) *metrics.Table {
	t := metrics.NewTable("E10: Φ estimation error vs assurance",
		"rel-err", "bias", "attempted", "admitted", "broken-assurance", "revision-saves", "over-reserve")

	for _, relErr := range cfg.RelErrs {
		for _, pessimistic := range []bool{false, true} {
			bias := "unbiased"
			if pessimistic {
				bias = "pessimistic"
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			exact := cost.Paper()
			noisy := cost.NewNoisy(exact, relErr, cfg.Seed+int64(relErr*1000), pessimistic)

			attempted, admitted, broken, saved := 0, 0, 0, 0
			var reserveRatios []float64
			for trial := 0; trial < cfg.Trials; trial++ {
				theta := randSupplyE10(rng)
				actions := randActionsE10(rng, trial)
				estComp, err := cost.Realize(noisy, actions[0].Actor, actions...)
				if err != nil {
					continue
				}
				actComp, err := cost.Realize(exact, actions[0].Actor, actions...)
				if err != nil {
					continue
				}
				attempted++
				deadline := interval.Time(8 + rng.Intn(16))
				estReq := compute.ComplexOf(estComp, interval.New(0, deadline))
				plan, err := schedule.Single(theta, estReq)
				if err != nil {
					continue // refused on the estimate
				}
				admitted++
				// Ground truth: can the actual requirements be met from
				// exactly what was reserved?
				reserved := plan.Demand()
				actReq := compute.ComplexOf(actComp, interval.New(0, deadline))
				if _, err := schedule.Single(reserved, actReq); err != nil {
					broken++
					// The footnote's remedy: revise the estimate against
					// the full supply. (In a loaded system only the free
					// portion would be available; this bounds the best
					// case.)
					if _, err := schedule.Single(theta, actReq); err == nil {
						saved++
					}
				}
				estTotal := estComp.TotalQty()
				actTotal := actComp.TotalQty()
				if actTotal > 0 {
					reserveRatios = append(reserveRatios, float64(estTotal)/float64(actTotal))
				}
			}
			t.AddRow(relErr, bias, attempted, admitted, broken, saved, metrics.Mean(reserveRatios))
		}
	}
	t.AddNote("broken-assurance: admitted on the estimate, but the reservation cannot feed the actual work")
	t.AddNote("over-reserve: mean estimated/actual total quantity among admitted jobs")
	t.AddNote("pessimistic rows must show 0 broken assurances at any error level")
	return t
}

func randSupplyE10(rng *rand.Rand) resource.Set {
	var theta resource.Set
	theta.Add(resource.NewTerm(
		resource.FromUnits(int64(2+rng.Intn(3))),
		resource.CPUAt("l1"),
		interval.New(0, interval.Time(16+rng.Intn(16)))))
	theta.Add(resource.NewTerm(
		resource.FromUnits(int64(1+rng.Intn(2))),
		resource.Link("l1", "l2"),
		interval.New(0, interval.Time(16+rng.Intn(16)))))
	return theta
}

func randActionsE10(rng *rand.Rand, trial int) []compute.Action {
	name := compute.ActorName(randName(trial, 0, 0))
	n := 1 + rng.Intn(3)
	actions := make([]compute.Action, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			actions = append(actions, compute.Send(name, "l1", "peer", "l2", 1+rng.Int63n(3)))
		} else {
			actions = append(actions, compute.Evaluate(name, "l1", 1+rng.Int63n(3)))
		}
	}
	return actions
}
