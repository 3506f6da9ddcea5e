package core

import (
	"fmt"
	"testing"

	"repro/internal/compute"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

func benchState(b *testing.B, nCommitments int) State {
	b.Helper()
	theta := resource.NewSet(
		resource.NewTerm(u(64), cpuL1, interval.New(0, 4096)),
		resource.NewTerm(u(16), netL12, interval.New(0, 4096)),
	)
	s := NewState(theta, 0)
	for i := 0; i < nCommitments; i++ {
		name := compute.ActorName(fmt.Sprintf("a%d", i))
		comp, err := cost.Realize(cost.Paper(), name,
			compute.Evaluate(name, "l1", 1),
			compute.Send(name, "l1", "peer", "l2", 1),
		)
		if err != nil {
			b.Fatal(err)
		}
		dist, err := compute.NewDistributed(fmt.Sprintf("job%d", i), 0, 4096, comp)
		if err != nil {
			b.Fatal(err)
		}
		next, _, err := Admit(s, dist)
		if err != nil {
			b.Fatal(err)
		}
		s = next
	}
	return s
}

// BenchmarkFreeResources times the from-scratch Θ ∖ Σρ: a literal State
// carries no maintained view, so every call recomputes.
func BenchmarkFreeResources(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		s := benchState(b, n)
		cold := State{Theta: s.Theta, Commitments: s.Commitments, Now: s.Now}
		b.Run(fmt.Sprintf("%dcommitments", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cold.FreeResources(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAccommodateAdditional(b *testing.B) {
	s := benchState(b, 16)
	comp, err := cost.Realize(cost.Paper(), "probe", compute.Evaluate("probe", "l1", 1))
	if err != nil {
		b.Fatal(err)
	}
	dist, err := compute.NewDistributed("probe-job", 0, 4096, comp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AccommodateAdditional(s, dist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalFormulaOnPath(b *testing.B) {
	s := benchState(b, 8)
	res := Run(s, 128, 1)
	f := Eventually{F: SatisfySimple{Req: compute.Simple{
		Amounts: resource.NewNeeds(resource.AmountOf(100, cpuL1)),
		Window:  interval.New(0, 128),
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(res.Path, 0, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunToCompletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchState(b, 8)
		b.StartTimer()
		res := Run(s, 0, 1)
		if len(res.Violations) != 0 {
			b.Fatal("violations")
		}
	}
}
