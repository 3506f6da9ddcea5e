package admission

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/interval"
	"repro/internal/obs/span"
	"repro/internal/resource"
	"repro/internal/schedule"
)

func TestExplainProvenance(t *testing.T) {
	witness := &schedule.Infeasible{Actor: "big job.a", Phase: 0, Type: resource.CPUAt("rack 1"), Need: 2000, Window: interval.New(12, 40)}
	cases := []struct {
		err  error
		want span.Provenance
	}{
		{&DeadlinePassed{Deadline: 40, Now: 55},
			span.Provenance{Stage: "validate", Constraint: "deadline", Detail: "deadline 40 already passed at t=55"}},
		{fmt.Errorf("no witness schedule: %w", witness),
			span.Provenance{Stage: "plan", Constraint: "witness", Term: "⟨cpu,rack 1⟩", Window: "(12,40)",
				Detail: "no witness schedule: schedule: infeasible: actor big job.a phase 0 needs 2000 of ⟨cpu,rack 1⟩ in (12,40)"}},
		{fmt.Errorf("no witness schedule: %w", &schedule.Infeasible{OrdersTried: 24}),
			span.Provenance{Stage: "plan", Constraint: "ordering",
				Detail: "no witness schedule: schedule: infeasible: no actor ordering of 24 tried succeeded"}},
		{&Overcommit{Shard: "rack 2", Key: "p1", Name: "j 1"},
			span.Provenance{Stage: "capacity", Constraint: "free-view", Term: "rack 2",
				Detail: "server: demand exceeds free availability: shard rack 2 cannot hold prepare p1 for j 1"}},
		{&Overcommit{Shard: "l2", Name: "j1"},
			span.Provenance{Stage: "capacity", Constraint: "free-view", Term: "l2",
				Detail: "server: demand exceeds free availability: shard l2 cannot hold the plan for j1"}},
		{errors.New("something novel"),
			span.Provenance{Stage: "other", Constraint: "other", Detail: "something novel"}},
	}
	for _, c := range cases {
		p := Explain(c.err)
		if p == nil || *p != c.want {
			t.Errorf("Explain(%q) = %+v, want %+v", c.err, p, c.want)
		}
	}
	if Explain(nil) != nil {
		t.Error("Explain(nil) must be nil")
	}
	if !errors.Is(&Overcommit{Shard: "l1"}, ErrOvercommit) || !errors.Is(witness, schedule.ErrInfeasible) {
		t.Error("typed refusals lost their sentinels")
	}
}

// The daemon's deadline refusal and Rota's plan refusal both carry
// their typed error, with Reason its text.
func TestRefusalsAreTyped(t *testing.T) {
	late := PastDeadline(3, 4)
	if late.Admit || late.Reason != "deadline 3 already passed at t=4" || Explain(late.Refusal).Constraint != "deadline" {
		t.Fatalf("PastDeadline = %+v", late)
	}
	v, _ := viewFor(resource.NewSet(resource.NewTerm(u(2), cpuL1, interval.New(0, 40))), 0)
	dec := (&Rota{}).Decide(v, evalJob(t, "j", "a", 0, 2))
	var nope *schedule.Infeasible
	if dec.Admit || !errors.As(dec.Refusal, &nope) || dec.Reason != dec.Refusal.Error() {
		t.Fatalf("Rota refusal = %+v", dec)
	}
	if nope.Actor != "a" || nope.Type != cpuL1 || nope.Need != 8000 || nope.Window != interval.New(0, 2) {
		t.Fatalf("Infeasible = %+v", nope)
	}
}
