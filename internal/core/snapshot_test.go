package core

import (
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

func TestSnapshotRoundTripTrajectory(t *testing.T) {
	// Build a state with availability and two commitments, snapshot it,
	// restore it, and confirm both copies evolve identically.
	theta := resource.NewSet(
		resource.NewTerm(u(2), cpuL1, interval.New(0, 20)),
		resource.NewTerm(u(1), netL12, interval.New(0, 20)),
	)
	s := NewState(theta, 0)
	s, _, err := Admit(s, seqJob(t, "alpha", "a1", 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	s, _, err = Admit(s, evalJob(t, "beta", "b1", 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Advance a couple of ticks so the snapshot captures mid-flight state.
	for i := 0; i < 2; i++ {
		s, _, _ = Tick(s, 1)
	}

	var sb strings.Builder
	if err := Snapshot(s, &sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	// The compact forms should appear in the JSON.
	for _, want := range []string{`"theta"`, `cpu@l1`, `"alpha"`, `"beta"`, `"now": 2`} {
		if !strings.Contains(strings.ToLower(text), strings.ToLower(want)) {
			t.Errorf("snapshot missing %q:\n%s", want, text)
		}
	}

	restored, err := RestoreState(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Now != s.Now {
		t.Fatalf("Now = %d, want %d", restored.Now, s.Now)
	}
	if !restored.Theta.Equal(s.Theta) {
		t.Fatalf("Theta differs:\n%v\n%v", restored.Theta, s.Theta)
	}
	if len(restored.Commitments) != len(s.Commitments) {
		t.Fatalf("commitments = %d, want %d", len(restored.Commitments), len(s.Commitments))
	}

	resA := Run(s, 0, 1)
	resB := Run(restored, 0, 1)
	if len(resA.Violations) != 0 || len(resB.Violations) != 0 {
		t.Fatalf("violations: %v / %v", resA.Violations, resB.Violations)
	}
	if len(resA.Completed) != len(resB.Completed) {
		t.Fatalf("completions differ: %v vs %v", resA.Completed, resB.Completed)
	}
	for name, at := range resA.Completed {
		if resB.Completed[name] != at {
			t.Errorf("%s completes at %d vs %d", name, at, resB.Completed[name])
		}
	}
	// The materialized paths agree transition by transition.
	if resA.Path.Len() != resB.Path.Len() {
		t.Fatalf("path lengths %d vs %d", resA.Path.Len(), resB.Path.Len())
	}
	for i := range resA.Path.Steps {
		if resA.Path.Steps[i].Label() != resB.Path.Steps[i].Label() {
			t.Errorf("step %d: %q vs %q", i,
				resA.Path.Steps[i].Label(), resB.Path.Steps[i].Label())
		}
	}
}

func TestRestoreStateErrorsAndTrims(t *testing.T) {
	if _, err := RestoreState(strings.NewReader("not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
	// Hand-edited snapshot with stale availability: trimmed on restore.
	text := `{"Theta":"2:cpu@l1:(0,20)","Commitments":null,"Now":5}`
	s, err := RestoreState(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Theta.MinRate(cpuL1, interval.New(3, 4)); got != 0 {
		t.Errorf("stale availability survived restore: %d", got)
	}
	if got := s.Theta.MinRate(cpuL1, interval.New(10, 11)); got != u(2) {
		t.Errorf("future availability lost: %d", got)
	}
}
