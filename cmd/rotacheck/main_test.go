package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoScenario = `
resources 4:cpu@l1:(0,14),2:network@l1>l2:(2,6)
job j1 0 12
actor a1 l1
eval 1
send a2 l2 1
eval 1
job j2 0 12
actor b1 l1
eval 2
`

const starvedScenario = `
resources 1:cpu@l1:(0,4)
job hungry 0 4
actor a1 l1
eval 1
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.rota")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAssuredScenario(t *testing.T) {
	path := writeTemp(t, demoScenario)
	var sb strings.Builder
	code, err := run([]string{path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, sb.String())
	}
	out := sb.String()
	if strings.Count(out, "ASSURED") != 2 {
		t.Errorf("want 2 ASSURED lines:\n%s", out)
	}
	if !strings.Contains(out, "breaks [2 4 6]") {
		t.Errorf("missing break points:\n%s", out)
	}
}

func TestRunRefusedScenarioExitCode(t *testing.T) {
	path := writeTemp(t, starvedScenario)
	var sb strings.Builder
	code, err := run([]string{path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(sb.String(), "REFUSED") {
		t.Errorf("missing REFUSED:\n%s", sb.String())
	}
}

func TestRunIndependentMode(t *testing.T) {
	// Two jobs that each fit alone but not together: cumulative mode
	// refuses the second, independent mode assures both.
	scenario := `
resources 2:cpu@l1:(0,4)
job j1 0 4
actor a1 l1
eval 1
job j2 0 4
actor b1 l1
eval 1
`
	path := writeTemp(t, scenario)
	var cumulative strings.Builder
	code, err := run([]string{path}, &cumulative)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.Contains(cumulative.String(), "REFUSED") {
		t.Errorf("cumulative should refuse one job (code %d):\n%s", code, cumulative.String())
	}
	var indep strings.Builder
	code, err = run([]string{"-independent", path}, &indep)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || strings.Count(indep.String(), "ASSURED") != 2 {
		t.Errorf("independent should assure both (code %d):\n%s", code, indep.String())
	}
}

func TestRunVerboseShowsAllocations(t *testing.T) {
	path := writeTemp(t, demoScenario)
	var sb strings.Builder
	if _, err := run([]string{"-v", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "alloc a1 phase 0") {
		t.Errorf("verbose output missing allocations:\n%s", sb.String())
	}
}

func TestRunFormulaFlag(t *testing.T) {
	// j1 reserves [0,6) and j2 [0,4) of demoScenario's Θ; both are
	// admitted, and what they leave free is decided at t=0.
	path := writeTemp(t, demoScenario)
	for _, tc := range []struct{ query, want string }{
		{"holds(l1, cpu>=1, from 0 to 14) & !holds(l1, cpu>=999, from 0 to 14)",
			"formula holds(l1, cpu>=1, from 0 to 14) and not holds(l1, cpu>=999, from 0 to 14) = true"},
		{"feasible(j1)", "formula feasible(j1) = true"},
		{"feasible(j1, before 5)", "formula feasible(j1, before 5) = false"},
		{"starts(j2, j1) and not before(j1, j2)", "formula starts(j2, j1) and not before(j1, j2) = true"},
		{"holds(l1>l2, network>=1, eventually)", "formula holds(l1>l2, network>=1, eventually) = true"},
		{"feasible(nosuchjob)", "formula feasible(nosuchjob) = false"},
	} {
		var sb strings.Builder
		if _, err := run([]string{"-formula", tc.query, path}, &sb); err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if !strings.HasSuffix(sb.String(), tc.want+"\n") {
			t.Errorf("%s: want last line %q:\n%s", tc.query, tc.want, sb.String())
		}
	}
	// A refused job has no commitment for feasible to re-plan.
	starved := writeTemp(t, starvedScenario)
	var sb strings.Builder
	if _, err := run([]string{"-formula", "feasible(hungry)", starved}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sb.String(), "formula feasible(hungry) = false\n") {
		t.Errorf("refused job feasible:\n%s", sb.String())
	}
	// Malformed queries, and the retired satisfy{…} syntax, error out.
	for _, bad := range []string{"holds(l1", "satisfy{1:cpu@l1}(0,14)", "<> true"} {
		if _, err := run([]string{"-formula", bad, path}, &strings.Builder{}); err == nil {
			t.Errorf("malformed query %q accepted", bad)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var sb strings.Builder
	if _, err := run(nil, &sb); err == nil {
		t.Error("missing file argument accepted")
	}
	if _, err := run([]string{"/nonexistent/file.rota"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeTemp(t, "job broken\n")
	if _, err := run([]string{bad}, &sb); err == nil {
		t.Error("malformed scenario accepted")
	}
	_, err := run(nil, &sb)
	for _, flag := range []string{"-formula", "-state", "-save-state"} {
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("usage line %v does not name %s", err, flag)
		}
	}
	// -independent admits nothing, so a query over the jobs would be
	// decided on a state that holds none of them.
	sb.Reset()
	path := writeTemp(t, demoScenario)
	code, err := run([]string{"-independent", "-formula", "feasible(j1)", path}, &sb)
	if err == nil || code != 1 || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("-independent -formula: code %d, err %v; want a usage error", code, err)
	}
	if sb.Len() != 0 {
		t.Errorf("-independent -formula printed before refusing:\n%s", sb.String())
	}
}

func TestRunWorkflowScenario(t *testing.T) {
	scenario := `
resources 2:cpu@c0:(0,40),3:cpu@w1:(0,40),2:network@c0>w1:(0,40),2:network@w1>c0:(0,40)
job pipe 0 30
actor coord c0
send m1 w1 1
segment
eval 1
wait m1 0
actor m1 w1
eval 2
send coord c0 1
wait coord 0
`
	path := writeTemp(t, scenario)
	var sb strings.Builder
	code, err := run([]string{path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if code != 0 || !strings.Contains(out, "workflow") {
		t.Fatalf("code=%d:\n%s", code, out)
	}
	if !strings.Contains(out, "segment") {
		t.Errorf("segment timeline missing:\n%s", out)
	}
	// Tighten the deadline below the serialized chain: refused.
	tight := strings.Replace(scenario, "job pipe 0 30", "job pipe 0 3", 1)
	path = writeTemp(t, tight)
	var sb2 strings.Builder
	code, err = run([]string{path}, &sb2)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.Contains(sb2.String(), "REFUSED") {
		t.Fatalf("tight workflow should be refused (code %d):\n%s", code, sb2.String())
	}
}

func TestRunStatePersistence(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.json")

	// First invocation: capacity 2 cpu over (0,8), admit one 8-unit job
	// and save the state.
	first := `
resources 2:cpu@l1:(0,8)
job one 0 8
actor a1 l1
eval 1
`
	path := writeTemp(t, first)
	var sb strings.Builder
	code, err := run([]string{"-save-state", snap, path}, &sb)
	if err != nil || code != 0 {
		t.Fatalf("first run: code=%d err=%v\n%s", code, err, sb.String())
	}

	// Second invocation restores the state: the committed capacity is
	// gone, so an identical second job fits (expiring half) but a third
	// does not.
	second := `
job two 0 8
actor b1 l1
eval 1
job three 0 8
actor c1 l1
eval 1
`
	path = writeTemp(t, second)
	var sb2 strings.Builder
	code, err = run([]string{"-state", snap, path}, &sb2)
	if err != nil {
		t.Fatal(err)
	}
	out := sb2.String()
	if !strings.Contains(out, "restored state") {
		t.Errorf("restore notice missing:\n%s", out)
	}
	if !strings.Contains(out, "two") || !strings.Contains(out, "ASSURED") {
		t.Errorf("second job should be assured:\n%s", out)
	}
	if code != 2 || !strings.Contains(out, "three") || !strings.Contains(out, "REFUSED") {
		t.Errorf("third job should be refused (code %d):\n%s", code, out)
	}
	// Missing snapshot errors.
	if _, err := run([]string{"-state", filepath.Join(dir, "nope.json"), path}, &strings.Builder{}); err == nil {
		t.Error("missing snapshot accepted")
	}
}
