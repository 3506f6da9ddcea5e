package scenario

import (
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

const sample = `
# A two-job scenario.
resources 5:cpu@l1:(0,20),2:network@l1>l2:(4,12)
resources 3:cpu@l2:(0,20)

job j1 0 20
actor a1 l1
eval 2
send a2 l2 1
migrate l2 4
eval 1          # costed at l2 after the migrate
actor a2 l2
ready
create kid

job j2 5 30
actor b1 l1
eval 1
`

func TestParseSample(t *testing.T) {
	sc, err := Parse(strings.NewReader(sample), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Resources union across lines.
	if got := sc.Resources.MinRate(resource.CPUAt("l1"), interval.New(5, 6)); got != resource.FromUnits(5) {
		t.Errorf("cpu@l1 rate = %d", got)
	}
	if got := sc.Resources.MinRate(resource.CPUAt("l2"), interval.New(5, 6)); got != resource.FromUnits(3) {
		t.Errorf("cpu@l2 rate = %d", got)
	}
	if len(sc.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(sc.Jobs))
	}
	j1 := sc.Jobs[0]
	if j1.Name != "j1" || j1.Start != 0 || j1.Deadline != 20 {
		t.Errorf("j1 = %v", j1)
	}
	if len(j1.Actors) != 2 {
		t.Fatalf("j1 actors = %d", len(j1.Actors))
	}
	a1 := j1.Actors[0]
	if len(a1.Steps) != 4 {
		t.Fatalf("a1 steps = %d", len(a1.Steps))
	}
	// The eval after migrate is costed at l2.
	last := a1.Steps[3]
	if last.Action.Op != compute.OpEvaluate || last.Action.Loc != "l2" {
		t.Errorf("post-migrate eval = %+v", last.Action)
	}
	if _, ok := last.Amounts[resource.CPUAt("l2")]; !ok {
		t.Errorf("post-migrate eval costed at wrong location: %v", last.Amounts)
	}
	if sc.Jobs[1].Name != "j2" || sc.Jobs[1].Start != 5 {
		t.Errorf("j2 = %v", sc.Jobs[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown directive", "bogus 1 2"},
		{"action outside actor", "eval 1"},
		{"actor outside job", "actor a1 l1"},
		{"resources arity", "resources"},
		{"resources bad set", "resources nonsense"},
		{"job arity", "job j1 0"},
		{"job bad time", "job j1 zero 20"},
		{"job empty window", "job j1 20 20\nactor a1 l1\neval 1"},
		{"job without actors", "job j1 0 10\njob j2 0 10\nactor a l1\neval 1"},
		{"actor arity", "job j 0 9\nactor a1"},
		{"eval arity", "job j 0 9\nactor a1 l1\neval"},
		{"eval bad weight", "job j 0 9\nactor a1 l1\neval x"},
		{"send arity", "job j 0 9\nactor a1 l1\nsend a2 l2"},
		{"send bad size", "job j 0 9\nactor a1 l1\nsend a2 l2 x"},
		{"create arity", "job j 0 9\nactor a1 l1\ncreate"},
		{"ready arity", "job j 0 9\nactor a1 l1\nready now"},
		{"migrate arity", "job j 0 9\nactor a1 l1\nmigrate l2"},
		{"migrate bad size", "job j 0 9\nactor a1 l1\nmigrate l2 x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in), nil); err == nil {
				t.Errorf("accepted %q", tc.in)
			}
		})
	}
}

func TestParseEmptyIsEmptyScenario(t *testing.T) {
	sc, err := Parse(strings.NewReader("# nothing\n\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Resources.Empty() || len(sc.Jobs) != 0 {
		t.Errorf("empty input produced %v", sc)
	}
}

const workflowSample = `
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

job plain 0 10
actor solo c0
eval 1
`

func TestParseWorkflowDirectives(t *testing.T) {
	sc, err := Parse(strings.NewReader(workflowSample), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Workflows) != 1 || len(sc.Jobs) != 1 {
		t.Fatalf("workflows=%d jobs=%d", len(sc.Workflows), len(sc.Jobs))
	}
	w := sc.Workflows[0]
	if w.Name != "pipe" || w.NumSegments() != 3 {
		t.Fatalf("workflow = %v", w)
	}
	if len(w.Edges) != 2 {
		t.Fatalf("edges = %v", w.Edges)
	}
	// coord has two segments; m1 (plain single-segment within the
	// workflow job) has one.
	coord1 := compute.SegmentRef{Actor: "coord", Segment: 1}
	deps := w.Dependencies(coord1)
	foundWait := false
	for _, d := range deps {
		if d == (compute.SegmentRef{Actor: "m1", Segment: 0}) {
			foundWait = true
		}
	}
	if !foundWait {
		t.Errorf("coord/1 deps = %v, missing wait on m1/0", deps)
	}
	// The plain job is unaffected.
	if sc.Jobs[0].Name != "plain" {
		t.Errorf("plain job = %v", sc.Jobs[0])
	}
}

func TestParseWorkflowErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"segment outside actor", "job j 0 9\nsegment"},
		{"segment arity", "job j 0 9\nactor a l1\nsegment now"},
		{"wait arity", "job j 0 9\nactor a l1\nwait m1"},
		{"wait bad index", "job j 0 9\nactor a l1\nwait m1 x"},
		{"wait negative index", "job j 0 9\nactor a l1\nwait m1 -1"},
		{"wait unknown actor", "job j 0 9\nactor a l1\neval 1\nwait ghost 0"},
		{"wait cycle", "job j 0 9\nactor a l1\neval 1\nwait b 0\nactor b l1\neval 1\nwait a 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in), nil); err == nil {
				t.Errorf("accepted %q", tc.in)
			}
		})
	}
}
