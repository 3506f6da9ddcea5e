package query

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// freeSet builds a free view of rate units of cpu at l1 over [0, 100).
func freeSet(units int64) resource.Set {
	var s resource.Set
	s.Add(resource.NewTerm(resource.FromUnits(units),
		resource.At("cpu", "l1"), interval.New(0, 100)))
	return s
}

func snapshot(units int64) Snapshot {
	return Snapshot{Now: 0, Epoch: 1, Free: freeSet(units)}
}

func mustParse(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := ParseText(src)
	if err != nil {
		t.Fatalf("ParseText(%q): %v", src, err)
	}
	return c
}

func evalText(t *testing.T, src string, snap Snapshot) bool {
	t.Helper()
	res, err := mustParse(t, src).Evaluate(snap)
	if err != nil {
		t.Fatalf("Evaluate(%q): %v", src, err)
	}
	return res.Holds
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"true",
		"false",
		"holds(l1, cpu>=5, always, next 30)",
		"holds(l1>l2, link>=2.5, eventually, from 10 to 40)",
		"holds(l1, cpu>=1)",
		"feasible(job-1)",
		"feasible(job-1, before 90)",
		"before(j1, window(10, 20))",
		"during(j1, j2)",
		"not holds(l1, cpu>=5) and (feasible(j1) or true)",
	}
	for _, src := range cases {
		c := mustParse(t, src)
		again := mustParse(t, c.Source())
		if c.Source() != again.Source() {
			t.Errorf("round trip drift: %q -> %q -> %q", src, c.Source(), again.Source())
		}
	}
}

func TestParseAliases(t *testing.T) {
	a := mustParse(t, "!holds(l1, cpu>=5) & true | false")
	b := mustParse(t, "not holds(l1, cpu>=5) and true or false")
	if a.Source() != b.Source() {
		t.Fatalf("aliases diverge: %q vs %q", a.Source(), b.Source())
	}
	// '_' in relation names normalizes to '-'.
	c := mustParse(t, "met_by(window(5, 10), window(0, 5))")
	if !strings.Contains(c.Source(), "met-by") {
		t.Fatalf("met_by not normalized: %q", c.Source())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"holds(l1)",
		"holds(l1, cpu>=0)",
		"holds(l1, cpu>=5, sometimes)",
		"holds(l1, cpu>=5, next -3)",
		"holds(l1, cpu>=5, from 9 to 3)",
		"feasible()",
		"nonsense(l1)",
		"overlapping(j1, j2)", // not an Allen name
		"before(j1)",
		"holds(l1, cpu>=5) and",
		"(holds(l1, cpu>=5)",
		"true true",
		"window(1, 2)", // a ref is not a formula
		strings.Repeat("(", 100) + "true" + strings.Repeat(")", 100), // too deep
	}
	for _, src := range bad {
		if _, err := ParseText(src); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", src)
		}
	}
}

func TestCompileJSONMatchesText(t *testing.T) {
	text := mustParse(t, "holds(l1, cpu>=40, next 10) and feasible(j1)")
	ast, err := ParseJSON([]byte(`{"op":"and","args":[
		{"op":"holds","loc":"l1","kind":"cpu","min":40,"next":10},
		{"op":"feasible","job":"j1"}]}`))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if text.Source() != ast.Source() {
		t.Fatalf("text %q != ast %q", text.Source(), ast.Source())
	}
	snap := snapshot(4)
	r1, err1 := text.Evaluate(snap)
	r2, err2 := ast.Evaluate(snap)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate: %v / %v", err1, err2)
	}
	if r1.Holds != r2.Holds {
		t.Fatalf("text and AST verdicts differ: %v vs %v", r1.Holds, r2.Holds)
	}
}

func TestHoldsQuantitySemantics(t *testing.T) {
	// 4 units/tick over [0,100): the window (0,10) provides 40 units.
	snap := snapshot(4)
	if !evalText(t, "holds(l1, cpu>=40, next 10)", snap) {
		t.Error("40 units should fit in a 40-unit window")
	}
	if evalText(t, "holds(l1, cpu>=41, next 10)", snap) {
		t.Error("41 units should not fit in a 40-unit window")
	}
	// Unbounded window: the whole 400-unit horizon counts.
	if !evalText(t, "holds(l1, cpu>=400)", snap) {
		t.Error("400 units should fit in the whole horizon")
	}
	if evalText(t, "holds(l1, cpu>=401)", snap) {
		t.Error("401 units should not fit in the whole horizon")
	}
}

func TestHoldsModalities(t *testing.T) {
	snap := snapshot(4)
	// □: at the last in-window position t=9 the remaining window (9,10)
	// provides 4 units.
	if !evalText(t, "holds(l1, cpu>=4, always, next 10)", snap) {
		t.Error("always cpu>=4 should hold to the end of the window")
	}
	if evalText(t, "holds(l1, cpu>=5, always, next 10)", snap) {
		t.Error("always cpu>=5 must fail at the window's last tick")
	}
	// ◇: the full window seen from position 0 decides it.
	if !evalText(t, "holds(l1, cpu>=40, eventually, next 10)", snap) {
		t.Error("eventually cpu>=40 should hold at position 0")
	}
	// Huge relative windows must neither overflow nor materialize huge
	// paths; beyond the availability horizon nothing more accrues.
	if !evalText(t, "holds(l1, cpu>=400, eventually, next 4611686018427387000)", snap) {
		t.Error("huge window should still see the 400-unit horizon")
	}
	if evalText(t, "holds(l1, cpu>=401, always, next 4611686018427387000)", snap) {
		t.Error("huge always-window cannot provide more than the horizon")
	}
}

// TestModalConjunctionOverDifferentHorizons: each atom of a conjunction
// is judged over its own window, so a shorter □ beside a longer modal
// atom is not checked past its window's end. Each atom alone holds on a
// flat 4-unit view, and so does each conjunction.
func TestModalConjunctionOverDifferentHorizons(t *testing.T) {
	snap := snapshot(4)
	for _, src := range []string{
		"holds(l1, cpu>=1, always, next 30) and holds(l1, cpu>=1, always, next 100)",
		"holds(l1, cpu>=1, always, next 30) and holds(l1, cpu>=1, eventually, next 100)",
	} {
		if !evalText(t, src, snap) {
			t.Errorf("%s = false, want true", src)
		}
	}
}

// TestEvaluateReads: a bounded □ atom reads, and renders as, the satisfy
// atom over its window's last tick; a ◇ or plain atom reads its window
// from now; a feasible atom reads each demand type up to its deadline;
// an atom whose window has passed reads nothing; and an unbounded □,
// decided at the free view's last tick, leaves the result untyped.
func TestEvaluateReads(t *testing.T) {
	cpu := resource.At("cpu", "l1")
	snap := snapshot(4)
	snap.Now = 5
	var demand resource.Set
	demand.Add(resource.NewTerm(resource.FromUnits(2), cpu, interval.New(5, 10)))
	snap.Commitments = append(snap.Commitments, Commitment{Name: "j1", Deadline: 20, Locations: []resource.Location{"l1"}, Demand: demand})
	// The view holds 4 units a tick, so a read's slack is 4 units per
	// tick of its window less the need: a deficit where one tick of 4
	// must cover 5.
	units := resource.QuantityFromUnits
	cases := []struct {
		src     string
		formula string
		reads   []interval.Interval
		slacks  []resource.Quantity
		typed   bool
	}{
		{"holds(l1, cpu>=5, always, next 30)", "satisfy(ρ{[5]⟨cpu,l1⟩}(34,35))", []interval.Interval{{Start: 34, End: 35}}, []resource.Quantity{units(-1)}, true},
		{"holds(l1, cpu>=5, eventually, from 0 to 30)", "satisfy(ρ{[5]⟨cpu,l1⟩}(5,30))", []interval.Interval{{Start: 5, End: 30}}, []resource.Quantity{units(95)}, true},
		{"holds(l1, cpu>=5, from 10 to 12)", "satisfy(ρ{[5]⟨cpu,l1⟩}(10,12))", []interval.Interval{{Start: 10, End: 12}}, []resource.Quantity{units(3)}, true},
		{"holds(l1, cpu>=5, always, from 0 to 5)", "false", nil, nil, true},
		{"feasible(j1)", "satisfy(ρ{[10]⟨cpu,l1⟩}(5,20))", []interval.Interval{{Start: 5, End: 20}}, []resource.Quantity{units(50)}, true},
		{"holds(l1, cpu>=5, always)", "satisfy(ρ{[5]⟨cpu,l1⟩}(99,+inf))", []interval.Interval{{Start: 99, End: interval.Infinity}}, []resource.Quantity{units(-1)}, false},
	}
	for _, tc := range cases {
		res, err := mustParse(t, tc.src).Evaluate(snap)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		var windows []interval.Interval
		var slacks []resource.Quantity
		for _, r := range res.Reads {
			if r.Type != cpu {
				t.Errorf("%s read %v, want only %v", tc.src, r.Type, cpu)
			}
			windows = append(windows, r.Window)
			slacks = append(slacks, r.Slack)
		}
		if got := res.Formula.String(); got != tc.formula || !slices.Equal(windows, tc.reads) || res.Typed != tc.typed {
			t.Errorf("%s: formula %s, reads %v, typed %v; want %s, %v, %v",
				tc.src, got, windows, res.Typed, tc.formula, tc.reads, tc.typed)
		}
		if !slices.Equal(slacks, tc.slacks) {
			t.Errorf("%s: slacks %v, want %v", tc.src, slacks, tc.slacks)
		}
	}
}

func TestFeasible(t *testing.T) {
	snap := snapshot(4)
	var demand resource.Set
	demand.Add(resource.NewTerm(resource.FromUnits(2), resource.At("cpu", "l1"), interval.New(5, 10)))
	snap.Commitments = append(snap.Commitments, Commitment{
		Name: "j1", Admitted: 0, Finish: 10, Deadline: 20,
		Locations: []resource.Location{"l1"}, Demand: demand,
	})
	if !evalText(t, "feasible(j1)", snap) {
		t.Error("10 remaining units should re-fit in an 80-unit window")
	}
	if !evalText(t, "feasible(j1, before 10)", snap) {
		t.Error("10 remaining units should re-fit before t=10")
	}
	if evalText(t, "feasible(j1, before 2)", snap) {
		t.Error("10 units cannot fit in an 8-unit window")
	}
	if evalText(t, "feasible(ghost)", snap) {
		t.Error("an unknown job is not feasible")
	}
	// A drained commitment is trivially feasible.
	snap.Commitments = append(snap.Commitments, Commitment{Name: "done", Admitted: 0, Finish: 10, Deadline: 20})
	if !evalText(t, "feasible(done)", snap) {
		t.Error("an empty remaining demand is trivially feasible")
	}
}

func TestAllenPredicates(t *testing.T) {
	snap := snapshot(4)
	snap.Commitments = append(snap.Commitments, Commitment{Name: "j1", Admitted: 5, Finish: 10, Deadline: 20})
	snap.Commitments = append(snap.Commitments, Commitment{Name: "j2", Admitted: 10, Finish: 30, Deadline: 40})
	cases := map[string]bool{
		"during(j1, window(0, 50))":  true,
		"before(j1, window(20, 25))": true,
		"meets(j1, j2)":              true,
		"met-by(j2, j1)":             true,
		"before(j2, j1)":             false,
		"equal(j1, window(5, 10))":   true,
		"before(ghost, j1)":          false, // unresolvable ref
	}
	for src, want := range cases {
		if got := evalText(t, src, snap); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	snap := snapshot(4)
	cases := map[string]bool{
		"true and false":                       false,
		"true or false":                        true,
		"not false":                            true,
		"holds(l1, cpu>=40, next 10) or false": true,
		"not holds(l1, cpu>=41, next 10)":      true,
		// 'and' binds tighter than 'or'.
		"false and false or true":   true,
		"false and (false or true)": false,
	}
	for src, want := range cases {
		if got := evalText(t, src, snap); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestFootprintAndNames(t *testing.T) {
	c := mustParse(t, "holds(l1>l2, link>=1) and feasible(j1) and before(j2, window(0, 5))")
	if got, want := strings.Join(c.Names(), ","), "j1,j2"; got != want {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	comms := []Commitment{
		{Name: "j1", Locations: []resource.Location{"l3", "l1"}},
	}
	fp := c.Footprint(comms)
	var got []string
	for _, loc := range fp {
		got = append(got, string(loc))
	}
	if want := "l1,l2,l3"; strings.Join(got, ",") != want {
		t.Fatalf("Footprint() = %q, want %q", strings.Join(got, ","), want)
	}
}
