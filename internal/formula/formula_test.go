package formula

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interval"
	"repro/internal/resource"
)

func jobsMap(t testing.TB) map[string]compute.Distributed {
	t.Helper()
	comp, err := cost.Realize(cost.Paper(), "a1", compute.Evaluate("a1", "l1", 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := compute.NewDistributed("job1", 0, 10, comp)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]compute.Distributed{"job1": d}
}

func TestParseBasicForms(t *testing.T) {
	jobs := jobsMap(t)
	tests := []struct {
		in   string
		want string // rendered via core.Formula.String()
	}{
		{"true", "true"},
		{"false", "false"},
		{"!true", "¬true"},
		{"<> true", "◇true"},
		{"[] false", "□false"},
		{"true & false", "(true ∧ false)"},
		{"true | false", "(true ∨ false)"},
		{"true & false | true", "((true ∧ false) ∨ true)"},
		{"true & (false | true)", "(true ∧ (false ∨ true))"},
		{"!<>![]true", "¬◇¬□true"},
		{"satisfy{8:cpu@l1}(0,20)", "satisfy(ρ{[8]⟨cpu,l1⟩}(0,20))"},
		{"satisfy{8:cpu@l1, 4:network@l1>l2}(0,20)",
			"satisfy(ρ{[8]⟨cpu,l1⟩, [4]⟨network,l1→l2⟩}(0,20))"},
		{"satisfy{2.5:cpu@l1}(0,5)", "satisfy(ρ{[2.500]⟨cpu,l1⟩}(0,5))"},
		{"<> satisfy(job1) & true", "(◇satisfy(ρ(Λ job1: {a1})(0,10)) ∧ true)"},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			f, err := Parse(tt.in, jobs)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			if got := f.String(); got != tt.want {
				t.Errorf("Parse(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestParsePrecedence(t *testing.T) {
	// ! binds tighter than &, & tighter than |.
	f, err := Parse("!true & false | true", nil)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := f.(core.Or)
	if !ok {
		t.Fatalf("top is %T, want Or", f)
	}
	and, ok := or.L.(core.And)
	if !ok {
		t.Fatalf("left is %T, want And", or.L)
	}
	if _, ok := and.L.(core.Not); !ok {
		t.Fatalf("left-left is %T, want Not", and.L)
	}
}

func TestParseErrors(t *testing.T) {
	jobs := jobsMap(t)
	bad := []string{
		"",
		"tru",
		"true false",
		"true &",
		"| true",
		"(true",
		"()",
		"!",
		"<>",
		"satisfy",
		"satisfy{}(0,5)",
		"satisfy{x:cpu@l1}(0,5)",
		"satisfy{-3:cpu@l1}(0,5)",
		"satisfy{8 cpu@l1}(0,5)",
		"satisfy{8:cpu}(0,5)",
		"satisfy{8:cpu@l1}(0 5)",
		"satisfy{8:cpu@l1}(0,5",
		"satisfy{8:cpu@l1}(0.5,5)",
		"satisfy{8:cpu@l1>}(0,5)",
		"satisfy(ghost)",
		"satisfy(job1",
		"satisfy[job1]",
		"true $",
		"satisfy{8:cpu@l1}",
	}
	for _, in := range bad {
		if _, err := Parse(in, jobs); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParsedFormulaEvaluates(t *testing.T) {
	// End-to-end: parse a formula and evaluate it on a real path.
	theta := resource.NewSet(resource.NewTerm(resource.FromUnits(2), resource.CPUAt("l1"), interval.New(0, 10)))
	state := core.NewState(theta, 0)
	res := core.Run(state, 10, 1)

	jobs := jobsMap(t)
	for _, tt := range []struct {
		in   string
		want bool
	}{
		{"satisfy{20:cpu@l1}(0,10)", true},
		{"satisfy{21:cpu@l1}(0,10)", false},
		{"<> !satisfy{20:cpu@l1}(0,10)", true},
		{"[] satisfy{20:cpu@l1}(0,10)", false},
		{"satisfy(job1)", true}, // 8 cpu within (0,10) fits easily
		{"satisfy(job1) & !satisfy{21:cpu@l1}(0,10)", true},
	} {
		f, err := Parse(tt.in, jobs)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.in, err)
		}
		got, err := core.Eval(res.Path, 0, f)
		if err != nil {
			t.Fatalf("Eval(%q): %v", tt.in, err)
		}
		if got != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseNumericLocations(t *testing.T) {
	// Locations that look numeric are accepted.
	f, err := Parse("satisfy{1:cpu@42}(0,5)", nil)
	if err != nil {
		t.Fatal(err)
	}
	atom, ok := f.(core.SatisfySimple)
	if !ok {
		t.Fatalf("got %T", f)
	}
	if _, ok := atom.Req.Amounts.Lookup(resource.At("cpu", "42")); !ok {
		t.Errorf("amounts = %v", atom.Req.Amounts)
	}
}

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"true", "!<>[]false", "satisfy{8:cpu@l1}(0,20)",
		"satisfy{8:cpu@l1, 4:network@l1>l2}(0,20) & true",
		"((true | false) & !true)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 512 {
			return
		}
		parsed, err := Parse(input, nil)
		if err != nil {
			return
		}
		// A successfully parsed formula must render and re-parse to the
		// same rendering when the rendering uses ASCII-expressible
		// operators only... our String uses unicode symbols, so instead
		// check the parse is deterministic and rendering is non-empty.
		if parsed.String() == "" {
			t.Fatalf("parsed %q renders empty", input)
		}
		again, err := Parse(input, nil)
		if err != nil {
			t.Fatalf("non-deterministic parse of %q: %v", input, err)
		}
		if again.String() != parsed.String() {
			t.Fatalf("non-deterministic parse of %q", input)
		}
	})
}
