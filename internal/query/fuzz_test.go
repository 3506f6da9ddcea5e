package query

import (
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// fuzzSnapshot is a small but non-trivial ledger view: enough structure
// that parsed queries exercise every build path during fuzzing.
func fuzzSnapshot() Snapshot {
	var free resource.Set
	free.Add(resource.NewTerm(resource.FromUnits(4), resource.At("cpu", "l1"), interval.New(0, 100)))
	free.Add(resource.NewTerm(resource.FromUnits(2), resource.At("mem", "l2"), interval.New(10, 50)))
	var demand resource.Set
	demand.Add(resource.NewTerm(resource.FromUnits(1), resource.At("cpu", "l1"), interval.New(5, 15)))
	return Snapshot{
		Now:   3,
		Epoch: 7,
		Free:  free,
		Commitments: []Commitment{
			{Name: "j1", Admitted: 0, Finish: 15, Deadline: 30,
				Locations: []resource.Location{"l1"}, Demand: demand},
			{Name: "j2", Admitted: 15, Finish: 40, Deadline: 60,
				Locations: []resource.Location{"l2"}},
		},
	}
}

// FuzzParseText asserts the text parser never panics, and that whatever
// it accepts evaluates cleanly and round-trips through its canonical
// rendering — malformed operators, huge windows, and bad Allen
// predicate names must all fail as errors, not crashes.
func FuzzParseText(f *testing.F) {
	seeds := []string{
		"true",
		"holds(l1, cpu>=5, always, next 30)",
		"holds(l1>l2, link>=2.5, eventually, from 10 to 40)",
		"feasible(j1, before 90)",
		"feasible(j1, before deadline)",
		"before(j1, window(10, 20))",
		"met_by(j2, j1)",
		"not holds(l1, cpu>=5) and (feasible(j1) or true)",
		"!holds(l1,cpu>=1)&true|false",
		"holds(l1, cpu>=99999999999999, next 9223372036854775807)",
		"holds(l1, cpu>=5, next 30, always",
		"during(window(0,0), j1)",
		"overlapped-by(window(1,9), window(2,3))",
		"equal(, )",
		"holds(l1, cpu>=-5)",
		"((((((true))))))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	snap := fuzzSnapshot()
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseText(src)
		if err != nil {
			return
		}
		res, err := c.Evaluate(snap)
		if err != nil {
			// Evaluation of a valid parse may still reject (e.g. a
			// threshold that rounds to nothing) but must not panic.
			return
		}
		again, err := ParseText(c.Source())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", c.Source(), err)
		}
		res2, err := again.Evaluate(snap)
		if err != nil {
			t.Fatalf("canonical form %q does not re-evaluate: %v", c.Source(), err)
		}
		if res.Holds != res2.Holds {
			t.Fatalf("verdict drift through canonical form %q: %v vs %v", c.Source(), res.Holds, res2.Holds)
		}
	})
}

// FuzzParseJSON asserts the JSON AST wire path never panics and agrees
// with the canonical text form when it accepts.
func FuzzParseJSON(f *testing.F) {
	seeds := []string{
		`{"op":"true"}`,
		`{"op":"holds","loc":"l1","kind":"cpu","min":5,"mode":"always","next":30}`,
		`{"op":"holds","loc":"l1","dst":"l2","kind":"link","min":2.5,"from":10,"to":40}`,
		`{"op":"feasible","job":"j1","before":90}`,
		`{"op":"allen","rel":"during","a":{"job":"j1"},"b":{"from":0,"to":50}}`,
		`{"op":"and","args":[{"op":"true"},{"op":"not","args":[{"op":"false"}]}]}`,
		`{"op":"holds","loc":"l1","kind":"cpu","min":1e300,"next":-1}`,
		`{"op":"allen","rel":"sideways","a":{"job":"j1"},"b":{"job":"j2"}}`,
		`{"op":"and","args":[]}`,
		`{"op":"not","args":[{"op":"not","args":[{"op":"not","args":[{"op":"true"}]}]}]}`,
		`[1,2,3]`,
		`{"op":"holds","loc":"l1","kind":"cpu","min":5,"next":30,"from":1,"to":2}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	snap := fuzzSnapshot()
	f.Fuzz(func(t *testing.T, data string) {
		c, err := ParseJSON([]byte(data))
		if err != nil {
			return
		}
		if _, err := c.Evaluate(snap); err != nil {
			return
		}
		if _, err := ParseText(c.Source()); err != nil {
			t.Fatalf("AST canonical form %q does not re-parse: %v", c.Source(), err)
		}
	})
}
