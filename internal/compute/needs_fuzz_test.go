package compute

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/resource"
)

// needsTypes is FuzzPhasesMatchMaps' universe of located types, listed
// out of their sort order so that a run's order is never the order its
// types were first seen in.
var needsTypes = [6]resource.LocatedType{
	resource.Link("l2", "l1"), resource.CPUAt("l2"), resource.At(resource.Memory, "l1"),
	resource.CPUAt("l1"), resource.Link("l1", "l2"), resource.At("gpu", "l1"),
}

// needsQuantities are the quantities a fuzzed step draws from: zero
// (the decoder admits it), small ones that merge, and ones whose sums
// overflow. Negative ones exercise Amounts.Add's "not positive empties"
// rule, which the API admits though the decoder does not.
var needsQuantities = [8]resource.Quantity{
	0, 1, 1000, 8000, math.MaxInt64 - 1, math.MaxInt64 / 2, -1000, -1,
}

// referencePhases is Phases as it was built from maps: one cloned
// Amounts per phase, merged with Amounts.Merge.
func referencePhases(c Computation) []resource.Amounts {
	var phases []resource.Amounts
	for _, st := range c.Steps {
		if st.Amounts.Empty() {
			continue
		}
		lt, single := st.Amounts.SingleType()
		if n := len(phases); single && n > 0 {
			if prevLT, prevSingle := phases[n-1].SingleType(); prevSingle && prevLT == lt {
				phases[n-1].Merge(st.Amounts)
				continue
			}
		}
		phases = append(phases, st.Amounts.Clone())
	}
	return phases
}

// referenceString renders a map as Amounts.String did before it was a
// run's rendering: its sorted types, one Amount each.
func referenceString(m resource.Amounts) string {
	if len(m) == 0 {
		return "{}"
	}
	parts := make([]string, 0, len(m))
	for _, lt := range m.Types() {
		parts = append(parts, resource.Amount{Qty: m[lt], Type: lt}.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// checkRun holds a run to the map it stands for: sorted, exactly sized,
// and equal to m under lookup, total, SingleType, Empty and String.
func checkRun(t *testing.T, what string, run resource.Needs, m resource.Amounts) {
	t.Helper()
	if len(run) != len(m) || cap(run) != len(run) {
		t.Fatalf("%s: run %v (cap %d) for map %v", what, run, cap(run), m)
	}
	for i, lt := range m.Types() {
		if run[i].Type != lt {
			t.Fatalf("%s: run %v is not the map's types in order", what, run)
		}
	}
	for _, lt := range needsTypes {
		got, gotOK := run.Lookup(lt)
		want, wantOK := m[lt]
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: Lookup(%v) = %v,%v, map holds %v,%v", what, lt, got, gotOK, want, wantOK)
		}
	}
	if run.Total() != m.Total() {
		t.Fatalf("%s: Total = %v, map %v", what, run.Total(), m.Total())
	}
	gotLT, gotSingle := run.SingleType()
	wantLT, wantSingle := m.SingleType()
	if gotLT != wantLT || gotSingle != wantSingle {
		t.Fatalf("%s: SingleType = %v,%v, map %v,%v", what, gotLT, gotSingle, wantLT, wantSingle)
	}
	if run.Empty() != m.Empty() {
		t.Fatalf("%s: Empty = %v, map %v", what, run.Empty(), m.Empty())
	}
	if got, want := run.String(), referenceString(m); got != want {
		t.Fatalf("%s: String = %q, map %q", what, got, want)
	}
}

// FuzzPhasesMatchMaps builds requirements from fuzz-chosen step lists —
// free steps, single-type runs that merge, multi-type steps, zero,
// negative and overflowing quantities — and holds every phase's run to
// the map the phase was built as before it was a run (referencePhases):
// the same phases, and each run equal to its map under lookup, total,
// SingleType, Empty and String. ConcurrentOf over several such
// computations must give each actor exactly its own Phases, and no build
// may write into a step's map.
func FuzzPhasesMatchMaps(f *testing.F) {
	f.Add([]byte{0x13, 0x13, 0x20, 0x13, 0x13})
	f.Add([]byte{0x31, 0x42, 0x53, 0x02, 0x11, 0x11, 0x80, 0x11, 0x14, 0x11})
	f.Add([]byte{0x14, 0x14, 0x16, 0x14, 0x00, 0xb3, 0x24, 0x25, 0x14, 0x17, 0x11, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		draw := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			v := int(data[pos])
			pos++
			return v % n
		}
		// A computation ends at a 0x80 byte; each step is a byte
		// holding its entry count (high nibble, mod 4) and then one
		// byte per entry: type (low 3 bits, mod 6) and quantity
		// (high bits, mod 8).
		var comps []Computation
		var snapshot []string
		for pos < len(data) && len(comps) < 4 {
			c := Computation{Actor: ActorName(fmt.Sprintf("a%d", len(comps)))}
			for pos < len(data) && len(c.Steps) < 12 {
				head := data[pos]
				pos++
				if head == 0x80 {
					break
				}
				amounts := resource.Amounts{}
				for k := int(head>>4) % 4; k > 0; k-- {
					e := draw(256)
					lt := needsTypes[(e&7)%len(needsTypes)]
					amounts[lt] = needsQuantities[(e>>3)%len(needsQuantities)]
				}
				c.Steps = append(c.Steps, Step{Action: Evaluate(c.Actor, "l1", 1), Amounts: amounts})
				snapshot = append(snapshot, referenceString(amounts))
			}
			comps = append(comps, c)
		}

		for _, c := range comps {
			want := referencePhases(c)
			got := c.Phases()
			if len(got) != len(want) {
				t.Fatalf("%s: %d phases, reference %d (%v)", c.Actor, len(got), len(want), want)
			}
			for k := range got {
				checkRun(t, fmt.Sprintf("%s phase %d", c.Actor, k), got[k].Amounts, want[k])
			}
			for k, st := range c.Steps {
				checkRun(t, fmt.Sprintf("NeedsOf(%s step %d)", c.Actor, k), resource.NeedsOf(st.Amounts), st.Amounts)
			}
		}

		d := Distributed{Name: "j", Actors: comps, Start: 0, Deadline: 10}
		req := ConcurrentOf(d)
		if len(req.Actors) != len(comps) {
			t.Fatalf("ConcurrentOf: %d actors, want %d", len(req.Actors), len(comps))
		}
		for i, c := range comps {
			actor := req.Actors[i]
			want := referencePhases(c)
			if actor.Actor != c.Actor || actor.Window != interval.New(0, 10) || len(actor.Phases) != len(want) || cap(actor.Phases) != len(actor.Phases) {
				t.Fatalf("ConcurrentOf actor %d = %v with %d phases (cap %d), want %s with %d",
					i, actor, len(actor.Phases), cap(actor.Phases), c.Actor, len(want))
			}
			for k := range want {
				checkRun(t, fmt.Sprintf("ConcurrentOf %s phase %d", c.Actor, k), actor.Phases[k].Amounts, want[k])
			}
		}

		n := 0
		for _, c := range comps {
			for _, st := range c.Steps {
				if got := referenceString(st.Amounts); got != snapshot[n] {
					t.Fatalf("a build wrote into step %d's map: %s, was %s", n, got, snapshot[n])
				}
				n++
			}
		}
	})
}
