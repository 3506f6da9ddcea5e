package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/query"
	"repro/internal/resource"
	"repro/internal/scenario"
)

// linkScenario admits a and b, one of them across the l1→l2 link, and
// refuses c: its 8 cpu at l1 no longer fit in (0,3).
const linkScenario = `
resources 3:cpu@l1:(0,10),2:cpu@l2:(2,12),1:network@l1>l2:(0,8)
job a 0 10
actor a1 l1
eval 1
send a2 l2 1
actor a2 l2
eval 1
job b 1 11
actor b1 l2
eval 1
job c 0 3
actor c1 l1
eval 2
`

// TestHoldsAgreesWithTheCommittedPath holds -formula's one read of the
// final state to the path semantics it replaced: for every located type
// (and one absent type), quantity and window, a plain holds atom decided
// on snapshotOf's free view has the verdict of satisfy at position 0 of
// core.Run's committed path, and an eventually atom that of ◇satisfy.
func TestHoldsAgreesWithTheCommittedPath(t *testing.T) {
	for name, tc := range map[string]struct {
		src            string
		admit, refused int
	}{
		"demo": {demoScenario, 2, 0},
		"link": {linkScenario, 2, 1},
	} {
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.Parse(strings.NewReader(tc.src), nil)
			if err != nil {
				t.Fatal(err)
			}
			state := core.NewState(sc.Resources, 0)
			horizon := sc.Resources.Hull().End
			refused := 0
			for _, job := range sc.Jobs {
				horizon = max(horizon, job.Deadline)
				next, _, err := core.Admit(state, job)
				if err != nil {
					refused++
					continue
				}
				state = next
			}
			if len(state.Commitments) != tc.admit || refused != tc.refused {
				t.Fatalf("admitted %d, refused %d; want %d and %d",
					len(state.Commitments), refused, tc.admit, tc.refused)
			}
			path := core.Run(state, horizon, 1).Path
			snap, err := snapshotOf(state, nil)
			if err != nil {
				t.Fatal(err)
			}
			var types []resource.LocatedType
			sc.Resources.EachType(func(lt resource.LocatedType, _ interval.Interval) { types = append(types, lt) })
			types = append(types, resource.At("mem", "l1"))
			quantities := []float64{0.5, 1, 2, 4, 7.5, 8, 12, 16, 24, 32, 48}
			atoms, trues := 0, 0
			for _, lt := range types {
				loc := string(lt.Loc)
				if lt.Dst != "" {
					loc += ">" + string(lt.Dst)
				}
				for _, q := range quantities {
					need := resource.Needs{{Qty: resource.Quantity(q * float64(resource.Unit)), Type: lt}}
					for s := interval.Time(0); s <= horizon; s++ {
						for d := s + 1; d <= horizon+2; d++ {
							atom := core.SatisfySimple{Req: compute.Simple{Amounts: need, Window: interval.New(s, d)}}
							for _, mode := range []struct {
								opt string
								f   core.Formula
							}{{"", atom}, {", eventually", core.Eventually{F: atom}}} {
								src := fmt.Sprintf("holds(%s, %s>=%s%s, from %d to %d)",
									loc, lt.Kind, strconv.FormatFloat(q, 'f', -1, 64), mode.opt, s, d)
								want, err := core.Eval(path, 0, mode.f)
								if err != nil {
									t.Fatal(err)
								}
								if got := evalText(t, src, snap); got != want {
									t.Fatalf("%s = %v on the final state, %s = %v on the committed path",
										src, got, mode.f, want)
								}
								atoms++
								if want {
									trues++
								}
							}
						}
					}
				}
			}
			// Both verdicts occur, so agreement is not vacuous.
			if trues == 0 || trues == atoms {
				t.Fatalf("%d of %d atoms true", trues, atoms)
			}
		})
	}
}

func evalText(t *testing.T, src string, snap query.Snapshot) bool {
	t.Helper()
	c, err := query.ParseText(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	res, err := c.Evaluate(snap)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res.Holds
}
