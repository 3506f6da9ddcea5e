package schedule

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// FuzzInfeasibleIsACertificate holds a single-actor refusal to what it
// claims: the fuzz bytes choose Θ over three located types and a
// one-actor job of up to four phases; whenever Concurrent refuses, the
// error is an *Infeasible whose text is the legacy format, and Θ holds
// less than Need of Type within Window — the refusal is a true
// certificate, not just "this search found nothing".
func FuzzInfeasibleIsACertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 10, 1, 2, 5, 4, 2, 0, 0, 20, 1, 0, 7, 1, 2, 30})
	f.Add([]byte{2, 0, 3, 2, 6, 2, 1, 0, 9, 0, 12, 2, 0, 1, 15, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		types := []resource.LocatedType{cpuL1, cpuL2, netL12}
		var theta resource.Set
		for k := draw(6); k > 0; k-- {
			start := interval.Time(draw(20))
			theta.Add(resource.NewTerm(u(int64(draw(4)+1)), types[draw(len(types))],
				interval.New(start, start+interval.Time(draw(12)+1))))
		}
		start := interval.Time(draw(8))
		actor := compute.Complex{Actor: "a", Window: interval.New(start, start+interval.Time(draw(24)+1))}
		for n := draw(4) + 1; n > 0; n-- {
			amounts := resource.Amounts{}
			for m := draw(2) + 1; m > 0; m-- {
				amounts[types[draw(len(types))]] += resource.Quantity(draw(16)+1) * resource.Quantity(resource.Unit)
			}
			actor.Phases = append(actor.Phases, compute.Phase{Amounts: resource.NeedsOf(amounts)})
		}
		req := compute.Concurrent{Name: "j", Actors: []compute.Complex{actor}, Window: actor.Window}

		plan, err := Concurrent(theta, req, false)
		if err == nil {
			if verr := Verify(theta, req, plan); verr != nil {
				t.Fatalf("admitted plan does not verify: %v", verr)
			}
			return
		}
		var nope *Infeasible
		if !errors.As(err, &nope) || !errors.Is(err, ErrInfeasible) {
			t.Fatalf("refusal %v (%T) is not an *Infeasible", err, err)
		}
		legacy := fmt.Sprintf("%v: actor %s phase %d needs %v of %v in %v",
			ErrInfeasible, nope.Actor, nope.Phase, nope.Need, nope.Type, nope.Window)
		if err.Error() != legacy {
			t.Fatalf("refusal text %q, want the legacy %q", err.Error(), legacy)
		}
		if have := theta.QuantityWithin(nope.Type, nope.Window); have >= nope.Need {
			t.Fatalf("refusal %v is no certificate: Θ holds %v of %v in %v", err, have, nope.Type, nope.Window)
		}
	})
}
