package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/interval"
	"repro/internal/resource"
)

// The quantity rule: Eval decides a simple atom from the per-type
// quantities of the path's expirations and leftover instead of building
// the free pool's set. These tests hold it to the set-building reference
// on random paths.

var quantityTypes = []resource.LocatedType{cpuL1, resource.CPUAt("l2"), netL12}

// refEval is Eval judging every simple atom by f over the set freeWithin
// builds at its position — the reference the quantity rule must match.
func refEval(p *Path, i int, f Formula) bool {
	switch f := f.(type) {
	case SatisfySimple:
		window, ok := clampWindow(f.Req.Window, p.At(i).Now)
		if !ok {
			return f.Req.Empty()
		}
		req := compute.Simple{Amounts: f.Req.Amounts, Window: window}
		free := freeWithin(p, i, window)
		return req.SatisfiedBy(func(lt resource.LocatedType) resource.Quantity { return free.QuantityWithin(lt, window) })
	case Not:
		return !refEval(p, i, f.F)
	case Eventually:
		for j := i; j < p.Len(); j++ {
			if refEval(p, j, f.F) {
				return true
			}
		}
		return false
	case Always:
		for j := i; j < p.Len(); j++ {
			if !refEval(p, j, f.F) {
				return false
			}
		}
		return true
	case And:
		return refEval(p, i, f.L) && refEval(p, i, f.R)
	case Or:
		return refEval(p, i, f.L) || refEval(p, i, f.R)
	default:
		panic(fmt.Sprintf("refEval: unexpected formula %T", f))
	}
}

// randomQuantityPath draws a path the way Run materializes one —
// commitments admitted against Θ, then ticks that consume and expire —
// with an acquisition somewhere along it and, sometimes, a final Θ
// that has reneged so that its FreeResources errors. draw(n) returns a
// choice in [0, n).
func randomQuantityPath(t testing.TB, draw func(int) int) *Path {
	var theta resource.Set
	for k := 1 + draw(5); k > 0; k-- {
		start := interval.Time(draw(40))
		theta.Add(resource.NewTerm(u(1+int64(draw(4))), quantityTypes[draw(len(quantityTypes))],
			interval.New(start, start+1+interval.Time(draw(30)))))
	}
	s := NewState(theta, 0)
	for k := draw(4); k > 0; k-- {
		name := fmt.Sprintf("j%d", k)
		start := interval.Time(draw(10))
		deadline := start + 1 + interval.Time(draw(40))
		job := evalJob(t, name, compute.ActorName(name+".a"), start, deadline)
		if draw(2) == 0 {
			job = seqJob(t, name, compute.ActorName(name+".a"), start, deadline)
		}
		if next, _, err := Admit(s, job); err == nil {
			s = next
		}
	}
	p := NewPath(s)
	horizon := interval.Time(draw(30))
	dt := interval.Time(1 + draw(3))
	acquireAt := interval.Time(draw(40)) // past the horizon: no acquisition
	for cur := s; cur.Now < horizon; {
		if acquireAt >= 0 && cur.Now >= acquireAt {
			start := cur.Now + interval.Time(draw(5))
			join := resource.NewSet(resource.NewTerm(u(1+int64(draw(3))),
				quantityTypes[draw(len(quantityTypes))], interval.New(start, start+1+interval.Time(draw(20)))))
			next, tr := Acquire(cur, join)
			p.append(tr, next)
			cur, acquireAt = next, -1
		}
		next, tr, _ := Tick(cur, dt)
		p.append(tr, next)
		cur = next
	}
	if draw(3) == 0 {
		// Θ reneged on everything: live commitments now exceed it.
		p.States[len(p.States)-1].Theta = resource.Set{}
	}
	return p
}

// randomSimpleFormula draws satisfy atoms of one or two types under ¬, □,
// ◇, ∧ and ∨. Windows may be empty or already closed, and needs may be
// zero.
func randomSimpleFormula(draw func(int) int, depth int) Formula {
	switch k := draw(6); {
	case depth == 0 || k == 0:
		amounts := resource.Amounts{}
		for n := 1 + draw(2); n > 0; n-- {
			amounts[quantityTypes[draw(len(quantityTypes))]] = resource.Quantity(draw(120)) * resource.Quantity(resource.Unit) / 2
		}
		start := interval.Time(draw(50)) - 5
		return SatisfySimple{Req: compute.Simple{
			Amounts: resource.NeedsOf(amounts),
			Window:  interval.New(start, start+interval.Time(draw(50))-3),
		}}
	case k == 1:
		return Not{F: randomSimpleFormula(draw, depth-1)}
	case k == 2:
		return Always{F: randomSimpleFormula(draw, depth-1)}
	case k == 3:
		return Eventually{F: randomSimpleFormula(draw, depth-1)}
	case k == 4:
		return And{L: randomSimpleFormula(draw, depth-1), R: randomSimpleFormula(draw, depth-1)}
	default:
		return Or{L: randomSimpleFormula(draw, depth-1), R: randomSimpleFormula(draw, depth-1)}
	}
}

// checkQuantityRule compares Eval with refEval at every path position.
func checkQuantityRule(t *testing.T, p *Path, f Formula) {
	t.Helper()
	for i := 0; i < p.Len(); i++ {
		got, err := Eval(p, i, f)
		if err != nil {
			t.Fatalf("Eval(%v) at %d: %v", f, i, err)
		}
		if want := refEval(p, i, f); got != want {
			t.Fatalf("Eval(%v) at %d = %v, reference %v\npath: %v", f, i, got, want, p)
		}
	}
}

func TestEvalSatisfyQuantityRule(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var reneged, holds, fails int
	for trial := 0; trial < 400; trial++ {
		p := randomQuantityPath(t, r.Intn)
		if _, err := p.Last().FreeResources(); err != nil {
			reneged++
		}
		for k := 0; k < 4; k++ {
			f := randomSimpleFormula(r.Intn, 3)
			checkQuantityRule(t, p, f)
			if refEval(p, 0, f) {
				holds++
			} else {
				fails++
			}
		}
	}
	// The draw must reach both verdicts and the errored-leftover case,
	// or the comparison proves little.
	if reneged == 0 || holds == 0 || fails == 0 {
		t.Fatalf("degenerate draw: %d reneged paths, %d holding and %d failing formulas", reneged, holds, fails)
	}
}

// FuzzEvalSatisfy is the same differential with the fuzz input choosing
// Θ, commitments, horizon, windows and needs.
func FuzzEvalSatisfy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 10, 3, 20, 2, 1, 5, 0, 30, 1, 0, 9, 1, 7, 3, 2, 40, 60, 1})
	f.Add([]byte{2, 1, 0, 29, 1, 2, 5, 3, 0, 20, 0, 0, 0, 29, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		p := randomQuantityPath(t, draw)
		checkQuantityRule(t, p, randomSimpleFormula(draw, 3))
	})
}
