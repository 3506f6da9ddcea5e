package query

import (
	"math/rand"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
)

// oneReadTypes are the located types FuzzHoldsOneRead's views hold and
// its atoms ask for: two node-local types and a directed link.
var oneReadTypes = []resource.LocatedType{
	resource.At("cpu", "l1"),
	resource.At("cpu", "l2"),
	{Kind: "link", Loc: "l1", Dst: "l2"},
}

// oneReadInput decodes a fuzz input; it reads zeros once the bytes run
// out.
type oneReadInput struct{ data []byte }

// next returns the next byte modulo n.
func (in *oneReadInput) next(n int) int {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return int(b) % n
}

// view draws a segmented free view: each type gets up to six
// consecutive segments of rate 0 to 5 units, starting before tick 20.
func (in *oneReadInput) view() resource.Set {
	var free resource.Set
	for _, lt := range oneReadTypes {
		start := interval.Time(in.next(20))
		for segs := in.next(7); segs > 0; segs-- {
			end := start + 1 + interval.Time(in.next(40))
			if rate := in.next(6); rate > 0 {
				free.Add(resource.NewTerm(resource.FromUnits(int64(rate)), lt, interval.New(start, end)))
			}
			start = end
		}
	}
	return free
}

// holds draws a holds atom: any mode; a next, from…to, huge or
// unbounded window; a threshold around one tick's rate or a stretch of
// ticks' worth of it, nudged by half a unit either way.
func (in *oneReadInput) holds() *Node {
	lt := oneReadTypes[in.next(len(oneReadTypes))]
	n := &Node{Op: "holds", Loc: string(lt.Loc), Dst: string(lt.Dst), Kind: string(lt.Kind)}
	n.Mode = [...]string{"", "always", "eventually"}[in.next(3)]
	switch in.next(4) {
	case 0:
		n.Next = 1 + int64(in.next(120))
	case 1:
		n.From = int64(in.next(120))
		n.To = n.From + 1 + int64(in.next(120))
	case 2:
		n.Next = 4611686018427387000
	}
	n.Min = float64((1+in.next(5))*[...]int{1, 1, 2, 10, 40}[in.next(5)]) + [...]float64{-0.5, 0, 0.5}[in.next(3)]
	return n
}

// formula draws holds atoms under not, and and or, at most depth deep.
func (in *oneReadInput) formula(depth int) *Node {
	if depth == 0 {
		return in.holds()
	}
	switch in.next(4) {
	case 0:
		return &Node{Op: "not", Args: []*Node{in.formula(depth - 1)}}
	case 1:
		return &Node{Op: "and", Args: []*Node{in.formula(depth - 1), in.formula(depth - 1)}}
	case 2:
		return &Node{Op: "or", Args: []*Node{in.formula(depth - 1), in.formula(depth - 1)}}
	default:
		return in.holds()
	}
}

// oneReadReference decides n by the rule one read per atom replaced:
// each holds atom is a □, ◇ or plain satisfy atom over its whole
// window, decided by core.Eval at position 0 of its own speculative
// path, which holds the free view constant while the clock runs to the
// atom's last tick (to the view's last tick for an unbounded window).
func oneReadReference(t *testing.T, n *Node, free resource.Set, now interval.Time) bool {
	switch n.Op {
	case "not":
		return !oneReadReference(t, n.Args[0], free, now)
	case "and":
		return oneReadReference(t, n.Args[0], free, now) && oneReadReference(t, n.Args[1], free, now)
	case "or":
		return oneReadReference(t, n.Args[0], free, now) || oneReadReference(t, n.Args[1], free, now)
	}
	window := interval.New(now, interval.Infinity)
	switch {
	case n.Next > 0:
		window = interval.New(now, satAdd(now, n.Next))
	case n.To > 0:
		window = interval.New(n.From, n.To)
	}
	lt := resource.LocatedType{Kind: resource.Kind(n.Kind), Loc: resource.Location(n.Loc), Dst: resource.Location(n.Dst)}
	var f core.Formula = core.SatisfySimple{Req: compute.Simple{
		Amounts: resource.Needs{{Qty: resource.Quantity(n.Min * float64(resource.Unit)), Type: lt}},
		Window:  window,
	}}
	horizon := now
	switch n.Mode {
	case "always":
		f, horizon = core.Always{F: f}, window.End-1
	case "eventually":
		f, horizon = core.Eventually{F: f}, window.End-1
	}
	if horizon >= interval.Infinity-1 {
		horizon = now
		if hull := free.Hull(); !hull.Empty() && hull.End > now {
			horizon = hull.End - 1
		}
	}
	holds, err := core.Eval(referencePath(free, now, horizon), 0, f)
	if err != nil {
		t.Fatal(err)
	}
	return holds
}

// referencePath is the speculative path from now to horizon: one state
// per tick, or 256 evenly spaced states ending at the horizon when the
// span is longer.
func referencePath(free resource.Set, now, horizon interval.Time) *core.Path {
	const maxStates = 256
	p := core.NewPath(core.State{Theta: free, Now: now})
	dt := max(1, (horizon-now+maxStates-2)/(maxStates-1))
	for at := now; at < horizon; {
		next := min(satAdd(at, dt), horizon)
		p.Steps = append(p.Steps, core.Transition{Kind: core.KindIdle, From: at, To: next})
		p.States = append(p.States, core.State{Theta: free, Now: next})
		at = next
	}
	return p
}

// FuzzHoldsOneRead: a query of holds atoms, each decided by one read,
// gets the verdict the reference gives by deciding each atom on its own
// full speculative path and combining the results; and a typed result's
// verdict does not move when the view changes outside what it read.
func FuzzHoldsOneRead(f *testing.F) {
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64)
		rand.New(rand.NewSource(int64(i + 1))).Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &oneReadInput{data: data}
		free := in.view()
		now := interval.Time(in.next(60))
		c, err := Compile(in.formula(3))
		if err != nil {
			t.Fatal(err)
		}
		snap := Snapshot{Now: now, Free: free}
		res, err := c.Evaluate(snap)
		if err != nil {
			t.Fatal(err)
		}
		if want := oneReadReference(t, c.root, free, now); res.Holds != want {
			t.Fatalf("%s at t=%d over %v: holds=%v, the reference says %v", c.Source(), now, free, res.Holds, want)
		}
		if !res.Typed {
			return
		}
		lt := oneReadTypes[in.next(len(oneReadTypes))]
		start := interval.Time(in.next(200))
		span := interval.New(start, start+1+interval.Time(in.next(60)))
		for _, r := range res.Reads {
			if r.Type == lt && r.Window.Overlaps(span) {
				return
			}
		}
		write := resource.NewSet(resource.NewTerm(resource.FromUnits(int64(1+in.next(5))), lt, span))
		snap.Free = free.Union(write)
		if in.next(2) == 0 {
			snap.Free = free.SubtractSaturating(write)
		}
		again, err := c.Evaluate(snap)
		if err != nil {
			t.Fatal(err)
		}
		if again.Holds != res.Holds {
			t.Fatalf("%s at t=%d: a write of %v outside the reads %v moved the verdict from %v to %v",
				c.Source(), now, write, res.Reads, res.Holds, again.Holds)
		}
	})
}
