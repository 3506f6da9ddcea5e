package query

import (
	"fmt"
	"slices"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
)

// Commitment is the slice of a live commitment a query evaluation needs:
// its reservation window, deadline, footprint and remaining demand. The
// server builds these from the ledger; the cluster layer also builds
// them from peers' commitment lookups.
type Commitment struct {
	Name      string
	Admitted  interval.Time
	Finish    interval.Time
	Deadline  interval.Time
	Locations []resource.Location
	Demand    resource.Set
}

// Snapshot is one consistent view of the ledger for a query evaluation:
// the clock, the epoch the view was taken at, the merged free
// availability of the query's footprint (Θ − reserved − leased), and
// the referenced commitments that resolved. Missing names are simply
// absent: feasible/Allen atoms over them evaluate to false rather than
// erroring, so a standing query may outlive the jobs it watches.
type Snapshot struct {
	Now   interval.Time
	Epoch uint64
	Free  resource.Set
	// Commitments are the referenced commitments that resolved, looked
	// up by name: a query names one or two, so a scan is all a lookup
	// needs, and no evaluation builds a map.
	Commitments []Commitment
	// Footprint is the sorted set of locations Free was read from.
	// Located types are disjoint resources, so a write touching none of
	// them, and none of the query's names, cannot change the verdict. A
	// typed Result narrows that to the (located type, window) quantities
	// its atoms read.
	Footprint []resource.Location
	// Scoped reports that Footprint is the whole read set. A snapshot
	// that cannot name one (a cluster fan-out reads peers' ledgers)
	// leaves it false. A scoped snapshot with an empty footprint read no
	// location: "true", or a query whose names all resolved to nothing.
	Scoped bool
}

// commitment returns the resolved commitment named name.
func (s *Snapshot) commitment(name string) (Commitment, bool) {
	for _, cm := range s.Commitments {
		if cm.Name == name {
			return cm, true
		}
	}
	return Commitment{}, false
}

// Result is a query verdict with the core formula it was decided by and
// what it read. The formula is kept as a value: only a one-shot answer
// renders it.
type Result struct {
	Holds   bool
	Formula core.Formula
	// Reads are the quantities the formula's satisfy atoms read. Typed
	// reports that they are everything the verdict read; an unbounded □
	// atom also reads the hull of the whole free view, which a write to
	// any type at a footprint location can move, so its result is not
	// typed.
	Reads []Read
	Typed bool
}

// Read is one quantity an evaluation read: the free availability of a
// located type within a window. Located types are disjoint resources and
// a quantity sums its window's ticks, so only a write to that type
// inside that window can move it.
//
// Slack is that quantity minus what the atom needs of it: the read is
// met exactly when Slack ≥ 0, and a negative Slack is a deficit. The
// test is monotone in free capacity, so the read's verdict holds until
// writes take more than its slack from the window, or give back at
// least its deficit.
type Read struct {
	Type   resource.LocatedType
	Window interval.Interval
	Slack  resource.Quantity
}

// Evaluate compiles the query against the snapshot and decides it at
// the snapshot's clock.
//
// A query is judged on the speculative path that holds the free view
// constant while the clock advances. Along it an atom's window only
// shrinks, and satisfaction is monotone in the resources available, so
// each atom is decided by one window: a ◇ or plain atom by its own
// window at the first tick, a □ atom by what remains of its window at
// the window's last tick. The atoms compile to satisfy formulas over
// those windows, decided at position 0 of a one-state path.
func (c *Compiled) Evaluate(snap Snapshot) (Result, error) {
	b := builder{snap: snap, typed: true}
	f, err := b.build(c.root)
	if err != nil {
		return Result{}, err
	}
	path := core.Path{States: []core.State{{Theta: snap.Free, Now: snap.Now}}}
	holds, err := core.Eval(&path, 0, f)
	if err != nil {
		return Result{}, fmt.Errorf("query: evaluating %s: %w", c.source, err)
	}
	return Result{Holds: holds, Formula: f, Reads: b.reads, Typed: b.typed}, nil
}

// satAdd adds two non-negative times, saturating at Infinity so huge
// relative windows cannot overflow.
func satAdd(a, b interval.Time) interval.Time {
	if a > interval.Infinity-b {
		return interval.Infinity
	}
	return a + b
}

// builder compiles one evaluation's formula, recording what its atoms
// read.
type builder struct {
	snap  Snapshot
	reads []Read
	typed bool
}

// read records that an atom needs need of lt within window, with the
// slack the free view leaves it there: the quantity the satisfy atom
// compares with need (compute.Simple.SatisfiedBy).
func (b *builder) read(lt resource.LocatedType, window interval.Interval, need resource.Quantity) {
	have := b.snap.Free.QuantityWithin(lt, window)
	b.reads = append(b.reads, Read{Type: lt, Window: window, Slack: have - need})
}

// build compiles one AST node into a core formula.
func (b *builder) build(n *Node) (core.Formula, error) {
	switch n.Op {
	case "true":
		return core.True{}, nil
	case "false":
		return core.False{}, nil
	case "not":
		inner, err := b.build(n.Args[0])
		return core.Not{F: inner}, err
	case "and", "or":
		var out core.Formula
		for _, a := range n.Args {
			inner, err := b.build(a)
			if err != nil {
				return nil, err
			}
			switch {
			case out == nil:
				out = inner
			case n.Op == "and":
				out = core.And{L: out, R: inner}
			default:
				out = core.Or{L: out, R: inner}
			}
		}
		return out, nil
	case "holds":
		return b.holds(n)
	case "feasible":
		return b.feasible(n), nil
	case "allen":
		return b.allen(n), nil
	default:
		return nil, fmt.Errorf("query: unknown operator %q", n.Op)
	}
}

// holds compiles holds(loc[>dst], kind>=qty, mode, window) into the
// satisfy atom over the window that decides it, or false when that
// window has passed.
func (b *builder) holds(n *Node) (core.Formula, error) {
	now := b.snap.Now
	window := interval.New(now, interval.Infinity)
	switch {
	case n.Next > 0:
		window = interval.New(now, satAdd(now, n.Next))
	case n.To > 0:
		window = interval.New(n.From, n.To)
	}
	lt := resource.At(resource.Kind(n.Kind), resource.Location(n.Loc))
	if n.Dst != "" {
		lt = resource.LocatedType{Kind: resource.Kind(n.Kind),
			Loc: resource.Location(n.Loc), Dst: resource.Location(n.Dst)}
	}
	need := resource.Quantity(n.Min * float64(resource.Unit))
	if need <= 0 {
		return nil, fmt.Errorf("query: holds threshold %v rounds to nothing", n.Min)
	}
	// at is the tick the atom is decided at: the first for ◇ and plain
	// atoms, the window's last for □.
	at := now
	if n.Mode == "always" {
		at = max(now, window.End-1)
		if window.End >= interval.Infinity {
			// An unbounded □ runs out to the end of the known
			// availability: beyond it nothing changes, so its last tick
			// decides the tail.
			at = now
			if hull := b.snap.Free.Hull(); !hull.Empty() && hull.End > now {
				at = hull.End - 1
			}
			b.typed = false
		}
	}
	if at >= window.End {
		return core.False{}, nil
	}
	window.Start = max(window.Start, at)
	b.read(lt, window, need)
	return core.SatisfySimple{Req: compute.Simple{
		Amounts: resource.Needs{{Qty: need, Type: lt}},
		Window:  window,
	}}, nil
}

// feasible compiles feasible(job[, before d]) into the speculative
// re-admission atom: would the job's remaining demand, re-planned from
// scratch, still fit the free view before the deadline? An unknown job
// is false — the standing form of "is there headroom to re-home this".
func (b *builder) feasible(n *Node) core.Formula {
	cm, ok := b.snap.commitment(n.Job)
	if !ok {
		return core.False{}
	}
	deadline := cm.Deadline
	if n.Before > 0 {
		deadline = n.Before
	}
	window := interval.New(b.snap.Now, deadline)
	var amounts resource.Needs
	cm.Demand.EachType(func(lt resource.LocatedType, hull interval.Interval) {
		if qty := cm.Demand.QuantityWithin(lt, hull); qty > 0 {
			amounts = append(amounts, resource.Amount{Qty: qty, Type: lt})
			b.read(lt, window, qty)
		}
	})
	amounts = slices.Clip(amounts)
	if len(amounts) == 0 {
		// Nothing left to do: trivially feasible.
		return core.True{}
	}
	return core.SatisfySimple{Req: compute.Simple{Amounts: amounts, Window: window}}
}

// allen resolves both refs against the snapshot and decides the
// relation at compile time: reservation windows are fixed once
// admitted, so the atom is a constant within one epoch. Unresolvable or
// empty operands are false (the algebra is defined only on proper
// intervals).
func (b *builder) allen(n *Node) core.Formula {
	x, okX := resolveRef(n.A, &b.snap)
	y, okY := resolveRef(n.B, &b.snap)
	if !okX || !okY || x.Empty() || y.Empty() {
		return core.False{}
	}
	if interval.RelationBetween(x, y) == allenRelations[n.Rel] {
		return core.True{}
	}
	return core.False{}
}

func resolveRef(r *Ref, snap *Snapshot) (interval.Interval, bool) {
	if r.Job == "" {
		return interval.New(r.From, r.To), true
	}
	cm, ok := snap.commitment(r.Job)
	if !ok {
		return interval.Interval{}, false
	}
	return interval.New(cm.Admitted, cm.Finish), true
}
