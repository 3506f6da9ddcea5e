package query

import (
	"fmt"
	"sync"

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
	Now         interval.Time
	Epoch       uint64
	Free        resource.Set
	Commitments map[string]Commitment
	// Footprint is the sorted set of locations Free was read from.
	// Located types are disjoint resources, so a write touching none of
	// them, and none of the query's names, cannot change the verdict.
	Footprint []resource.Location
	// Scoped reports that Footprint is the whole read set. A snapshot
	// that cannot name one (a cluster fan-out reads peers' ledgers)
	// leaves it false. A scoped snapshot with an empty footprint read no
	// location: "true", or a query whose names all resolved to nothing.
	Scoped bool
}

// Result is a query verdict with the core formula it was decided by.
// The formula is kept as a value: only a one-shot answer renders it.
type Result struct {
	Holds   bool
	Formula core.Formula
}

// maxPathStates bounds the speculative path a modal query is evaluated
// on: windows of any size are sampled at at most this many positions, so
// a "next 10^9" query costs the same as a "next 30" one. Satisfy atoms
// are monotone over the suffix windows clampWindow produces, so
// coarsening positions never flips a verdict that a finer sampling of
// the same horizon would give between sampled points.
const maxPathStates = 64

// pathPool recycles the speculative paths Evaluate decides queries on.
// A modal query's path holds up to maxPathStates states, all sharing
// one free view, plus the steps between them: about 10 KB that every
// evaluation would otherwise allocate afresh. core.Eval keeps no
// reference to the path, so it is free again once Evaluate returns.
var pathPool = sync.Pool{New: func() any {
	return &core.Path{
		States: make([]core.State, 0, maxPathStates),
		Steps:  make([]core.Transition, 0, maxPathStates-1),
	}
}}

// Evaluate compiles the query against the snapshot and decides it at
// the snapshot's clock (path position 0).
func (c *Compiled) Evaluate(snap Snapshot) (Result, error) {
	f, horizon, err := c.build(c.root, snap)
	if err != nil {
		return Result{}, err
	}
	p := pathPool.Get().(*core.Path)
	speculativePath(p, snap.Free, snap.Now, horizon)
	holds, err := core.Eval(p, 0, f)
	// A pooled path must not keep this snapshot's free view alive.
	clear(p.States)
	p.States, p.Steps = p.States[:0], p.Steps[:0]
	pathPool.Put(p)
	if err != nil {
		return Result{}, fmt.Errorf("query: evaluating %s: %w", c.source, err)
	}
	return Result{Holds: holds, Formula: f}, nil
}

// speculativePath fills the empty path p with the committed path the
// query is judged on: the free view held constant while the clock
// advances to the horizon, in at most maxPathStates states. Each step
// carries no expirations, so FreeWithin reduces to the free set clamped
// to the (position-clamped) window — exactly the paper's "resources
// that will expire unused unless something new consumes them" for a
// ledger whose reservations are already subtracted out.
func speculativePath(p *core.Path, free resource.Set, now, horizon interval.Time) {
	p.States = append(p.States, core.State{Theta: free, Now: now})
	if horizon <= now {
		return
	}
	span := horizon - now
	steps := span
	if steps > maxPathStates-1 {
		steps = maxPathStates - 1
	}
	dt := (span + steps - 1) / steps
	for t := now; t < horizon; {
		next := satAdd(t, dt)
		if next > horizon {
			next = horizon
		}
		p.Steps = append(p.Steps, core.Transition{Kind: core.KindIdle, From: t, To: next})
		p.States = append(p.States, core.State{Theta: free, Now: next})
		t = next
	}
}

// satAdd adds two non-negative times, saturating at Infinity so huge
// relative windows cannot overflow.
func satAdd(a, b interval.Time) interval.Time {
	if a > interval.Infinity-b {
		return interval.Infinity
	}
	return a + b
}

// build compiles one AST node into a core formula, returning the
// furthest horizon any modal atom needs the path to reach.
func (c *Compiled) build(n *Node, snap Snapshot) (core.Formula, interval.Time, error) {
	switch n.Op {
	case "true":
		return core.True{}, snap.Now, nil
	case "false":
		return core.False{}, snap.Now, nil
	case "not":
		inner, h, err := c.build(n.Args[0], snap)
		return core.Not{F: inner}, h, err
	case "and", "or":
		var out core.Formula
		horizon := snap.Now
		for _, a := range n.Args {
			inner, h, err := c.build(a, snap)
			if err != nil {
				return nil, 0, err
			}
			if h > horizon {
				horizon = h
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
		return out, horizon, nil
	case "holds":
		return c.buildHolds(n, snap)
	case "feasible":
		return c.buildFeasible(n, snap), snap.Now, nil
	case "allen":
		return c.buildAllen(n, snap), snap.Now, nil
	default:
		return nil, 0, fmt.Errorf("query: unknown operator %q", n.Op)
	}
}

// buildHolds compiles holds(loc[>dst], kind>=qty, mode, window) into a
// (possibly modal) satisfy atom over the free view.
func (c *Compiled) buildHolds(n *Node, snap Snapshot) (core.Formula, interval.Time, error) {
	window := interval.New(snap.Now, interval.Infinity)
	switch {
	case n.Next > 0:
		window = interval.New(snap.Now, satAdd(snap.Now, n.Next))
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
		return nil, 0, fmt.Errorf("query: holds threshold %v rounds to nothing", n.Min)
	}
	var f core.Formula = core.SatisfySimple{Req: compute.Simple{
		Amounts: resource.Amounts{lt: need},
		Window:  window,
	}}
	horizon := snap.Now
	switch n.Mode {
	case "always":
		f = core.Always{F: f}
		horizon = window.End - 1
	case "eventually":
		f = core.Eventually{F: f}
		horizon = window.End - 1
	}
	if horizon >= interval.Infinity-1 {
		// An unbounded modal window: sample out to the end of the known
		// availability — beyond it nothing changes, so the last position
		// decides the tail.
		if hull := snap.Free.Hull(); !hull.Empty() && hull.End > snap.Now {
			horizon = hull.End - 1
		} else {
			horizon = snap.Now
		}
	}
	// The path's final position is the last tick at which the window is
	// still open (clampWindow empties at End), so □ quantifies over
	// exactly the window's ticks instead of vacuously failing at End.
	if horizon < snap.Now {
		horizon = snap.Now
	}
	return f, horizon, nil
}

// buildFeasible compiles feasible(job[, before d]) into the speculative
// re-admission atom: would the job's remaining demand, re-planned from
// scratch, still fit the free view before the deadline? An unknown job
// is false — the standing form of "is there headroom to re-home this".
func (c *Compiled) buildFeasible(n *Node, snap Snapshot) core.Formula {
	cm, ok := snap.Commitments[n.Job]
	if !ok {
		return core.False{}
	}
	deadline := cm.Deadline
	if n.Before > 0 {
		deadline = n.Before
	}
	amounts := make(resource.Amounts)
	for lt, qty := range cm.Demand.TotalQuantity(cm.Demand.Hull()) {
		if qty > 0 {
			amounts[lt] = qty
		}
	}
	if len(amounts) == 0 {
		// Nothing left to do: trivially feasible.
		return core.True{}
	}
	return core.SatisfySimple{Req: compute.Simple{
		Amounts: amounts,
		Window:  interval.New(snap.Now, deadline),
	}}
}

// buildAllen resolves both refs against the snapshot and decides the
// relation at compile time: reservation windows are fixed once
// admitted, so the atom is a constant within one epoch. Unresolvable or
// empty operands are false (the algebra is defined only on proper
// intervals).
func (c *Compiled) buildAllen(n *Node, snap Snapshot) core.Formula {
	a, okA := resolveRef(n.A, snap)
	b, okB := resolveRef(n.B, snap)
	if !okA || !okB || a.Empty() || b.Empty() {
		return core.False{}
	}
	if interval.RelationBetween(a, b) == allenRelations[n.Rel] {
		return core.True{}
	}
	return core.False{}
}

func resolveRef(r *Ref, snap Snapshot) (interval.Interval, bool) {
	if r.Job == "" {
		return interval.New(r.From, r.To), true
	}
	cm, ok := snap.Commitments[r.Job]
	if !ok {
		return interval.Interval{}, false
	}
	return interval.New(cm.Admitted, cm.Finish), true
}
