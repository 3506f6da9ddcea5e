package compute

import (
	"fmt"

	"repro/internal/interval"
)

// The paper's §IV model restricts concurrent computations to independent
// actors ("actors never have to wait for messages from other actors") and
// §VI sketches the extension: "break down an actor's computation into
// sequences of independent computations separated by states in which it
// is waiting to hear back from a blocking operation."
//
// Workflow implements that extension. Each actor's computation is split
// into segments — independent sequential runs of steps — and wait edges
// couple segments across actors: a segment cannot start until all
// segments it waits for have completed. A send followed by a wait edge is
// exactly the blocking request/response pattern §VI describes.

// SegmentRef identifies one segment of one actor within a workflow.
type SegmentRef struct {
	Actor   ActorName
	Segment int
}

// String renders "a1/2".
func (r SegmentRef) String() string {
	return fmt.Sprintf("%s/%d", r.Actor, r.Segment)
}

// WaitEdge says To cannot begin before From completes — typically because
// To's first action processes a message From's last action sent.
type WaitEdge struct {
	From, To SegmentRef
}

// Segmented is one actor's computation split into segments executed in
// order, with possible waits between them.
type Segmented struct {
	Actor    ActorName
	Segments []Computation
}

// Workflow is a deadline-constrained computation whose actors interact.
type Workflow struct {
	Name     string
	Start    interval.Time
	Deadline interval.Time
	Actors   []Segmented
	Edges    []WaitEdge
}

// NewWorkflow validates and builds a workflow: the window must be
// non-empty, actor names unique, segments owned by their actor, edge
// references in range, and the dependency graph (wait edges plus implicit
// intra-actor ordering) acyclic.
func NewWorkflow(name string, start, deadline interval.Time, actors []Segmented, edges []WaitEdge) (Workflow, error) {
	if deadline <= start {
		return Workflow{}, fmt.Errorf("compute: workflow %s has empty window (%d, %d)", name, start, deadline)
	}
	seen := make(map[ActorName]int, len(actors))
	for _, a := range actors {
		if _, dup := seen[a.Actor]; dup {
			return Workflow{}, fmt.Errorf("compute: workflow %s has duplicate actor %s", name, a.Actor)
		}
		if len(a.Segments) == 0 {
			return Workflow{}, fmt.Errorf("compute: workflow %s actor %s has no segments", name, a.Actor)
		}
		for i, seg := range a.Segments {
			if seg.Actor != a.Actor {
				return Workflow{}, fmt.Errorf("compute: workflow %s: segment %s/%d belongs to %s",
					name, a.Actor, i, seg.Actor)
			}
		}
		seen[a.Actor] = len(a.Segments)
	}
	w := Workflow{Name: name, Start: start, Deadline: deadline, Actors: actors, Edges: edges}
	for _, e := range edges {
		for _, ref := range []SegmentRef{e.From, e.To} {
			n, ok := seen[ref.Actor]
			if !ok {
				return Workflow{}, fmt.Errorf("compute: workflow %s: edge references unknown actor %s", name, ref.Actor)
			}
			if ref.Segment < 0 || ref.Segment >= n {
				return Workflow{}, fmt.Errorf("compute: workflow %s: edge references %v out of range", name, ref)
			}
		}
		if e.From == e.To {
			return Workflow{}, fmt.Errorf("compute: workflow %s: self edge on %v", name, e.From)
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return Workflow{}, err
	}
	return w, nil
}

// Segment returns the computation of a segment reference.
func (w Workflow) Segment(ref SegmentRef) (Computation, bool) {
	for _, a := range w.Actors {
		if a.Actor == ref.Actor {
			if ref.Segment < 0 || ref.Segment >= len(a.Segments) {
				return Computation{}, false
			}
			return a.Segments[ref.Segment], true
		}
	}
	return Computation{}, false
}

// Dependencies returns every predecessor of ref: its intra-actor
// predecessor (if any) plus all wait-edge sources.
func (w Workflow) Dependencies(ref SegmentRef) []SegmentRef {
	var deps []SegmentRef
	if ref.Segment > 0 {
		deps = append(deps, SegmentRef{Actor: ref.Actor, Segment: ref.Segment - 1})
	}
	for _, e := range w.Edges {
		if e.To == ref {
			deps = append(deps, e.From)
		}
	}
	return deps
}

// TopoOrder returns every segment in an order compatible with all
// dependencies, or an error if the graph has a cycle.
func (w Workflow) TopoOrder() ([]SegmentRef, error) {
	var all []SegmentRef
	for _, a := range w.Actors {
		for i := range a.Segments {
			all = append(all, SegmentRef{Actor: a.Actor, Segment: i})
		}
	}
	indeg := make(map[SegmentRef]int, len(all))
	succs := make(map[SegmentRef][]SegmentRef, len(all))
	for _, ref := range all {
		for _, dep := range w.Dependencies(ref) {
			indeg[ref]++
			succs[dep] = append(succs[dep], ref)
		}
	}
	var ready []SegmentRef
	for _, ref := range all {
		if indeg[ref] == 0 {
			ready = append(ready, ref)
		}
	}
	out := make([]SegmentRef, 0, len(all))
	for len(ready) > 0 {
		ref := ready[0]
		ready = ready[1:]
		out = append(out, ref)
		for _, next := range succs[ref] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(out) != len(all) {
		return nil, fmt.Errorf("compute: workflow %s has a dependency cycle", w.Name)
	}
	return out, nil
}

// NumSegments returns the total segment count.
func (w Workflow) NumSegments() int {
	n := 0
	for _, a := range w.Actors {
		n += len(a.Segments)
	}
	return n
}

// String renders "(W name: 3 actors, 5 segments, 2 waits, s=0, d=20)".
func (w Workflow) String() string {
	return fmt.Sprintf("(W %s: %d actors, %d segments, %d waits, s=%d, d=%d)",
		w.Name, len(w.Actors), w.NumSegments(), len(w.Edges), w.Start, w.Deadline)
}
