package interval

import (
	"errors"
	"fmt"
)

// Network is a qualitative constraint network over interval variables:
// nodes are intervals, and each directed edge (i, j) carries a RelSet of
// Allen relations that may hold between variable i and variable j.
//
// Networks answer the question Interval Algebra is asked of a
// collection of qualitative temporal statements: are they consistent?
type Network struct {
	names []string
	index map[string]int
	cons  [][]RelSet
}

// ErrInconsistent is returned when constraints admit no solution.
var ErrInconsistent = errors.New("interval: constraint network is inconsistent")

// NewNetwork creates a network with the given named variables.
func NewNetwork(names ...string) *Network {
	nw := &Network{index: make(map[string]int, len(names))}
	for _, name := range names {
		nw.AddVariable(name)
	}
	return nw
}

// AddVariable adds a variable and returns its index. Adding a duplicate
// name returns the existing index.
func (nw *Network) AddVariable(name string) int {
	if i, ok := nw.index[name]; ok {
		return i
	}
	i := len(nw.names)
	nw.names = append(nw.names, name)
	nw.index[name] = i
	for r := range nw.cons {
		nw.cons[r] = append(nw.cons[r], FullRelSet)
	}
	row := make([]RelSet, i+1)
	for c := range row {
		row[c] = FullRelSet
	}
	row[i] = NewRelSet(Equal)
	nw.cons = append(nw.cons, row)
	return i
}

// Size returns the number of variables.
func (nw *Network) Size() int {
	return len(nw.names)
}

// Name returns the name of variable i.
func (nw *Network) Name(i int) string {
	return nw.names[i]
}

// Constrain intersects the edge (i, j) with rels, keeping the network
// symmetric by applying the converse to (j, i). It returns
// ErrInconsistent if the edge becomes empty.
//
// Kept: the path-consistency API of the root package's Network (see
// NewNetwork there), which rota_test.go exercises.
func (nw *Network) Constrain(i, j int, rels RelSet) error {
	if i < 0 || j < 0 || i >= len(nw.names) || j >= len(nw.names) {
		return fmt.Errorf("interval: variable index out of range (%d, %d)", i, j)
	}
	if i == j {
		if !rels.Has(Equal) {
			return ErrInconsistent
		}
		return nil
	}
	nw.cons[i][j] = nw.cons[i][j].Intersect(rels)
	nw.cons[j][i] = nw.cons[j][i].Intersect(rels.Converse())
	if nw.cons[i][j].IsEmpty() {
		return ErrInconsistent
	}
	return nil
}

// Constraint returns the current label on edge (i, j).
func (nw *Network) Constraint(i, j int) RelSet {
	return nw.cons[i][j]
}

// Propagate enforces path consistency (Allen's propagation algorithm): for
// every triple (i, k, j) the label on (i, j) is intersected with the
// composition of (i, k) and (k, j), to a fixed point. It returns
// ErrInconsistent if any label becomes empty.
//
// Path consistency is complete for deciding consistency of networks whose
// labels lie in tractable subclasses (e.g. pointisable relations) and is a
// sound filter in general.
//
// Kept: the path-consistency API of the root package's Network (see
// NewNetwork there), which rota_test.go exercises.
func (nw *Network) Propagate() error {
	n := len(nw.names)
	type edge struct{ i, j int }
	queue := make([]edge, 0, n*n)
	inQueue := make(map[edge]bool, n*n)
	push := func(i, j int) {
		e := edge{i, j}
		if i != j && !inQueue[e] {
			inQueue[e] = true
			queue = append(queue, e)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			push(i, j)
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		inQueue[e] = false
		for k := 0; k < n; k++ {
			if k == e.i || k == e.j {
				continue
			}
			// Tighten (i, k) using (i, j) ∘ (j, k).
			viaJ := nw.cons[e.i][k].Intersect(ComposeSets(nw.cons[e.i][e.j], nw.cons[e.j][k]))
			if viaJ != nw.cons[e.i][k] {
				if viaJ.IsEmpty() {
					return ErrInconsistent
				}
				nw.cons[e.i][k] = viaJ
				nw.cons[k][e.i] = viaJ.Converse()
				push(e.i, k)
			}
			// Tighten (k, j) using (k, i) ∘ (i, j).
			viaI := nw.cons[k][e.j].Intersect(ComposeSets(nw.cons[k][e.i], nw.cons[e.i][e.j]))
			if viaI != nw.cons[k][e.j] {
				if viaI.IsEmpty() {
					return ErrInconsistent
				}
				nw.cons[k][e.j] = viaI
				nw.cons[e.j][k] = viaI.Converse()
				push(k, e.j)
			}
		}
	}
	return nil
}
