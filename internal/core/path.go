package core

import (
	"fmt"
	"strings"

	"repro/internal/interval"
)

// Path is a computation path σ (Definition 2): one branch of the tree of
// possible system evolutions, materialized as the sequence of states
// visited and the labeled transitions between them. States[i+1] is the
// result of Steps[i] applied to States[i].
type Path struct {
	States []State
	Steps  []Transition
}

// NewPath starts a path at the initial state.
func NewPath(initial State) *Path {
	return &Path{States: []State{initial}}
}

// Len returns the number of states on the path.
func (p *Path) Len() int {
	return len(p.States)
}

// Last returns the final state.
func (p *Path) Last() State {
	return p.States[len(p.States)-1]
}

// At returns the i-th state.
func (p *Path) At(i int) State {
	return p.States[i]
}

// append records a transition and its resulting state.
func (p *Path) append(tr Transition, next State) {
	p.Steps = append(p.Steps, tr)
	p.States = append(p.States, next)
}

// Violations returned by Run are tagged with their path position.
type RunResult struct {
	Path       *Path
	Violations []Violation
	// Completed maps computation name to completion time.
	Completed map[string]interval.Time
}

// Run evolves the state by repeated application of the general transition
// rule with step dt until the clock reaches horizon or (if horizon is
// ≤ the current time) until all commitments complete. It materializes the
// canonical committed path: every commitment follows its admission plan.
func Run(initial State, horizon interval.Time, dt interval.Time) RunResult {
	if dt <= 0 {
		dt = 1
	}
	p := NewPath(initial)
	res := RunResult{Path: p, Completed: make(map[string]interval.Time)}
	cur := initial
	for {
		if horizon > initial.Now {
			if cur.Now >= horizon {
				break
			}
		} else if len(cur.Commitments) == 0 {
			// Horizon at or before the start means "run to completion".
			break
		}
		next, tr, viols := Tick(cur, dt)
		p.append(tr, next)
		res.Violations = append(res.Violations, viols...)
		for _, name := range tr.Completed {
			res.Completed[name] = next.Now
		}
		cur = next
	}
	return res
}

// String renders the path as a transition chain.
func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.States {
		if i > 0 {
			fmt.Fprintf(&b, " —[%s]→ ", p.Steps[i-1].Label())
		}
		b.WriteString(s.String())
	}
	return b.String()
}
