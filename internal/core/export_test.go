package core

import "repro/internal/interval"

// Test helpers. No binary reads a path by time; the path tests do.

// EvalNow evaluates ψ at the position of time t on the path.
func EvalNow(p *Path, t interval.Time, f Formula) (bool, error) {
	return Eval(p, p.IndexAt(t), f)
}

// IndexAt returns the position of the first state whose time is ≥ t, or
// the last position if the path ends earlier.
func (p *Path) IndexAt(t interval.Time) int {
	for i, s := range p.States {
		if s.Now >= t {
			return i
		}
	}
	return len(p.States) - 1
}
