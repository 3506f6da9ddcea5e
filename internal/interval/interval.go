// Package interval implements the time model underlying ROTA: discrete
// time points, half-open time intervals, Allen's interval algebra (the
// thirteen qualitative relations of Table I in the paper), relation
// composition, interval sets, and qualitative constraint networks with
// path-consistency propagation.
//
// Time is modeled as int64 ticks. The tick length corresponds to the
// paper's Δt — the smallest time slice the system can account for — and is
// chosen by the embedding system ("control granularity"). All intervals are
// half-open [Start, End): a resource term defined on (0,3) in the paper's
// notation covers ticks 0, 1 and 2. An interval with End <= Start is empty;
// per §III of the paper, resources over empty intervals are null.
package interval

import (
	"fmt"
	"strconv"
)

// Time is a discrete point in time, measured in ticks of Δt.
type Time = int64

// Infinity is a sentinel end-time for unbounded horizons. It is far enough
// from any realistic tick count that arithmetic on bounded intervals cannot
// reach it.
const Infinity Time = 1<<62 - 1

// NegInfinity is the corresponding sentinel start-time.
const NegInfinity Time = -(1<<62 - 1)

// Interval is a half-open span of time [Start, End).
//
// The zero value is the empty interval [0, 0).
type Interval struct {
	Start Time
	End   Time
}

// New returns the interval [start, end). It does not normalize: an
// interval with end <= start is a valid (empty) interval.
func New(start, end Time) Interval {
	return Interval{Start: start, End: end}
}

// Empty reports whether the interval contains no ticks.
func (iv Interval) Empty() bool {
	return iv.End <= iv.Start
}

// Len returns the number of ticks in the interval, zero if empty.
func (iv Interval) Len() Time {
	if iv.Empty() {
		return 0
	}
	return iv.End - iv.Start
}

// ContainsInterval reports whether other is fully inside iv. The empty
// interval is contained in everything.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return true
	}
	return iv.Start <= other.Start && other.End <= iv.End
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	out := Interval{Start: max64(iv.Start, other.Start), End: min64(iv.End, other.End)}
	if out.Empty() {
		return Interval{}
	}
	return out
}

// Overlaps reports whether the two intervals share at least one tick.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.Intersect(other).Empty()
}

// Hull returns the smallest interval containing both inputs. The hull of
// an empty interval with x is x.
func (iv Interval) Hull(other Interval) Interval {
	switch {
	case iv.Empty():
		return other
	case other.Empty():
		return iv
	}
	return Interval{Start: min64(iv.Start, other.Start), End: max64(iv.End, other.End)}
}

// ClampStart returns the portion of iv at or after t.
func (iv Interval) ClampStart(t Time) Interval {
	return iv.Intersect(Interval{Start: t, End: Infinity})
}

// String renders the interval in the paper's (start, end) notation.
func (iv Interval) String() string {
	var buf [48]byte
	return string(iv.Append(buf[:0]))
}

// Append appends String's rendering of the interval to b.
func (iv Interval) Append(b []byte) []byte {
	if iv.Empty() {
		return append(b, "(∅)"...)
	}
	b = appendTime(append(b, '('), iv.Start)
	b = appendTime(append(b, ','), iv.End)
	return append(b, ')')
}

func appendTime(b []byte, t Time) []byte {
	switch t {
	case Infinity:
		return append(b, "+inf"...)
	case NegInfinity:
		return append(b, "-inf"...)
	}
	return strconv.AppendInt(b, t, 10)
}

// Parse parses the "(start,end)" notation produced by String.
func Parse(s string) (Interval, error) {
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return Interval{}, fmt.Errorf("interval: malformed %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "∅" {
		return Interval{}, nil
	}
	comma := -1
	for i := 1; i < len(body); i++ { // skip index 0 so a leading '-' is fine
		if body[i] == ',' {
			comma = i
			break
		}
	}
	if comma < 0 {
		return Interval{}, fmt.Errorf("interval: malformed %q", s)
	}
	start, err := parseTime(body[:comma])
	if err != nil {
		return Interval{}, fmt.Errorf("interval: bad start in %q: %w", s, err)
	}
	end, err := parseTime(body[comma+1:])
	if err != nil {
		return Interval{}, fmt.Errorf("interval: bad end in %q: %w", s, err)
	}
	return Interval{Start: start, End: end}, nil
}

func parseTime(s string) (Time, error) {
	switch s {
	case "+inf", "inf":
		return Infinity, nil
	case "-inf":
		return NegInfinity, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func min64(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

func max64(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
