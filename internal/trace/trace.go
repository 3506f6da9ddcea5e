// Package trace records structured simulation events and serializes them
// as JSON Lines, one event per line — the format replay tooling and
// external analysis notebooks consume.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/interval"
)

// Kind classifies an event.
type Kind string

// The event kinds a simulation emits.
const (
	KindJoin      Kind = "join"      // resources joined
	KindRenege    Kind = "renege"    // resources withdrew early
	KindArrival   Kind = "arrival"   // a job was offered
	KindAdmit     Kind = "admit"     // a job was admitted
	KindReject    Kind = "reject"    // a job was refused
	KindComplete  Kind = "complete"  // a job finished on time
	KindMiss      Kind = "miss"      // a job missed its deadline
	KindViolation Kind = "violation" // a commitment's plan was broken
)

// Event is one timestamped simulation event.
type Event struct {
	At   interval.Time `json:"t"`
	Kind Kind          `json:"kind"`
	// Job names the computation for job-related events.
	Job string `json:"job,omitempty"`
	// Detail carries free-form context (policy reason, resource text).
	Detail string `json:"detail,omitempty"`
	// Quantity carries a magnitude where meaningful (work units,
	// withdrawn units).
	Quantity int64 `json:"qty,omitempty"`
	// Stage, Constraint, Term and Window are a reject's structured
	// provenance (see span.Provenance), present when the policy's
	// refusal was typed.
	Stage      string `json:"stage,omitempty"`
	Constraint string `json:"constraint,omitempty"`
	Term       string `json:"term,omitempty"`
	Window     string `json:"window,omitempty"`
}

// Log accumulates events in memory; it is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// NewLog creates an empty log.
func NewLog() *Log {
	return &Log{}
}

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Events returns a copy of the recorded events in order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Filter returns the events of one kind.
func (l *Log) Filter(kind Kind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL serializes the log as JSON Lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON Lines stream back into a log. Blank lines are
// skipped; a malformed line is an error.
func ReadJSONL(r io.Reader) (*Log, error) {
	l := NewLog()
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		l.Add(e)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return l, nil
}
