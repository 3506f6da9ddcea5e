package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The traced replay measures every layer from outside: for each request
// of the workload's own stream the harness performs the same operation
// as a stack of calls into the live system — over the socket, then
// straight into the handler, then into the ledger, and so on down — and
// records one span per rung. The rungs of one request are separate
// executions, not nested in wall time; a span's Parent says which rung
// contains it, and a rung's self time is its duration minus its
// children's durations.

// spanRec is one recorded span. Spans of one request share Req.
type spanRec struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Class separates requests that take different paths (admit, reject,
	// query, coord, forward); layer medians are taken within a class.
	Class string `json:"class"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0      time.Time
	spans   []spanRec
	req     int
	class   string
	classes map[string]int // requests begun, by class
}

func newTracer() *tracer { return &tracer{t0: time.Now(), classes: make(map[string]int)} }

// begin opens the next request.
func (t *tracer) begin(class string) {
	t.req++
	t.class = class
	t.classes[class]++
}

// span times fn as a rung named name under parent and returns its id.
func (t *tracer) span(name string, parent int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{Name: name, Req: t.req, ID: id, Parent: parent,
		Start: start.Nanoseconds(), End: end.Nanoseconds(), Class: t.class})
	return id
}

// add records a rung whose duration was accumulated elsewhere (the sum
// of many short calls inside one pass).
func (t *tracer) add(name string, parent int, d time.Duration) int {
	id := len(t.spans) + 1
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, spanRec{Name: name, Req: t.req, ID: id, Parent: parent,
		Start: now - d.Nanoseconds(), End: now, Class: t.class})
	return id
}

// write stores the spans as JSONL.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one row of the stacked table.
type rung struct {
	name     string
	depth    int
	n        int
	p50      float64 // µs
	self     float64 // µs, p50 minus the children's p50s
	share    float64 // self as a share of its tree's root
	children []string
}

// stack is the stacked breakdown of one class of requests.
type stack struct {
	class        string
	rungs        []*rung // pre-order
	byName       map[string]*rung
	unattributed float64 // µs the children exceed their parents by
	worst        string  // the rung whose children overrun it most
	worstBy      float64
}

// root is the first root rung's median.
func (s *stack) root() float64 {
	if len(s.rungs) == 0 {
		return 0
	}
	return s.rungs[0].p50
}

// buildStack digests the spans of one class into the stacked table:
// the median of every rung, its self time, and how far the self times
// fall short of summing to the root ("unattributed": children whose
// medians exceed their parent's).
//
// repeated says the spans are whole passes measured a few times, to be
// digested by a plain median; otherwise they are per-request latencies
// and a median needs its twenty samples.
func buildStack(spans []spanRec, class string, repeated bool) (*stack, error) {
	durs := make(map[string][]float64)
	parentOf := make(map[string]string)
	nameOf := make(map[int]string, len(spans))
	var order []string
	for i := range spans {
		nameOf[spans[i].ID] = spans[i].Name
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Class != class {
			continue
		}
		if _, seen := durs[sp.Name]; !seen {
			order = append(order, sp.Name)
			parentOf[sp.Name] = nameOf[sp.Parent]
		}
		durs[sp.Name] = append(durs[sp.Name], float64(sp.End-sp.Start)/1e3)
	}
	st := &stack{class: class, byName: make(map[string]*rung)}
	for _, name := range order {
		d := durs[name]
		sort.Float64s(d)
		p50 := median(d)
		if !repeated {
			var err error
			if p50, err = percentile(d, 0.5); err != nil {
				return nil, fmt.Errorf("rung %s (%s): %w", name, class, err)
			}
		}
		st.byName[name] = &rung{name: name, n: len(d), p50: p50}
	}
	for _, name := range order {
		if p := st.byName[parentOf[name]]; p != nil {
			p.children = append(p.children, name)
		}
	}
	var walk func(name string, depth int, root float64)
	walk = func(name string, depth int, root float64) {
		r := st.byName[name]
		r.depth = depth
		r.self = r.p50
		st.rungs = append(st.rungs, r)
		for _, c := range r.children {
			r.self -= st.byName[c].p50
			walk(c, depth+1, root)
		}
		if root > 0 && r.self > 0 {
			r.share = r.self / root
		}
		if r.self < 0 {
			if -r.self > st.worstBy {
				st.worst, st.worstBy = name, -r.self
			}
			st.unattributed -= r.self
		}
	}
	for _, name := range order {
		if parentOf[name] == "" {
			walk(name, 0, st.byName[name].p50)
		}
	}
	return st, nil
}

// check enforces the stacked-breakdown rule: self times must sum to
// within a tenth of the root.
func (s *stack) check() error {
	if root := s.root(); s.unattributed > root/10 {
		return fmt.Errorf("stacked breakdown (%s): %.1f µs of the %.1f µs root unattributed; children of rung %s exceed it",
			s.class, s.unattributed, root, s.worst)
	}
	return nil
}

// print renders the stacked table.
func (s *stack) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%s / %s — stacked breakdown (p50 µs of the traced replay)\n", workload, s.class)
	fmt.Fprintf(w, "  %-34s %10s %10s %7s %7s\n", "rung", "p50", "self", "share", "n")
	for _, r := range s.rungs {
		fmt.Fprintf(w, "  %-34s %10.1f %10.1f %6.1f%% %7d\n", strings.Repeat("  ", r.depth)+r.name, r.p50, r.self, 100*r.share, r.n)
	}
	fmt.Fprintf(w, "  %-34s %10s %10.1f\n", "unattributed", "", s.unattributed)
}
