package span

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// TreeNode is one span in a reconstructed trace tree.
type TreeNode struct {
	Record
	Children []*TreeNode
}

// Tree is the reconstruction of one trace from its (possibly
// multi-node) span records.
type Tree struct {
	Trace string
	// Roots are the spans with no parent present in the record set. A
	// fully propagated trace has exactly one; more than one means the
	// trace is disconnected (a propagation bug, or records evicted).
	Roots []*TreeNode
	// Orphans are non-root spans whose parent ID is set but missing
	// from the record set; they are grafted under Roots for rendering
	// but counted separately so connectivity checks can fail loudly.
	Orphans int
	Spans   int
}

// BuildTrees groups records by trace ID and reconstructs each tree,
// merging records collected from any number of nodes. Trees are
// returned sorted by earliest start.
func BuildTrees(records []Record) []*Tree {
	byTrace := map[string][]Record{}
	for _, r := range records {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	out := make([]*Tree, 0, len(byTrace))
	for id, recs := range byTrace {
		out = append(out, buildOne(id, recs))
	}
	sort.Slice(out, func(i, j int) bool {
		return earliest(out[i]) < earliest(out[j])
	})
	return out
}

// BuildTree reconstructs a single trace's tree from its records.
func BuildTree(trace string, records []Record) *Tree {
	recs := records[:0:0]
	for _, r := range records {
		if r.Trace == trace {
			recs = append(recs, r)
		}
	}
	return buildOne(trace, recs)
}

func buildOne(trace string, recs []Record) *Tree {
	nodes := make(map[string]*TreeNode, len(recs))
	for _, r := range recs {
		// Duplicate IDs (a re-fetched dump merged twice) keep the first.
		if _, dup := nodes[r.ID]; !dup {
			nodes[r.ID] = &TreeNode{Record: r}
		}
	}
	t := &Tree{Trace: trace, Spans: len(nodes)}
	for _, n := range nodes {
		if n.Parent == "" {
			t.Roots = append(t.Roots, n)
			continue
		}
		if p, ok := nodes[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			t.Orphans++
			t.Roots = append(t.Roots, n)
		}
	}
	var sortKids func(n *TreeNode)
	sortKids = func(n *TreeNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].StartUnixNS < n.Children[j].StartUnixNS
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sort.Slice(t.Roots, func(i, j int) bool { return t.Roots[i].StartUnixNS < t.Roots[j].StartUnixNS })
	for _, r := range t.Roots {
		sortKids(r)
	}
	return t
}

// Connected reports whether the tree is one fully connected span tree:
// a single root and no orphaned parents.
func (t *Tree) Connected() bool { return len(t.Roots) == 1 && t.Orphans == 0 }

func earliest(t *Tree) int64 {
	if len(t.Roots) == 0 {
		return 0
	}
	return t.Roots[0].StartUnixNS
}

// CriticalPath walks from the root into the child that finishes last at
// each level — the chain of spans that bounded the request's latency.
// Returns the path root-first.
func (t *Tree) CriticalPath() []*TreeNode {
	if len(t.Roots) == 0 {
		return nil
	}
	// Start from the latest-finishing root (the terminal span when the
	// tree is connected).
	cur := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.End() > cur.End() {
			cur = r
		}
	}
	path := []*TreeNode{cur}
	for len(cur.Children) > 0 {
		next := cur.Children[0]
		for _, c := range cur.Children[1:] {
			if c.End() > next.End() {
				next = c
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// SelfUS returns the span's self time: its duration minus the sum of
// its children's durations, clamped at zero (children of a span that
// ran them concurrently can sum past the parent).
func (n *TreeNode) SelfUS() int64 {
	self := n.DurationUS
	for _, c := range n.Children {
		self -= c.DurationUS
	}
	if self < 0 {
		self = 0
	}
	return self
}

// PhaseBreakdown sums span durations by kind across the whole tree —
// the per-phase latency decomposition rotatrace prints.
func (t *Tree) PhaseBreakdown() map[string]int64 {
	out := map[string]int64{}
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		out[n.Kind] += n.DurationUS
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// WriteBreakdown renders the critical path as a table titled title, then
// the per-phase latency breakdown with its phases in name order, each
// table followed by a blank line.
func (t *Tree) WriteBreakdown(w io.Writer, title string) {
	cp := metrics.NewTable(title, "kind", "node", "total µs", "self µs")
	for _, n := range t.CriticalPath() {
		cp.AddRow(n.Kind, n.Node, n.DurationUS, n.SelfUS())
	}
	cp.Render(w)
	fmt.Fprintln(w)
	phases := t.PhaseBreakdown()
	kinds := make([]string, 0, len(phases))
	for k := range phases {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	pb := metrics.NewTable("per-phase latency breakdown", "phase", "total µs")
	for _, k := range kinds {
		pb.AddRow(k, phases[k])
	}
	pb.Render(w)
	fmt.Fprintln(w)
}

func frame(n *TreeNode) string {
	if n.Node != "" {
		return n.Node + ":" + n.Kind
	}
	return n.Kind
}

// WriteTree renders the tree as an indented text outline with per-span
// durations, statuses and key attributes.
func (t *Tree) WriteTree(w io.Writer) {
	fmt.Fprintf(w, "trace %s  (%d spans", t.Trace, t.Spans)
	if !t.Connected() {
		fmt.Fprintf(w, ", %d roots, %d orphans — DISCONNECTED", len(t.Roots), t.Orphans)
	}
	fmt.Fprintln(w, ")")
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		fmt.Fprintf(w, "%s%-12s %8dus  %s", strings.Repeat("  ", depth+1), frame(n), n.DurationUS, n.Status)
		if job := n.Attrs["job"]; job != "" {
			fmt.Fprintf(w, "  job=%s", job)
		}
		if n.Provenance != nil {
			fmt.Fprintf(w, "  [%s/%s", n.Provenance.Stage, n.Provenance.Constraint)
			if n.Provenance.Term != "" {
				fmt.Fprintf(w, " term=%s", n.Provenance.Term)
			}
			if n.Provenance.Window != "" {
				fmt.Fprintf(w, " window=%s", n.Provenance.Window)
			}
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
}

// WriteFolded emits the tree as flamegraph folded stacks: one line per
// span, semicolon-joined ancestry, self time (µs) as the sample value.
// Feed the output straight to flamegraph.pl.
func (t *Tree) WriteFolded(w io.Writer) {
	var walk func(n *TreeNode, stack []string)
	walk = func(n *TreeNode, stack []string) {
		stack = append(stack, frame(n))
		if self := n.SelfUS(); self > 0 {
			fmt.Fprintf(w, "%s %d\n", strings.Join(stack, ";"), self)
		}
		for _, c := range n.Children {
			walk(c, stack)
		}
	}
	for _, r := range t.Roots {
		walk(r, nil)
	}
}
