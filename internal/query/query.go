// Package query turns the ◇/□ formula checker into a queryable service
// over the live ledger: a small temporal query language (a compact text
// form and a JSON AST) compiles to internal/core formulas and is
// evaluated against a free-view snapshot (Θ − reserved − leased). The
// same compiled query powers one-shot evaluation (GET/POST /v1/query)
// and continuous subscriptions (/v1/watch), whose verdicts are
// re-checked whenever the ledger epoch advances.
//
// Text grammar (all keywords lowercase; '|' and '&' are accepted as
// aliases for 'or' and 'and', '!' for 'not'):
//
//	expr    := term { ("or" | "|") term }
//	term    := factor { ("and" | "&") factor }
//	factor  := ("not" | "!") factor | primary
//	primary := "true" | "false" | "(" expr ")" | atom
//	atom    := "holds" "(" loc [">" dst] "," kind ">=" qty { "," opt } ")"
//	         | "feasible" "(" name [ "," "before" (tick | "deadline") ] ")"
//	         | rel "(" ref "," ref ")"
//	opt     := "always" | "eventually" | "next" n | "within" n
//	         | "from" tick "to" tick
//	ref     := name | "window" "(" tick "," tick ")"
//	rel     := one of the thirteen Allen relation names (before, after,
//	           meets, met-by, overlaps, overlapped-by, starts,
//	           started-by, during, contains, finishes, finished-by,
//	           equal; '_' may be written for '-')
//
// 'holds' asks whether the free view can still absorb qty units of
// kind at loc within the window ("next n" is relative to the ledger
// clock at evaluation time, "from a to b" absolute; omitted means an
// unbounded horizon). 'feasible' asks whether a live commitment's
// remaining demand would still fit the free view before its deadline —
// the speculative re-admission probe. Allen atoms relate reservation
// windows ([admitted, finish)) of live commitments, or literal windows.
package query

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/interval"
	"repro/internal/resource"
)

// Wire and validation bounds. A query is a small formula, not a data
// upload: the caps keep hostile inputs from ballooning parse or eval
// cost, and the fuzz harness leans on them.
const (
	// MaxQueryBytes bounds the text form and the JSON AST wire size.
	MaxQueryBytes = 4096
	// maxDepth bounds formula nesting (parser recursion and compile).
	maxDepth = 64
	// maxNodes bounds the total AST size.
	maxNodes = 256
	// maxQuantity bounds a holds threshold, in whole resource units.
	maxQuantity = 1e12
)

// Node is the JSON AST of a query: a recursive operator tree. Op selects
// the shape; unrelated fields must be left zero.
//
//	{"op":"and","args":[...]}                  — also "or", "not" (1 arg)
//	{"op":"true"} / {"op":"false"}
//	{"op":"holds","loc":"l1","kind":"cpu","min":5,
//	 "mode":"always","next":30}                — or "from"/"to" absolute
//	{"op":"feasible","job":"j1","before":90}   — before 0 = job deadline
//	{"op":"allen","rel":"during",
//	 "a":{"job":"j1"},"b":{"from":0,"to":50}}
type Node struct {
	Op   string  `json:"op"`
	Args []*Node `json:"args,omitempty"`

	// holds fields.
	Loc  string  `json:"loc,omitempty"`
	Dst  string  `json:"dst,omitempty"`
	Kind string  `json:"kind,omitempty"`
	Min  float64 `json:"min,omitempty"`
	Mode string  `json:"mode,omitempty"`
	Next int64   `json:"next,omitempty"`
	From int64   `json:"from,omitempty"`
	To   int64   `json:"to,omitempty"`

	// feasible fields.
	Job    string        `json:"job,omitempty"`
	Before interval.Time `json:"before,omitempty"`

	// allen fields.
	Rel string `json:"rel,omitempty"`
	A   *Ref   `json:"a,omitempty"`
	B   *Ref   `json:"b,omitempty"`
}

// Ref is one operand of an Allen atom: a live commitment's reservation
// window (Job) or a literal window [From, To).
type Ref struct {
	Job  string        `json:"job,omitempty"`
	From interval.Time `json:"from,omitempty"`
	To   interval.Time `json:"to,omitempty"`
}

// Compiled is a validated query ready for evaluation. It is immutable
// after Compile and safe for concurrent use, so a subscription can hold
// one across many re-evaluations.
type Compiled struct {
	root   *Node
	source string
	names  []string            // referenced commitment names, sorted
	locs   []resource.Location // static holds footprint, sorted
}

// Source returns the canonical text rendering of the query.
func (c *Compiled) Source() string { return c.source }

// Names returns the commitment names the query references (feasible
// atoms and Allen job refs), sorted. The evaluator must resolve these
// into the snapshot before calling Evaluate.
func (c *Compiled) Names() []string { return c.names }

// Footprint returns the locations the query's verdict depends on: the
// holds atoms' static locations plus the footprints of comms, the
// referenced commitments that resolved, as one sorted run with no
// repeats. The free view backing a snapshot must cover at least these
// locations.
func (c *Compiled) Footprint(comms []Commitment) []resource.Location {
	n := len(c.locs)
	for _, cm := range comms {
		n += len(cm.Locations)
	}
	out := make([]resource.Location, 0, n)
	out = append(out, c.locs...)
	for _, cm := range comms {
		out = append(out, cm.Locations...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// allenRelations maps the thirteen lowercase Allen relation names (the
// rendering interval.Relation.String uses) to their relations.
var allenRelations = func() map[string]interval.Relation {
	m := make(map[string]interval.Relation, len(interval.AllRelations))
	for _, r := range interval.AllRelations {
		m[r.String()] = r
	}
	return m
}()

// ParseText compiles the compact text form of a query.
func ParseText(src string) (*Compiled, error) {
	if len(src) > MaxQueryBytes {
		return nil, fmt.Errorf("query: text exceeds %d bytes", MaxQueryBytes)
	}
	p := &parser{toks: tokenize(src)}
	node, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("query: trailing input at %q", p.peek())
	}
	return Compile(node)
}

// ParseJSON compiles the JSON AST wire form of a query.
func ParseJSON(data []byte) (*Compiled, error) {
	if len(data) > MaxQueryBytes {
		return nil, fmt.Errorf("query: AST exceeds %d bytes", MaxQueryBytes)
	}
	var node Node
	if err := json.Unmarshal(data, &node); err != nil {
		return nil, fmt.Errorf("query: bad AST: %w", err)
	}
	return Compile(&node)
}

// Compile validates an AST and returns the evaluable query.
func Compile(root *Node) (*Compiled, error) {
	if root == nil {
		return nil, fmt.Errorf("query: empty query")
	}
	c := &Compiled{root: root}
	count := 0
	seenNames := make(map[string]bool)
	seenLocs := make(map[resource.Location]bool)
	if err := c.check(root, 0, &count, seenNames, seenLocs); err != nil {
		return nil, err
	}
	for name := range seenNames {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	for loc := range seenLocs {
		c.locs = append(c.locs, loc)
	}
	sort.Slice(c.locs, func(i, j int) bool { return c.locs[i] < c.locs[j] })
	c.source = render(root)
	return c, nil
}

func (c *Compiled) check(n *Node, depth int, count *int, names map[string]bool, locs map[resource.Location]bool) error {
	if n == nil {
		return fmt.Errorf("query: nil node")
	}
	if depth > maxDepth {
		return fmt.Errorf("query: nesting exceeds %d levels", maxDepth)
	}
	*count++
	if *count > maxNodes {
		return fmt.Errorf("query: more than %d nodes", maxNodes)
	}
	switch n.Op {
	case "true", "false":
		return nil
	case "not":
		if len(n.Args) != 1 {
			return fmt.Errorf("query: not takes exactly one argument")
		}
		return c.check(n.Args[0], depth+1, count, names, locs)
	case "and", "or":
		if len(n.Args) < 2 {
			return fmt.Errorf("query: %s takes at least two arguments", n.Op)
		}
		for _, a := range n.Args {
			if err := c.check(a, depth+1, count, names, locs); err != nil {
				return err
			}
		}
		return nil
	case "holds":
		if err := checkName("location", n.Loc); err != nil {
			return err
		}
		if n.Dst != "" {
			if err := checkName("destination", n.Dst); err != nil {
				return err
			}
		}
		if err := checkName("kind", n.Kind); err != nil {
			return err
		}
		if n.Min <= 0 || n.Min != n.Min || n.Min > maxQuantity {
			return fmt.Errorf("query: holds threshold must be in (0, %g], got %v", float64(maxQuantity), n.Min)
		}
		switch n.Mode {
		case "", "always", "eventually":
		default:
			return fmt.Errorf("query: holds mode must be always or eventually, got %q", n.Mode)
		}
		switch {
		case n.Next != 0 && (n.From != 0 || n.To != 0):
			return fmt.Errorf("query: holds window is either next N or from A to B, not both")
		case n.Next < 0:
			return fmt.Errorf("query: holds next must be positive, got %d", n.Next)
		case n.From < 0 || n.To < 0 || (n.To != 0 && n.To <= n.From) || (n.From != 0 && n.To == 0):
			return fmt.Errorf("query: holds window [%d,%d) is not a valid interval", n.From, n.To)
		}
		locs[resource.Location(n.Loc)] = true
		if n.Dst != "" {
			locs[resource.Location(n.Dst)] = true
		}
		return nil
	case "feasible":
		if err := checkName("job", n.Job); err != nil {
			return err
		}
		if n.Before < 0 {
			return fmt.Errorf("query: feasible deadline must be positive, got %d", n.Before)
		}
		names[n.Job] = true
		return nil
	case "allen":
		if _, ok := allenRelations[n.Rel]; !ok {
			return fmt.Errorf("query: unknown Allen relation %q", n.Rel)
		}
		for _, ref := range []*Ref{n.A, n.B} {
			if ref == nil {
				return fmt.Errorf("query: %s needs two interval refs", n.Rel)
			}
			if ref.Job != "" {
				if ref.From != 0 || ref.To != 0 {
					return fmt.Errorf("query: ref is either a job or a window, not both")
				}
				if err := checkName("job", ref.Job); err != nil {
					return err
				}
				names[ref.Job] = true
			} else if ref.From < 0 || ref.To <= ref.From {
				return fmt.Errorf("query: window [%d,%d) is not a valid interval", ref.From, ref.To)
			}
		}
		return nil
	default:
		return fmt.Errorf("query: unknown operator %q", n.Op)
	}
}

// checkName bounds identifier fields: job names, locations and kinds all
// travel inside resource-set literals elsewhere, so keep them to the
// same safe charset.
func checkName(what, s string) error {
	if s == "" || len(s) > 256 {
		return fmt.Errorf("query: %s must be 1..256 bytes", what)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '-' || r == '.' || r == '#':
		default:
			return fmt.Errorf("query: %s %q contains %q", what, s, r)
		}
	}
	return nil
}

// render produces the canonical text form; it is the inverse of
// ParseText up to formatting.
func render(n *Node) string {
	switch n.Op {
	case "true", "false":
		return n.Op
	case "not":
		return "not " + renderChild(n.Args[0])
	case "and", "or":
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = renderChild(a)
		}
		return strings.Join(parts, " "+n.Op+" ")
	case "holds":
		var b strings.Builder
		b.WriteString("holds(")
		b.WriteString(n.Loc)
		if n.Dst != "" {
			b.WriteString(">")
			b.WriteString(n.Dst)
		}
		fmt.Fprintf(&b, ", %s>=%s", n.Kind, strconv.FormatFloat(n.Min, 'f', -1, 64))
		if n.Mode != "" {
			b.WriteString(", ")
			b.WriteString(n.Mode)
		}
		switch {
		case n.Next > 0:
			fmt.Fprintf(&b, ", next %d", n.Next)
		case n.To > 0:
			fmt.Fprintf(&b, ", from %d to %d", n.From, n.To)
		}
		b.WriteString(")")
		return b.String()
	case "feasible":
		if n.Before > 0 {
			return fmt.Sprintf("feasible(%s, before %d)", n.Job, n.Before)
		}
		return fmt.Sprintf("feasible(%s)", n.Job)
	case "allen":
		return fmt.Sprintf("%s(%s, %s)", n.Rel, renderRef(n.A), renderRef(n.B))
	default:
		return "?"
	}
}

// renderChild parenthesizes composite children so the rendering
// round-trips without relying on precedence.
func renderChild(n *Node) string {
	switch n.Op {
	case "and", "or":
		return "(" + render(n) + ")"
	default:
		return render(n)
	}
}

func renderRef(r *Ref) string {
	if r.Job != "" {
		return r.Job
	}
	return fmt.Sprintf("window(%d, %d)", r.From, r.To)
}

// Tokenizer. Identifiers take letters, digits, '_', '-', '.', '#';
// numbers are unsigned integers or decimals; everything else is a
// single- or two-byte symbol.
type token struct {
	kind byte // 'i' ident, 'n' number, 's' symbol, 'e' error
	text string
}

func tokenize(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			i++
		case ch >= '0' && ch <= '9':
			j := i
			dots := 0
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				if src[j] == '.' {
					dots++
				}
				j++
			}
			if dots > 1 {
				toks = append(toks, token{kind: 'e', text: src[i:j]})
			} else {
				toks = append(toks, token{kind: 'n', text: src[i:j]})
			}
			i = j
		case isIdentByte(ch):
			j := i
			for j < len(src) && (isIdentByte(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{kind: 'i', text: src[i:j]})
			i = j
		case ch == '>' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, token{kind: 's', text: ">="})
			i += 2
		case ch == '(' || ch == ')' || ch == ',' || ch == '>' || ch == '!' || ch == '&' || ch == '|':
			toks = append(toks, token{kind: 's', text: string(ch)})
			i++
		default:
			toks = append(toks, token{kind: 'e', text: string(ch)})
			i++
		}
	}
	return toks
}

func isIdentByte(ch byte) bool {
	return ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' ||
		ch == '_' || ch == '-' || ch == '.' || ch == '#'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return "<end>"
	}
	return p.toks[p.pos].text
}

func (p *parser) accept(kind byte, text string) bool {
	if p.eof() || p.toks[p.pos].kind != kind || p.toks[p.pos].text != text {
		return false
	}
	p.pos++
	return true
}

func (p *parser) expect(kind byte, text string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("query: expected %q, got %q", text, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.eof() || p.toks[p.pos].kind != 'i' {
		return "", fmt.Errorf("query: expected a name, got %q", p.peek())
	}
	s := p.toks[p.pos].text
	p.pos++
	return s, nil
}

func (p *parser) number() (int64, error) {
	if p.eof() || p.toks[p.pos].kind != 'n' {
		return 0, fmt.Errorf("query: expected a number, got %q", p.peek())
	}
	n, err := strconv.ParseInt(p.toks[p.pos].text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad number %q: %w", p.toks[p.pos].text, err)
	}
	p.pos++
	return n, nil
}

func (p *parser) parseExpr(depth int) (*Node, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("query: nesting exceeds %d levels", maxDepth)
	}
	left, err := p.parseTerm(depth + 1)
	if err != nil {
		return nil, err
	}
	args := []*Node{left}
	for p.accept('i', "or") || p.accept('s', "|") {
		right, err := p.parseTerm(depth + 1)
		if err != nil {
			return nil, err
		}
		args = append(args, right)
	}
	if len(args) == 1 {
		return left, nil
	}
	return &Node{Op: "or", Args: args}, nil
}

func (p *parser) parseTerm(depth int) (*Node, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("query: nesting exceeds %d levels", maxDepth)
	}
	left, err := p.parseFactor(depth + 1)
	if err != nil {
		return nil, err
	}
	args := []*Node{left}
	for p.accept('i', "and") || p.accept('s', "&") {
		right, err := p.parseFactor(depth + 1)
		if err != nil {
			return nil, err
		}
		args = append(args, right)
	}
	if len(args) == 1 {
		return left, nil
	}
	return &Node{Op: "and", Args: args}, nil
}

func (p *parser) parseFactor(depth int) (*Node, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("query: nesting exceeds %d levels", maxDepth)
	}
	if p.accept('i', "not") || p.accept('s', "!") {
		inner, err := p.parseFactor(depth + 1)
		if err != nil {
			return nil, err
		}
		return &Node{Op: "not", Args: []*Node{inner}}, nil
	}
	return p.parsePrimary(depth + 1)
}

func (p *parser) parsePrimary(depth int) (*Node, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("query: nesting exceeds %d levels", maxDepth)
	}
	switch {
	case p.accept('i', "true"):
		return &Node{Op: "true"}, nil
	case p.accept('i', "false"):
		return &Node{Op: "false"}, nil
	case p.accept('s', "("):
		inner, err := p.parseExpr(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect('s', ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.accept('i', "holds"):
		return p.parseHolds()
	case p.accept('i', "feasible"):
		return p.parseFeasible()
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	rel := strings.ReplaceAll(name, "_", "-")
	if _, ok := allenRelations[rel]; !ok {
		return nil, fmt.Errorf("query: unknown atom or Allen relation %q", name)
	}
	return p.parseAllen(rel)
}

func (p *parser) parseHolds() (*Node, error) {
	n := &Node{Op: "holds"}
	if err := p.expect('s', "("); err != nil {
		return nil, err
	}
	loc, err := p.ident()
	if err != nil {
		return nil, err
	}
	n.Loc = loc
	if p.accept('s', ">") {
		dst, err := p.ident()
		if err != nil {
			return nil, err
		}
		n.Dst = dst
	}
	if err := p.expect('s', ","); err != nil {
		return nil, err
	}
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	n.Kind = kind
	if err := p.expect('s', ">="); err != nil {
		return nil, err
	}
	if p.eof() || p.toks[p.pos].kind != 'n' {
		return nil, fmt.Errorf("query: expected a quantity, got %q", p.peek())
	}
	qty, err := strconv.ParseFloat(p.toks[p.pos].text, 64)
	if err != nil {
		return nil, fmt.Errorf("query: bad quantity %q: %w", p.toks[p.pos].text, err)
	}
	p.pos++
	n.Min = qty
	for p.accept('s', ",") {
		switch {
		case p.accept('i', "always"):
			n.Mode = "always"
		case p.accept('i', "eventually"):
			n.Mode = "eventually"
		case p.accept('i', "next"), p.accept('i', "within"):
			ticks, err := p.number()
			if err != nil {
				return nil, err
			}
			n.Next = ticks
		case p.accept('i', "from"):
			from, err := p.number()
			if err != nil {
				return nil, err
			}
			if err := p.expect('i', "to"); err != nil {
				return nil, err
			}
			to, err := p.number()
			if err != nil {
				return nil, err
			}
			n.From, n.To = from, to
		default:
			return nil, fmt.Errorf("query: unknown holds option %q", p.peek())
		}
	}
	if err := p.expect('s', ")"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseFeasible() (*Node, error) {
	n := &Node{Op: "feasible"}
	if err := p.expect('s', "("); err != nil {
		return nil, err
	}
	job, err := p.ident()
	if err != nil {
		return nil, err
	}
	n.Job = job
	if p.accept('s', ",") {
		if err := p.expect('i', "before"); err != nil {
			return nil, err
		}
		if !p.accept('i', "deadline") {
			tick, err := p.number()
			if err != nil {
				return nil, err
			}
			n.Before = tick
		}
	}
	if err := p.expect('s', ")"); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *parser) parseAllen(rel string) (*Node, error) {
	n := &Node{Op: "allen", Rel: rel}
	if err := p.expect('s', "("); err != nil {
		return nil, err
	}
	a, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if err := p.expect('s', ","); err != nil {
		return nil, err
	}
	b, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if err := p.expect('s', ")"); err != nil {
		return nil, err
	}
	n.A, n.B = a, b
	return n, nil
}

func (p *parser) parseRef() (*Ref, error) {
	if p.accept('i', "window") {
		if err := p.expect('s', "("); err != nil {
			return nil, err
		}
		from, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect('s', ","); err != nil {
			return nil, err
		}
		to, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect('s', ")"); err != nil {
			return nil, err
		}
		return &Ref{From: from, To: to}, nil
	}
	job, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &Ref{Job: job}, nil
}
