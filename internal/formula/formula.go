// Package formula parses a text syntax for ROTA well-formed formulas
// into core.Formula values, so the CLI tools can evaluate temporal
// queries against computation paths.
//
// Grammar (ASCII-friendly; the paper's symbols in comments):
//
//	formula  := or
//	or       := and { "|" and }                     ∨ (extension)
//	and      := unary { "&" unary }                 ∧ (extension)
//	unary    := "!" unary                           ¬
//	          | "<>" unary                          ◇ eventually
//	          | "[]" unary                          □ always
//	          | primary
//	primary  := "true" | "false"
//	          | "(" formula ")"
//	          | atom
//	atom     := "satisfy" "{" amounts "}" "(" t1 "," t2 ")"   simple ρ(γ,s,d)
//	          | "satisfy" "(" ident ")"                       ρ(Λ,s,d) of a named job
//	amounts  := amount { "," amount }
//	amount   := qty ":" kind "@" loc [ ">" loc ]
//
// Examples:
//
//	satisfy{8:cpu@l1}(0,20)
//	<> satisfy{8:cpu@l1, 4:network@l1>l2}(0,20)
//	[] !satisfy(job1)
//	(satisfy(j1) & !satisfy(j2)) | false
//
// Named-job atoms are resolved through the Jobs map supplied at parse
// time (typically the jobs of a scenario file).
package formula

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/resource"
)

// Parse parses a formula. jobs resolves satisfy(<name>) atoms; it may be
// nil when the formula uses only simple atoms.
func Parse(input string, jobs map[string]compute.Distributed) (core.Formula, error) {
	p := &parser{input: input, jobs: jobs}
	p.next()
	f, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after formula", p.tok.text)
	}
	return f, nil
}

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokColon
	tokAt
	tokGT
	tokBang
	tokAmp
	tokPipe
	tokDiamond // <>
	tokBox     // []
	tokInvalid // stray byte
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type parser struct {
	input string
	pos   int
	tok   token
	jobs  map[string]compute.Distributed
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("formula: position %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

// next advances to the next token.
func (p *parser) next() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.input) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.input[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case c == '{':
		p.pos++
		p.tok = token{tokLBrace, "{", start}
	case c == '}':
		p.pos++
		p.tok = token{tokRBrace, "}", start}
	case c == ',':
		p.pos++
		p.tok = token{tokComma, ",", start}
	case c == ':':
		p.pos++
		p.tok = token{tokColon, ":", start}
	case c == '@':
		p.pos++
		p.tok = token{tokAt, "@", start}
	case c == '!':
		p.pos++
		p.tok = token{tokBang, "!", start}
	case c == '&':
		p.pos++
		p.tok = token{tokAmp, "&", start}
	case c == '|':
		p.pos++
		p.tok = token{tokPipe, "|", start}
	case c == '<' && p.pos+1 < len(p.input) && p.input[p.pos+1] == '>':
		p.pos += 2
		p.tok = token{tokDiamond, "<>", start}
	case c == '[' && p.pos+1 < len(p.input) && p.input[p.pos+1] == ']':
		p.pos += 2
		p.tok = token{tokBox, "[]", start}
	case c == '>':
		p.pos++
		p.tok = token{tokGT, ">", start}
	case c == '-' || c >= '0' && c <= '9':
		end := p.pos + 1
		for end < len(p.input) && (p.input[end] >= '0' && p.input[end] <= '9' || p.input[end] == '.') {
			end++
		}
		p.tok = token{tokNumber, p.input[p.pos:end], start}
		p.pos = end
	case isIdentByte(c):
		end := p.pos
		for end < len(p.input) && isIdentByte(p.input[end]) {
			end++
		}
		p.tok = token{tokIdent, p.input[p.pos:end], start}
		p.pos = end
	default:
		p.tok = token{tokInvalid, string(c), start}
		p.pos = len(p.input) // force termination; errors report the stray byte
	}
}

// isIdentByte accepts letters, digits, underscore and dot (hyphens are
// excluded so they read as part of negative numbers, not names).
func isIdentByte(c byte) bool {
	return c == '_' || c == '.' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) expect(kind tokenKind, what string) error {
	if p.tok.kind != kind {
		return p.errorf("expected %s, found %q", what, p.tok.text)
	}
	p.next()
	return nil
}

func (p *parser) parseOr() (core.Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPipe {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = core.Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (core.Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAmp {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = core.And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (core.Formula, error) {
	switch p.tok.kind {
	case tokBang:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return core.Not{F: inner}, nil
	case tokDiamond:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return core.Eventually{F: inner}, nil
	case tokBox:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return core.Always{F: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (core.Formula, error) {
	switch p.tok.kind {
	case tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, `")"`); err != nil {
			return nil, err
		}
		return inner, nil
	case tokIdent:
		switch p.tok.text {
		case "true":
			p.next()
			return core.True{}, nil
		case "false":
			p.next()
			return core.False{}, nil
		case "satisfy":
			p.next()
			return p.parseSatisfy()
		}
		return nil, p.errorf("unknown identifier %q", p.tok.text)
	}
	return nil, p.errorf("expected a formula, found %q", p.tok.text)
}

// parseSatisfy parses the two atom forms after the "satisfy" keyword.
func (p *parser) parseSatisfy() (core.Formula, error) {
	switch p.tok.kind {
	case tokLBrace:
		p.next()
		amounts, err := p.parseAmounts()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace, `"}"`); err != nil {
			return nil, err
		}
		window, err := p.parseWindow()
		if err != nil {
			return nil, err
		}
		return core.SatisfySimple{Req: compute.Simple{Amounts: resource.NeedsOf(amounts), Window: window}}, nil
	case tokLParen:
		p.next()
		if p.tok.kind != tokIdent && p.tok.kind != tokNumber {
			return nil, p.errorf("expected a job name, found %q", p.tok.text)
		}
		name := p.tok.text
		p.next()
		if err := p.expect(tokRParen, `")"`); err != nil {
			return nil, err
		}
		job, ok := p.jobs[name]
		if !ok {
			return nil, p.errorf("unknown job %q", name)
		}
		return core.SatisfyConcurrent{Req: compute.ConcurrentOf(job)}, nil
	}
	return nil, p.errorf(`expected "{" or "(" after satisfy, found %q`, p.tok.text)
}

func (p *parser) parseAmounts() (resource.Amounts, error) {
	amounts := make(resource.Amounts)
	for {
		if p.tok.kind != tokNumber {
			return nil, p.errorf("expected a quantity, found %q", p.tok.text)
		}
		qty, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil || qty < 0 {
			return nil, p.errorf("bad quantity %q", p.tok.text)
		}
		p.next()
		if err := p.expect(tokColon, `":"`); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected a resource kind, found %q", p.tok.text)
		}
		kind := p.tok.text
		p.next()
		if err := p.expect(tokAt, `"@"`); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent && p.tok.kind != tokNumber {
			return nil, p.errorf("expected a location, found %q", p.tok.text)
		}
		loc := p.tok.text
		p.next()
		lt := resource.At(resource.Kind(kind), resource.Location(loc))
		if p.tok.kind == tokGT {
			p.next()
			if p.tok.kind != tokIdent && p.tok.kind != tokNumber {
				return nil, p.errorf("expected a destination, found %q", p.tok.text)
			}
			lt = resource.LocatedType{Kind: resource.Kind(kind), Loc: resource.Location(loc), Dst: resource.Location(p.tok.text)}
			p.next()
		}
		amounts.Add(resource.Amount{
			Qty:  resource.Quantity(qty * float64(resource.Unit)),
			Type: lt,
		})
		if p.tok.kind != tokComma {
			return amounts, nil
		}
		p.next()
	}
}

func (p *parser) parseWindow() (interval.Interval, error) {
	if err := p.expect(tokLParen, `"("`); err != nil {
		return interval.Interval{}, err
	}
	start, err := p.parseTime()
	if err != nil {
		return interval.Interval{}, err
	}
	if err := p.expect(tokComma, `","`); err != nil {
		return interval.Interval{}, err
	}
	end, err := p.parseTime()
	if err != nil {
		return interval.Interval{}, err
	}
	if err := p.expect(tokRParen, `")"`); err != nil {
		return interval.Interval{}, err
	}
	return interval.New(start, end), nil
}

func (p *parser) parseTime() (interval.Time, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected a time, found %q", p.tok.text)
	}
	if strings.Contains(p.tok.text, ".") {
		return 0, p.errorf("times must be integer ticks, found %q", p.tok.text)
	}
	v, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad time %q", p.tok.text)
	}
	p.next()
	return v, nil
}
