// Package grammar implements EBNF-driven constrained decoding: parse an
// EBNF grammar, compile it to a recursive transition network over bytes,
// and maintain a nondeterministic state set that answers "which tokens may
// come next" — the mechanism behind structured generation (§7.3; the paper
// integrates the llguidance Rust library as a Wasm dependency, this
// package is the equivalent substrate built from scratch).
//
// Supported EBNF:
//
//	rule   = alternation ";"
//	alternation = concat { "|" concat }
//	concat = term { term }
//	term   = '"lit"' | "'lit'" | ident | "(" alt ")" | "[" alt "]"
//	       | "{" alt "}" | '"a"' ".." '"z"'      (single-char range)
//	(* comments *)
//
// Left recursion is rejected at compile time (it would loop the matcher).
package grammar

import (
	"fmt"
	"strings"
)

// --- AST -------------------------------------------------------------------

type expr interface{ String() string }

type litExpr struct{ s string }
type rangeExpr struct{ lo, hi byte }
type refExpr struct{ name string }
type seqExpr struct{ items []expr }
type altExpr struct{ opts []expr }
type optExpr struct{ e expr }
type repExpr struct{ e expr }

func (e litExpr) String() string   { return fmt.Sprintf("%q", e.s) }
func (e rangeExpr) String() string { return fmt.Sprintf("%q..%q", e.lo, e.hi) }
func (e refExpr) String() string   { return e.name }
func (e seqExpr) String() string {
	parts := make([]string, len(e.items))
	for i, it := range e.items {
		parts[i] = it.String()
	}
	return strings.Join(parts, " ")
}
func (e altExpr) String() string {
	parts := make([]string, len(e.opts))
	for i, o := range e.opts {
		parts[i] = o.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}
func (e optExpr) String() string { return "[" + e.e.String() + "]" }
func (e repExpr) String() string { return "{" + e.e.String() + "}" }

// Grammar is a parsed, validated EBNF grammar.
type Grammar struct {
	rules map[string]expr
	order []string
}

// Rules lists rule names in definition order.
func (g *Grammar) Rules() []string { return append([]string(nil), g.order...) }

// --- Parser ------------------------------------------------------------------

type parser struct {
	src []byte
	pos int
}

// Parse compiles EBNF source text into a Grammar.
func Parse(src string) (*Grammar, error) {
	p := &parser{src: []byte(src)}
	g := &Grammar{rules: make(map[string]expr)}
	for {
		p.ws()
		if p.eof() {
			break
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !p.eat('=') {
			return nil, p.errf("expected '=' after rule name %q", name)
		}
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !p.eat(';') {
			return nil, p.errf("expected ';' terminating rule %q", name)
		}
		if _, dup := g.rules[name]; dup {
			return nil, fmt.Errorf("grammar: duplicate rule %q", name)
		}
		g.rules[name] = e
		g.order = append(g.order, name)
	}
	if len(g.order) == 0 {
		return nil, fmt.Errorf("grammar: no rules")
	}
	// Validate references and reject left recursion.
	for _, name := range g.order {
		if err := g.checkRefs(g.rules[name]); err != nil {
			return nil, fmt.Errorf("grammar: rule %q: %w", name, err)
		}
	}
	if err := g.checkLeftRecursion(); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) ws() {
	for !p.eof() {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == '(' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*' {
			end := strings.Index(string(p.src[p.pos+2:]), "*)")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 4
			continue
		}
		return
	}
}

func (p *parser) eat(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("grammar: at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) ident() (string, error) {
	start := p.pos
	for !p.eof() && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return string(p.src[start:p.pos]), nil
}

func (p *parser) alternation() (expr, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	opts := []expr{first}
	for {
		p.ws()
		if !p.eat('|') {
			break
		}
		e, err := p.concat()
		if err != nil {
			return nil, err
		}
		opts = append(opts, e)
	}
	if len(opts) == 1 {
		return opts[0], nil
	}
	return altExpr{opts: opts}, nil
}

func (p *parser) concat() (expr, error) {
	var items []expr
	for {
		p.ws()
		c := p.peek()
		if c == 0 || c == ';' || c == '|' || c == ')' || c == ']' || c == '}' {
			break
		}
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		items = append(items, t)
	}
	if len(items) == 0 {
		return seqExpr{}, nil // epsilon
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return seqExpr{items: items}, nil
}

func (p *parser) term() (expr, error) {
	p.ws()
	switch c := p.peek(); {
	case c == '"' || c == '\'':
		s, err := p.quoted(c)
		if err != nil {
			return nil, err
		}
		// Possible range: "a" .. "z"
		p.ws()
		if strings.HasPrefix(string(p.src[p.pos:]), "..") {
			p.pos += 2
			p.ws()
			q := p.peek()
			if q != '"' && q != '\'' {
				return nil, p.errf("expected quoted upper bound after '..'")
			}
			hi, err := p.quoted(q)
			if err != nil {
				return nil, err
			}
			if len(s) != 1 || len(hi) != 1 {
				return nil, p.errf("range bounds must be single characters")
			}
			if s[0] > hi[0] {
				return nil, p.errf("inverted range %q..%q", s, hi)
			}
			return rangeExpr{lo: s[0], hi: hi[0]}, nil
		}
		return litExpr{s: s}, nil
	case c == '(':
		p.pos++
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !p.eat(')') {
			return nil, p.errf("expected ')'")
		}
		return e, nil
	case c == '[':
		p.pos++
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !p.eat(']') {
			return nil, p.errf("expected ']'")
		}
		return optExpr{e: e}, nil
	case c == '{':
		p.pos++
		e, err := p.alternation()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !p.eat('}') {
			return nil, p.errf("expected '}'")
		}
		return repExpr{e: e}, nil
	case isIdentByte(c):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return refExpr{name: name}, nil
	}
	return nil, p.errf("unexpected character %q", p.peek())
}

func (p *parser) quoted(q byte) (string, error) {
	if !p.eat(q) {
		return "", p.errf("expected quote")
	}
	var out []byte
	for {
		if p.eof() {
			return "", p.errf("unterminated literal")
		}
		c := p.src[p.pos]
		p.pos++
		if c == q {
			return string(out), nil
		}
		if c == '\\' && !p.eof() {
			n := p.src[p.pos]
			p.pos++
			switch n {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case '\\', '"', '\'':
				out = append(out, n)
			default:
				return "", p.errf("unknown escape \\%c", n)
			}
			continue
		}
		out = append(out, c)
	}
}

func (g *Grammar) checkRefs(e expr) error {
	switch t := e.(type) {
	case refExpr:
		if _, ok := g.rules[t.name]; !ok {
			return fmt.Errorf("undefined rule %q", t.name)
		}
	case seqExpr:
		for _, it := range t.items {
			if err := g.checkRefs(it); err != nil {
				return err
			}
		}
	case altExpr:
		for _, o := range t.opts {
			if err := g.checkRefs(o); err != nil {
				return err
			}
		}
	case optExpr:
		return g.checkRefs(t.e)
	case repExpr:
		return g.checkRefs(t.e)
	}
	return nil
}

// nullable reports whether e can match the empty string.
func (g *Grammar) nullable(e expr, seen map[string]bool) bool {
	switch t := e.(type) {
	case litExpr:
		return len(t.s) == 0
	case rangeExpr:
		return false
	case refExpr:
		if seen[t.name] {
			return false
		}
		seen[t.name] = true
		defer delete(seen, t.name)
		return g.nullable(g.rules[t.name], seen)
	case seqExpr:
		for _, it := range t.items {
			if !g.nullable(it, seen) {
				return false
			}
		}
		return true
	case altExpr:
		for _, o := range t.opts {
			if g.nullable(o, seen) {
				return true
			}
		}
		return false
	case optExpr, repExpr:
		return true
	}
	return false
}

// checkLeftRecursion rejects rules that can re-enter themselves without
// consuming a byte.
func (g *Grammar) checkLeftRecursion() error {
	for _, name := range g.order {
		if g.leftCalls(g.rules[name], name, map[string]bool{name: true}) {
			return fmt.Errorf("grammar: rule %q is left-recursive", name)
		}
	}
	return nil
}

// leftCalls reports whether e can call target at its left edge.
func (g *Grammar) leftCalls(e expr, target string, visiting map[string]bool) bool {
	switch t := e.(type) {
	case refExpr:
		if t.name == target {
			return true
		}
		if visiting[t.name] {
			return false
		}
		visiting[t.name] = true
		defer delete(visiting, t.name)
		return g.leftCalls(g.rules[t.name], target, visiting)
	case seqExpr:
		for _, it := range t.items {
			if g.leftCalls(it, target, visiting) {
				return true
			}
			if !g.nullable(it, map[string]bool{}) {
				return false
			}
		}
		return false
	case altExpr:
		for _, o := range t.opts {
			if g.leftCalls(o, target, visiting) {
				return true
			}
		}
		return false
	case optExpr:
		return g.leftCalls(t.e, target, visiting)
	case repExpr:
		return g.leftCalls(t.e, target, visiting)
	}
	return false
}
