package query

import (
	"fmt"
	"strings"
	"unicode"

	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
)

// This file implements grove's text query language, the one written form of
// every statement (§3.2–§3.4): Parse reads it, and Statement.String — through
// GraphQuery, PathAggQuery and Expr — writes it, so a trace, an EXPLAIN, the
// workload log and grovecli all show text that parses back to the statement.
//
//	statement    := aggStatement | expr
//	aggStatement := 'SCALAR'? FUNC measure? target ('ALONG' path (',' path)*)?
//	measure      := '<' name '>'                  e.g. SUM<cost> [C,H]
//	target       := graph | path
//	expr         := orExpr
//	orExpr       := andExpr ('OR' andExpr)*
//	andExpr      := unary (('AND' 'NOT'? ) unary)*
//	unary        := graph | closedPath | '(' expr ')'
//	graph        := '{' element+ '}'              e.g. {[A,D] [D,E] [X]}
//	element      := '[' node (',' node)* ']'      a node [X], an edge [A,D], or a closed path
//	path         := ('['|'(') node (',' node)+ (']'|')')   §3.3: '(' or ')' opens that end
//
// Keywords are case-insensitive; node names are any run of letters, digits,
// '_', '#', '-' or '.'. A target that is an open path aggregates along that
// path alone, as ALONG does.

// Statement is one query: exactly one of Expr (a boolean graph query) or Agg
// (a path aggregation, possibly scalar) is set.
type Statement struct {
	Expr Expr
	Agg  *PathAggQuery
}

// String renders the statement in the text language; Parse reads it back.
func (s Statement) String() string {
	if s.Agg != nil {
		return s.Agg.String()
	}
	if s.Expr == nil {
		return ""
	}
	return s.Expr.String()
}

// Kind is the statement's query class, the label its traces and latency
// histogram carry: obs.KindPathAgg for a path aggregation, obs.KindGraph for
// a graph query or boolean combination of them.
func (s Statement) Kind() string {
	if s.Agg != nil {
		return obs.KindPathAgg
	}
	return obs.KindGraph
}

// Parse parses one statement of the query language.
func Parse(input string) (Statement, error) {
	p := &parser{toks: lex(input)}
	var st Statement
	var err error
	if p.aggAhead() {
		st.Agg, err = p.parseAgg()
	} else {
		st.Expr, err = p.parseOr()
	}
	if err != nil {
		return Statement{}, err
	}
	if err := p.expectEOF(); err != nil {
		return Statement{}, err
	}
	return st, nil
}

// aggAhead reports whether the statement starts with SCALAR or a function
// name: an expression starts with a bracket or a parenthesis.
func (p *parser) aggAhead() bool {
	w, ok := p.peekWord()
	if !ok {
		return false
	}
	_, isAgg := ByName(strings.ToUpper(w))
	return isAgg || strings.EqualFold(w, "SCALAR")
}

func (p *parser) parseAgg() (*PathAggQuery, error) {
	q := &PathAggQuery{Scalar: p.acceptKeyword("SCALAR")}
	w, _ := p.word()
	fn, ok := ByName(strings.ToUpper(w))
	if !ok {
		return nil, p.errorf("expected an aggregate function")
	}
	q.Agg = fn
	if p.accept("<") {
		if q.Measure, ok = p.word(); !ok || !p.accept(">") {
			return nil, p.errorf("expected '<' measure name '>'")
		}
	}
	g, path, err := p.parseTarget(true)
	if err != nil {
		return nil, err
	}
	q.G = g
	if path.OpenStart || path.OpenEnd {
		q.Paths = []gpath.Path{path}
	}
	if !p.acceptKeyword("ALONG") {
		return q, nil
	}
	if q.Paths != nil {
		return nil, p.errorf("an open path target takes no ALONG")
	}
	for {
		path, err := p.parsePath(true)
		if err != nil {
			return nil, err
		}
		q.Paths = append(q.Paths, path)
		if !p.accept(",") {
			return q, nil
		}
	}
}

// --- lexer -------------------------------------------------------------------

type token struct {
	kind string // "word", "[", "]", "(", ")", "{", "}", ",", "<", ">"
	text string
	pos  int
}

func lex(input string) []token {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case strings.ContainsRune("[](){},<>", c):
			toks = append(toks, token{kind: string(c), pos: i})
			i++
		case isNameRune(c):
			j := i
			for j < len(input) && isNameRune(rune(input[j])) {
				j++
			}
			toks = append(toks, token{kind: "word", text: input[i:j], pos: i})
			i = j
		default:
			toks = append(toks, token{kind: "err", text: string(c), pos: i})
			i++
		}
	}
	return toks
}

func isNameRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) ||
		c == '_' || c == '#' || c == '-' || c == '.'
}

// --- parser ------------------------------------------------------------------

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() (token, bool) {
	if p.i >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.i], true
}

func (p *parser) peekWord() (string, bool) {
	t, ok := p.peek()
	if !ok || t.kind != "word" {
		return "", false
	}
	return t.text, true
}

// word consumes the next token and returns its text when it is a word.
func (p *parser) word() (string, bool) {
	w, ok := p.peekWord()
	if ok {
		p.i++
	}
	return w, ok
}

func (p *parser) accept(kind string) bool {
	if t, ok := p.peek(); ok && t.kind == kind {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if w, ok := p.peekWord(); ok && strings.EqualFold(w, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) error {
	pos := -1
	if t, ok := p.peek(); ok {
		pos = t.pos
	}
	return fmt.Errorf("query: parse error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectEOF() error {
	if t, ok := p.peek(); ok {
		return p.errorf("unexpected %q after end of statement", tokenText(t))
	}
	return nil
}

func tokenText(t token) string {
	if t.kind == "word" || t.kind == "err" {
		return t.text
	}
	return t.kind
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	operands := []Expr{left}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		operands = append(operands, right)
	}
	if len(operands) == 1 {
		return left, nil
	}
	return Or{Operands: operands}, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// open is the And this loop built last, which a further AND extends; an
	// And that came out of parentheses stays one operand, so the structure
	// String renders parses back unchanged.
	var open *And
	for p.acceptKeyword("AND") {
		not := p.acceptKeyword("NOT")
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch {
		case not:
			left, open = Diff{A: left, B: right}, nil
		case open != nil:
			open.Operands = append(open.Operands, right)
			left = *open
		default:
			open = &And{Operands: []Expr{left, right}}
			left = *open
		}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.errorf("expected ')'")
		}
		return e, nil
	}
	g, _, err := p.parseTarget(false)
	if err != nil {
		return nil, err
	}
	return Leaf{Q: NewGraphQuery(g)}, nil
}

// parseTarget reads a graph literal, the union of its elements — each a
// node, an edge or a closed path — or a path, which it returns too.
func (p *parser) parseTarget(open bool) (*graph.Graph, gpath.Path, error) {
	if !p.accept("{") {
		path, err := p.parsePath(open)
		return path.ToGraph(), path, err
	}
	g := graph.NewGraph()
	for !p.accept("}") {
		elem, err := p.parseNodes(false)
		if err != nil {
			return nil, gpath.Path{}, err
		}
		if len(elem.Nodes) == 1 {
			g.AddNode(elem.Nodes[0])
		}
		for _, e := range elem.Edges() {
			g.AddElement(e)
		}
	}
	if g.NumElements() == 0 {
		return nil, gpath.Path{}, fmt.Errorf("query: a graph needs at least one element")
	}
	return g, gpath.Path{}, nil
}

// parsePath reads a path of at least two nodes.
func (p *parser) parsePath(open bool) (gpath.Path, error) {
	path, err := p.parseNodes(open)
	if err == nil && len(path.Nodes) < 2 {
		err = fmt.Errorf("query: a path needs at least 2 nodes, got %v", path.Nodes)
	}
	return path, err
}

// parseNodes reads a bracketed list of distinct node names; with open,
// either end may be written '(' or ')' to open it (§3.3).
func (p *parser) parseNodes(open bool) (gpath.Path, error) {
	var path gpath.Path
	if !p.accept("[") {
		if !open || !p.accept("(") {
			return path, p.errorf("expected '[' starting a path")
		}
		path.OpenStart = true
	}
	for {
		w, ok := p.word()
		if !ok {
			return path, p.errorf("expected node name")
		}
		path.Nodes = append(path.Nodes, w)
		if !p.accept(",") {
			break
		}
	}
	if !p.accept("]") {
		if !open || !p.accept(")") {
			return path, p.errorf("expected ']' closing the path")
		}
		path.OpenEnd = true
	}
	if !path.Valid() {
		return path, fmt.Errorf("query: %s repeats a node", path)
	}
	return path, nil
}
