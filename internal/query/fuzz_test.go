package query

import (
	"fmt"
	"slices"
	"testing"

	"grove/internal/gpath"
)

// FuzzParse checks that the parser never panics, that a parsed statement is
// well-formed (exactly one of Expr/Agg set), and that every accepted
// statement renders to text that parses back to an equal statement.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"[A,B]",
		"[A,B] AND [C,D]",
		"[A,B] AND NOT ([C,D] OR [E,F])",
		"SUM [A,B,C]",
		"MAX<cost> [C,H]",
		"sum [a#2,b.c]",
		"[A,B] XOR",
		"((((",
		"SUM<",
		"[,]",
		// Graph literals: nodes, edges and closed paths, in any order.
		"{[X] [A,B]}",
		"{[A,B,C] [C,D]} AND NOT {[Y]}",
		"COUNT {[A,B] [A,C] [B]}",
		// Open endpoints (§3.3), as a target and after ALONG.
		"SUM (D,E,G]",
		"MIN [D,E,G)",
		"MAX<cost> (C,H)",
		"SUM {[A,B] [B,C] [A,D]} ALONG (A,B,C], [A,D)",
		// The scalar marker.
		"SCALAR MIN [A,B]",
		"scalar sum<t> {[A,B] [A,C]}",
		"SCALAR COUNT (A,B) ALONG [A,B]",
		// Nested structure that must survive a round trip.
		"([A,B] AND [C,D]) AND [E,F]",
		"([A,B] OR [C,D]) OR ([E,F] AND NOT [G,H])",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err != nil {
			return
		}
		if (st.Expr == nil) == (st.Agg == nil) {
			t.Fatalf("Parse(%q): exactly one of Expr/Agg must be set", input)
		}
		if st.Agg != nil && st.Agg.G.NumElements() == 0 {
			t.Fatalf("Parse(%q): empty aggregation graph accepted", input)
		}
		text := st.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", input, text, err)
		}
		if err := statementsDiffer(st, back); err != nil {
			t.Fatalf("Parse(%q) renders %q, which parses to another statement: %v", input, text, err)
		}
	})
}

// statementsDiffer reports how two statements differ, or nil when they are
// equal: the same elements, function, measure, paths with their open flags,
// scalar flag and boolean structure.
func statementsDiffer(a, b Statement) error {
	switch {
	case (a.Agg == nil) != (b.Agg == nil):
		return fmt.Errorf("one is a path aggregation, the other is not")
	case a.Agg != nil:
		qa, qb := a.Agg, b.Agg
		if qa.Agg.Name != qb.Agg.Name || qa.Measure != qb.Measure || qa.Scalar != qb.Scalar {
			return fmt.Errorf("function, measure or scalar flag: %s%q%v vs %s%q%v",
				qa.Agg.Name, qa.Measure, qa.Scalar, qb.Agg.Name, qb.Measure, qb.Scalar)
		}
		if !slices.Equal(qa.G.Elements(), qb.G.Elements()) {
			return fmt.Errorf("elements %v vs %v", qa.G.Elements(), qb.G.Elements())
		}
		if !slices.EqualFunc(qa.Paths, qb.Paths, func(p, q gpath.Path) bool {
			return p.OpenStart == q.OpenStart && p.OpenEnd == q.OpenEnd && slices.Equal(p.Nodes, q.Nodes)
		}) {
			return fmt.Errorf("paths %v vs %v", qa.Paths, qb.Paths)
		}
		return nil
	default:
		return exprsDiffer(a.Expr, b.Expr)
	}
}

func exprsDiffer(a, b Expr) error {
	switch x := a.(type) {
	case Leaf:
		y, ok := b.(Leaf)
		if !ok || !slices.Equal(x.Q.G.Elements(), y.Q.G.Elements()) {
			return fmt.Errorf("leaf %s vs %s", a, b)
		}
		return nil
	case And:
		y, ok := b.(And)
		if !ok {
			return fmt.Errorf("AND %s vs %s", a, b)
		}
		return operandsDiffer(x.Operands, y.Operands)
	case Or:
		y, ok := b.(Or)
		if !ok {
			return fmt.Errorf("OR %s vs %s", a, b)
		}
		return operandsDiffer(x.Operands, y.Operands)
	case Diff:
		y, ok := b.(Diff)
		if !ok {
			return fmt.Errorf("AND NOT %s vs %s", a, b)
		}
		return operandsDiffer([]Expr{x.A, x.B}, []Expr{y.A, y.B})
	default:
		return fmt.Errorf("unknown expression %T", a)
	}
}

func operandsDiffer(a, b []Expr) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d operands vs %d", len(a), len(b))
	}
	for i := range a {
		if err := exprsDiffer(a[i], b[i]); err != nil {
			return err
		}
	}
	return nil
}
