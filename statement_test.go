package grove

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"grove/internal/query"
)

// The helpers below run one statement through Store.Execute and unwrap its
// answer, for tests that check what a query returns rather than how it was
// asked.

func aggOn(st *Store, g *Graph, f AggFunc, measure string) (*AggResult, error) {
	res, err := st.Execute(context.Background(), AggregateOn(g, f, measure))
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

func aggAlong(st *Store, f AggFunc, p Path, measure string) (*AggResult, error) {
	res, err := st.Execute(context.Background(), AggregateAlong(f, p, measure))
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

func scalarOf(st *Store, g *Graph, f AggFunc) (*ScalarAggResult, error) {
	res, err := st.Execute(context.Background(), Scalar(AggregateOn(g, f, "")))
	if err != nil {
		return nil, err
	}
	return res.Scalar, nil
}

func evalExpr(st *Store, e Expr) (*Bitmap, error) {
	res, err := st.Execute(context.Background(), Find(e))
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

func queryText(st *Store, text string) (*QueryResult, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return st.Execute(context.Background(), stmt)
}

// TestBuildersRoundTrip takes every statement builder through String and
// Parse and back: the text parses to an equal statement — elements,
// function, measure, paths with their open flags, scalar flag and boolean
// structure — and renders the same text again.
func TestBuildersRoundTrip(t *testing.T) {
	branching := NewGraph()
	branching.AddEdge("A", "B")
	branching.AddEdge("A", "C")
	branching.AddNode("X")
	halfOpen := Path{Nodes: []string{"D", "E", "G"}, OpenStart: true}
	for _, st := range []Statement{
		Find(Q(branching)),
		Find(QPath("A", "D", "E")),
		Find(And(QPath("A", "D"), Q(branching), QPath("E", "G"))),
		Find(Or(QPath("C", "H"), And(QPath("A", "B"), QPath("B", "F")))),
		Find(AndNot(Or(QPath("C", "H"), QPath("F", "J", "K")), QPath("E", "G"))),
		Find(And(And(QPath("A", "B"), QPath("C", "D")), QPath("E", "F"))),
		AggregateOn(PathOf("A", "D", "E").ToGraph(), Sum, ""),
		AggregateOn(branching, Count, "cost"),
		AggregateAlong(Min, OpenPath("A", "D", "E"), ""),
		AggregateAlong(Max, halfOpen, "time"),
		AggregateAlong(Sum, PathOf("A", "D"), ""),
		Scalar(AggregateOn(branching, Max, "")),
		Scalar(AggregateAlong(Sum, halfOpen, "cost")),
	} {
		text := st.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", text, err)
		}
		if err := statementsDiffer(st, back); err != nil {
			t.Errorf("%s parses to another statement: %v", text, err)
		}
		if again := back.String(); again != text {
			t.Errorf("%s renders as %s after a round trip", text, again)
		}
	}
	if st := Scalar(Find(QPath("A", "B"))); st.Agg != nil {
		t.Errorf("Scalar of a graph statement = %s", st)
	}
}

// statementsDiffer reports how two statements differ, or nil when they are
// equal.
func statementsDiffer(a, b Statement) error {
	if (a.Agg == nil) != (b.Agg == nil) {
		return fmt.Errorf("one is a path aggregation, the other is not")
	}
	if a.Agg == nil {
		return exprsDiffer(a.Expr, b.Expr)
	}
	qa, qb := a.Agg, b.Agg
	if qa.Agg.Name != qb.Agg.Name || qa.Measure != qb.Measure || qa.Scalar != qb.Scalar ||
		!slices.Equal(qa.G.Elements(), qb.G.Elements()) ||
		!slices.EqualFunc(qa.Paths, qb.Paths, func(p, q Path) bool {
			return p.OpenStart == q.OpenStart && p.OpenEnd == q.OpenEnd && slices.Equal(p.Nodes, q.Nodes)
		}) {
		return fmt.Errorf("%+v vs %+v", qa, qb)
	}
	return nil
}

func exprsDiffer(a, b Expr) error {
	var ops, bops []Expr
	switch x := a.(type) {
	case query.Leaf:
		y, ok := b.(query.Leaf)
		if !ok || !slices.Equal(x.Q.G.Elements(), y.Q.G.Elements()) {
			return fmt.Errorf("leaf %s vs %s", a, b)
		}
		return nil
	case query.And:
		y, ok := b.(query.And)
		if !ok {
			return fmt.Errorf("AND %s vs %s", a, b)
		}
		ops, bops = x.Operands, y.Operands
	case query.Or:
		y, ok := b.(query.Or)
		if !ok {
			return fmt.Errorf("OR %s vs %s", a, b)
		}
		ops, bops = x.Operands, y.Operands
	case query.Diff:
		y, ok := b.(query.Diff)
		if !ok {
			return fmt.Errorf("AND NOT %s vs %s", a, b)
		}
		ops, bops = []Expr{x.A, x.B}, []Expr{y.A, y.B}
	}
	if len(ops) != len(bops) {
		return fmt.Errorf("%s vs %s", a, b)
	}
	for i := range ops {
		if err := exprsDiffer(ops[i], bops[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestExecuteMatchesShorthands: for every graph of loadSCMOrders, on one and
// three shards, Execute answers as the Match and Aggregate shorthands do, bit
// for bit, and a scalar statement equals the fold of its rows.
func TestExecuteMatchesShorthands(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		st := NewSharded(shards)
		loadSCMOrders(t, st)
		for _, o := range scmOrders {
			g := NewGraph()
			for _, leg := range o.legs {
				g.AddEdge(leg[0], leg[1])
			}
			label := fmt.Sprintf("shards=%d %s", shards, Find(Q(g)))
			m, err := st.Match(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Execute(ctx, Find(Q(g)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.IDs.Equals(m.Answer) {
				t.Fatalf("%s: Execute %v, Match %v", label, res.IDs.ToSlice(), m.Answer.ToSlice())
			}
			for _, f := range []AggFunc{Sum, Min, Max, Count} {
				rows, err := st.Aggregate(g, f)
				if err != nil {
					t.Fatal(err)
				}
				res, err := st.Execute(ctx, AggregateOn(g, f, ""))
				if err != nil {
					t.Fatal(err)
				}
				assertSameAgg(t, label+" "+f.Name, rows, res.Agg)
				sc, err := st.Execute(ctx, Scalar(AggregateOn(g, f, "")))
				if err != nil {
					t.Fatal(err)
				}
				want := rows.Scalar()
				if got := sc.Scalar; got.Records != want.Records ||
					math.Float64bits(got.Value) != math.Float64bits(want.Value) {
					t.Fatalf("%s %s scalar = %v over %d records, rows fold to %v over %d",
						label, f.Name, got.Value, got.Records, want.Value, want.Records)
				}
			}
		}
	}
}
