package query

import (
	"context"
	"strings"
	"testing"

	"grove/internal/obs"
)

func TestParsePathQuery(t *testing.T) {
	st, err := Parse("[A,D,E]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != nil {
		t.Fatal("path query parsed as aggregation")
	}
	leaf, ok := st.Expr.(Leaf)
	if !ok {
		t.Fatalf("Expr = %T", st.Expr)
	}
	if !leaf.Q.G.HasEdge("A", "D") || !leaf.Q.G.HasEdge("D", "E") {
		t.Errorf("parsed edges: %v", leaf.Q.G.Elements())
	}
}

func TestParseBooleanOps(t *testing.T) {
	cases := map[string]string{
		"[A,B] AND [C,D]":            "({[A,B]} AND {[C,D]})",
		"[A,B] OR [C,D]":             "({[A,B]} OR {[C,D]})",
		"[A,B] AND NOT [C,D]":        "({[A,B]} AND NOT {[C,D]})",
		"[A,B] AND [C,D] AND [E,F]":  "({[A,B]} AND {[C,D]} AND {[E,F]})",
		"([A,B] OR [C,D]) AND [E,F]": "(({[A,B]} OR {[C,D]}) AND {[E,F]})",
		"[A,B] and not [C,D]":        "({[A,B]} AND NOT {[C,D]})", // case-insensitive
		"{[A,B,C] [X]} OR [C,D]":     "({[A,B] [B,C] [X]} OR {[C,D]})",
		// A parenthesized AND stays one operand, as String renders it.
		"([A,B] AND [C,D]) AND [E,F]": "(({[A,B]} AND {[C,D]}) AND {[E,F]})",
	}
	for input, want := range cases {
		st, err := Parse(input)
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		if got := st.Expr.String(); got != want {
			t.Errorf("Parse(%q) = %s, want %s", input, got, want)
		}
	}
}

func TestParseAggregation(t *testing.T) {
	st, err := Parse("SUM [A,D,E,G,I]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg == nil {
		t.Fatal("aggregation parsed as expression")
	}
	if st.Agg.Agg.Name != "SUM" || st.Agg.Measure != "" {
		t.Errorf("Agg = %+v", st.Agg)
	}
	if st.Agg.G.NumElements() != 4 {
		t.Errorf("path edges = %d", st.Agg.G.NumElements())
	}
}

func TestParseAggregationWithMeasure(t *testing.T) {
	st, err := Parse("max<cost> [C,H]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg == nil || st.Agg.Agg.Name != "MAX" || st.Agg.Measure != "cost" {
		t.Fatalf("Agg = %+v", st.Agg)
	}
}

func TestParseNodeNameCharacters(t *testing.T) {
	st, err := Parse("[Received#2,n_1.a-b]")
	if err != nil {
		t.Fatal(err)
	}
	leaf := st.Expr.(Leaf)
	if !leaf.Q.G.HasEdge("Received#2", "n_1.a-b") {
		t.Errorf("edges = %v", leaf.Q.G.Elements())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"[A]",                    // single node
		"[A,B",                   // unclosed path
		"A,B]",                   // missing open bracket
		"[A,B] AND",              // dangling operator
		"[A,B] [C,D]",            // juxtaposition
		"([A,B]",                 // unclosed paren
		"[A,B] XOR [C,D]",        // unknown operator
		"SUM",                    // aggregation without path
		"SUM<cost [A,B]",         // unclosed measure
		"SUM<> [A,B]",            // empty measure
		"[A,B,A]",                // repeated node
		"[A;B]",                  // bad rune
		"[A,B] AND NOT",          // dangling NOT
		"MEDIAN2 [A,B] ]",        // trailing token after expr
		"SUM [A,B] [C,D]",        // trailing path after agg
		"{}",                     // empty graph literal
		"{[A,A]}",                // a node is written [A]
		"{[A,B] (C,D)}",          // open element in a graph literal
		"[A,B)",                  // open end outside an aggregation
		"SUM (A,B] ALONG [A,B]",  // open target and ALONG
		"SUM [A,B] ALONG",        // ALONG without a path
		"SUM [A,B] ALONG [A]",    // ALONG path of one node
		"SCALAR [A,B]",           // scalar marker without a function
		"SUM SCALAR [A,B]",       // scalar marker after the function
		"SUM [A,B] ALONG [A,B],", // dangling comma
	}
	for _, input := range cases {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) accepted", input)
		}
	}
}

func TestParseEvalEndToEnd(t *testing.T) {
	f := newFig2Fixture(t)
	st, err := Parse("[A,D,E] AND NOT [E,F]")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := evalExpr(context.Background(), f.eng, st.Expr)
	if err != nil {
		t.Fatal(err)
	}
	// All three records contain (A,D),(D,E); r2, r3 contain (E,F) → r1 only.
	if got := ids.ToSlice(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("answer = %v, want [0]", got)
	}

	agg, err := Parse("SUM [A,C,E,F]")
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.eng.ExecutePathAggQueryContext(context.Background(), agg.Agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecordIDs) != 1 || res.Values[0][0] != 7 {
		t.Fatalf("SUM result = %v / %v", res.RecordIDs, res.Values)
	}
}

func TestParseKeywordsNotNodes(t *testing.T) {
	// AND/OR inside a path are node names (paths are bracketed), outside
	// they are operators.
	st, err := Parse("[AND,OR]")
	if err != nil {
		t.Fatal(err)
	}
	leaf := st.Expr.(Leaf)
	if !leaf.Q.G.HasEdge("AND", "OR") {
		t.Errorf("edges = %v", leaf.Q.G.Elements())
	}
	if _, err := Parse(strings.Repeat("[A,B] AND ", 3) + "[C,D]"); err != nil {
		t.Errorf("chained ANDs rejected: %v", err)
	}
}

func TestParseGraphLiteral(t *testing.T) {
	st, err := Parse("{[X] [A,B,C] [C,D]}")
	if err != nil {
		t.Fatal(err)
	}
	g := st.Expr.(Leaf).Q.G
	if g.NumElements() != 4 || !g.HasNode("X") || !g.HasEdge("A", "B") ||
		!g.HasEdge("B", "C") || !g.HasEdge("C", "D") {
		t.Errorf("elements = %v", g.Elements())
	}
	if got := st.String(); got != "{[A,B] [B,C] [C,D] [X]}" {
		t.Errorf("String = %s", got)
	}
}

func TestParseOpenPaths(t *testing.T) {
	cases := map[string][2]bool{ // OpenStart, OpenEnd
		"SUM (D,E,G]": {true, false},
		"SUM [D,E,G)": {false, true},
		"SUM (D,E,G)": {true, true},
	}
	for input, open := range cases {
		st, err := Parse(input)
		if err != nil {
			t.Fatalf("Parse(%q): %v", input, err)
		}
		q := st.Agg
		if len(q.Paths) != 1 || q.Paths[0].OpenStart != open[0] || q.Paths[0].OpenEnd != open[1] ||
			q.G.NumElements() != 2 {
			t.Errorf("Parse(%q) = %+v", input, q)
		}
		if want := "SUM {[D,E] [E,G]} ALONG " + q.Paths[0].String(); q.String() != want {
			t.Errorf("Parse(%q).String() = %s, want %s", input, q, want)
		}
	}
	// A closed target aggregates along the graph's maximal paths.
	st, err := Parse("SUM [D,E,G]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg.Paths != nil {
		t.Errorf("closed target named explicit paths %v", st.Agg.Paths)
	}
	st, err = Parse("min<cost> {[A,B] [A,C]} ALONG [A,B), (A,C]")
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Agg; q.Measure != "cost" || len(q.Paths) != 2 || !q.Paths[0].OpenEnd || !q.Paths[1].OpenStart {
		t.Errorf("ALONG = %+v", q)
	}
}

func TestParseScalar(t *testing.T) {
	st, err := Parse("scalar max<cost> [C,H]")
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Agg; !q.Scalar || q.Agg.Name != "MAX" || q.Measure != "cost" {
		t.Fatalf("Agg = %+v", q)
	}
	if got := st.String(); got != "SCALAR MAX<cost> {[C,H]}" {
		t.Errorf("String = %s", got)
	}
	if st.Kind() != obs.KindPathAgg {
		t.Errorf("Kind = %s", st.Kind())
	}
}
