package query

import (
	"context"
	"math/rand"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
)

// The paper's running example (Fig. 2 / Table 1): three graph records over
// seven edges, with the endpoints the figure depicts:
//
//	e1=(A,B) e2=(A,C) e3=(C,E) e4=(A,D) e5=(D,E) e6=(E,F) e7=(F,G)
//
// Record 2 is then the only record containing path (A,C,E,F), whose SUM is
// 1+2+4 = 7 — exactly the §3.4 example — and treating the three records as
// queries yields interesting nodes {A,B,E,G} with the five candidate
// aggregate views listed in §5.4.
var fig2Edges = []graph.EdgeKey{
	graph.E("A", "B"), // e1
	graph.E("A", "C"), // e2
	graph.E("C", "E"), // e3
	graph.E("A", "D"), // e4
	graph.E("D", "E"), // e5
	graph.E("E", "F"), // e6
	graph.E("F", "G"), // e7
}

// fig2Measures[r][i] is the measure of edge e(i+1) in record r (NaN = absent),
// transcribed from Table 1.
var fig2Measures = [3][7]float64{
	{3, 4, 2, 1, 2, absent, absent},
	{absent, 1, 2, 2, 1, 4, 1},
	{absent, absent, absent, 5, 4, 3, 1},
}

const absent = -1e300 // sentinel for "edge not in record"

type fixture struct {
	rel *colstore.Relation
	reg *graph.Registry
	eng *Engine
}

func newFig2Fixture(t testing.TB) *fixture {
	t.Helper()
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	for _, m := range fig2Measures {
		rec := graph.NewRecord()
		for i, k := range fig2Edges {
			if m[i] != absent {
				if err := rec.SetEdge(k.From, k.To, m[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		graph.LoadRecord(rel, reg, rec)
	}
	return &fixture{rel: rel, reg: reg, eng: NewEngine(rel, reg)}
}

func pathQuery(nodes ...string) *GraphQuery {
	return NewGraphQuery(gpath.Closed(nodes...).ToGraph())
}

// --- randomized fixture for property-style tests ----------------------------

type randFixture struct {
	*fixture
	records []*graph.Record
}

// newRandomFixture synthesizes records over a small universe so brute-force
// verification stays cheap. The universe is a layered DAG A0..A3 × 4 nodes,
// guaranteeing multi-edge paths exist.
func newRandomFixture(t testing.TB, rng *rand.Rand, numRecords int) *randFixture {
	t.Helper()
	var universe []graph.EdgeKey
	name := func(layer, i int) string {
		return string(rune('A'+layer)) + string(rune('0'+i))
	}
	for layer := 0; layer < 3; layer++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				universe = append(universe, graph.E(name(layer, i), name(layer+1, j)))
			}
		}
	}
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	var records []*graph.Record
	for r := 0; r < numRecords; r++ {
		rec := graph.NewRecord()
		n := 3 + rng.Intn(len(universe)/2)
		for k := 0; k < n; k++ {
			e := universe[rng.Intn(len(universe))]
			if err := rec.SetEdge(e.From, e.To, float64(1+rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
		}
		graph.LoadRecord(rel, reg, rec)
		records = append(records, rec)
	}
	return &randFixture{
		fixture: &fixture{rel: rel, reg: reg, eng: NewEngine(rel, reg)},
		records: records,
	}
}

// randomQueryGraph draws a connected query subgraph from a random record so
// queries usually have non-empty answers.
func (f *randFixture) randomQueryGraph(rng *rand.Rand, maxEdges int) *graph.Graph {
	rec := f.records[rng.Intn(len(f.records))]
	elems := rec.Elements()
	g := graph.NewGraph()
	n := 1 + rng.Intn(maxEdges)
	for i := 0; i < n && i < len(elems); i++ {
		g.AddElement(elems[rng.Intn(len(elems))])
	}
	return g
}

// bruteForceAnswer computes the answer set by direct containment testing.
func (f *randFixture) bruteForceAnswer(q *graph.Graph) []uint32 {
	var out []uint32
	for i, rec := range f.records {
		contained := true
		for _, k := range q.Elements() {
			contained = contained && rec.HasElement(k)
		}
		if contained {
			out = append(out, uint32(i))
		}
	}
	return out
}

// evalExpr runs a boolean expression through Execute and returns its ids.
func evalExpr(ctx context.Context, e *Engine, expr Expr) (*bitmap.Bitmap, error) {
	res, err := e.Execute(ctx, Statement{Expr: expr})
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// scalarAgg runs q folded to one value through Execute.
func scalarAgg(ctx context.Context, e *Engine, q *PathAggQuery) (*ScalarAggResult, error) {
	sq := &PathAggQuery{G: q.G, Agg: q.Agg, Measure: q.Measure, Paths: q.Paths, Scalar: true}
	res, err := e.Execute(ctx, Statement{Agg: sq})
	if err != nil {
		return nil, err
	}
	return res.Scalar, nil
}
