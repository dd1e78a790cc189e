package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
)

func TestAggFuncs(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	if got := Sum.Aggregate(vals); got != 14 {
		t.Errorf("SUM = %v", got)
	}
	if got := Min.Aggregate(vals); got != 1 {
		t.Errorf("MIN = %v", got)
	}
	if got := Max.Aggregate(vals); got != 5 {
		t.Errorf("MAX = %v", got)
	}
	if got := Count.Aggregate(vals); got != 5 {
		t.Errorf("COUNT = %v", got)
	}
	if got := Sum.Aggregate(nil); got != 0 {
		t.Errorf("empty SUM = %v", got)
	}
}

func TestAggByName(t *testing.T) {
	for _, name := range []string{"SUM", "MIN", "MAX", "COUNT"} {
		if f, ok := ByName(name); !ok || f.Name != name {
			t.Errorf("ByName(%s) failed", name)
		}
	}
	if _, ok := ByName("MEDIAN"); ok {
		t.Error("ByName accepted unknown function")
	}
}

func TestAggDistributivity(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, f := range []AggFunc{Sum, Min, Max, Count} {
		whole := f.Aggregate(vals)
		part1 := f.Aggregate(vals[:3])
		part2 := f.Aggregate(vals[3:])
		if got := f.Fold(part1, part2); got != whole {
			t.Errorf("%s not distributive: %v vs %v", f.Name, got, whole)
		}
	}
}

func TestPaperSection34Example(t *testing.T) {
	// SUM(A,C,E,F) retrieves record 2 with aggregate 7 (§3.4).
	f := newFig2Fixture(t)
	q := NewPathAggQuery(gpath.Closed("A", "C", "E", "F").ToGraph(), Sum)
	res, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecordIDs) != 1 || res.RecordIDs[0] != 1 {
		t.Fatalf("answer = %v, want [1] (record 2)", res.RecordIDs)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %v", res.Paths)
	}
	if got := res.Values[0][0]; got != 7 {
		t.Fatalf("SUM = %v, want 7", got)
	}
}

func TestGraphQueryAnswers(t *testing.T) {
	f := newFig2Fixture(t)
	cases := []struct {
		q    *GraphQuery
		want []uint32
	}{
		{pathQuery("A", "B"), []uint32{0}},
		{pathQuery("A", "D", "E"), []uint32{0, 1, 2}},
		{pathQuery("E", "F", "G"), []uint32{1, 2}},
		{pathQuery("A", "C", "E"), []uint32{0, 1}},
		{pathQuery("A", "Z"), nil},
	}
	for _, c := range cases {
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Answer.ToSlice()
		if len(got) != len(c.want) {
			t.Errorf("%s answer = %v, want %v", c.q, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s answer = %v, want %v", c.q, got, c.want)
			}
		}
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	f := newFig2Fixture(t)
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), NewGraphQuery(graph.NewGraph())); err == nil {
		t.Error("empty graph query accepted")
	}
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), nil); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), &PathAggQuery{G: graph.NewGraph(), Agg: Sum}); err == nil {
		t.Error("empty agg query accepted")
	}
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), &PathAggQuery{G: pathQuery("A", "B").G}); err == nil {
		t.Error("agg query without function accepted")
	}
}

func TestExprEval(t *testing.T) {
	f := newFig2Fixture(t)
	// Records with (A,D,E): all. With (E,F): r2, r3. With (A,B): r1.
	cde := Leaf{Q: pathQuery("A", "D", "E")}
	ef := Leaf{Q: pathQuery("E", "F")}
	ab := Leaf{Q: pathQuery("A", "B")}

	and, err := evalExpr(context.Background(), f.eng, And{Operands: []Expr{cde, ef}})
	if err != nil {
		t.Fatal(err)
	}
	if got := and.ToSlice(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("AND = %v, want [1 2]", got)
	}

	or, err := evalExpr(context.Background(), f.eng, Or{Operands: []Expr{ef, ab}})
	if err != nil {
		t.Fatal(err)
	}
	if got := or.ToSlice(); len(got) != 3 {
		t.Errorf("OR = %v, want all three", got)
	}

	diff, err := evalExpr(context.Background(), f.eng, Diff{A: cde, B: ef})
	if err != nil {
		t.Fatal(err)
	}
	if got := diff.ToSlice(); len(got) != 1 || got[0] != 0 {
		t.Errorf("AND NOT = %v, want [0]", got)
	}

	if _, err := evalExpr(context.Background(), f.eng, And{}); err == nil {
		t.Error("empty AND accepted")
	}
	if _, err := evalExpr(context.Background(), f.eng, Or{}); err == nil {
		t.Error("empty OR accepted")
	}
}

func TestPlanCoverUsesSubsetViewsOnly(t *testing.T) {
	f := newFig2Fixture(t)
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	e7, _ := f.reg.Lookup(graph.E("F", "G"))
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	// View over {e6,e7} is usable for query {e2,e6,e7}; view over {e2,e6,e7,
	// e1} is NOT usable (not a subset).
	e1, _ := f.reg.Lookup(graph.E("A", "B"))
	if _, err := f.rel.MaterializeView("good", []colstore.EdgeID{e6, e7}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rel.MaterializeView("toolarge", []colstore.EdgeID{e1, e2, e6, e7}); err != nil {
		t.Fatal(err)
	}
	plan := PlanCover(f.rel, []colstore.EdgeID{e2, e6, e7})
	if len(plan.Views) != 1 || plan.Views[0] != "good" {
		t.Fatalf("plan views = %v, want [good]", plan.Views)
	}
	if len(plan.Edges) != 1 || plan.Edges[0] != e2 {
		t.Fatalf("plan edges = %v, want [%d]", plan.Edges, e2)
	}
	if plan.NumBitmaps() != 2 {
		t.Fatalf("NumBitmaps = %d, want 2", plan.NumBitmaps())
	}
}

func TestPlanCoverFullQueryView(t *testing.T) {
	f := newFig2Fixture(t)
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	if _, err := f.rel.MaterializeView("whole", []colstore.EdgeID{e2, e3}); err != nil {
		t.Fatal(err)
	}
	plan := PlanCover(f.rel, []colstore.EdgeID{e2, e3})
	if len(plan.Views) != 1 || len(plan.Edges) != 0 {
		t.Fatalf("plan = %+v, want single view and no edges", plan)
	}
}

func TestPlanWithoutViews(t *testing.T) {
	plan := PlanWithoutViews([]colstore.EdgeID{5, 3, 4})
	if len(plan.Views)+len(plan.AggViews) != 0 {
		t.Error("oblivious plan uses views")
	}
	if len(plan.Edges) != 3 || plan.Edges[0] != 3 {
		t.Errorf("edges = %v", plan.Edges)
	}
}

func TestViewRewriteSameAnswer(t *testing.T) {
	f := newFig2Fixture(t)
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	if _, err := f.rel.MaterializeView("v36", []colstore.EdgeID{e3, e6}); err != nil {
		t.Fatal(err)
	}
	q := pathQuery("A", "C", "E", "F")

	f.eng.UseViews = false
	oblivious, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	f.eng.UseViews = true
	rewritten, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !oblivious.Answer.Equals(rewritten.Answer) {
		t.Fatal("view rewrite changed the answer")
	}
	if rewritten.Plan.NumBitmaps() >= oblivious.Plan.NumBitmaps() {
		t.Errorf("rewrite did not reduce bitmaps: %d vs %d",
			rewritten.Plan.NumBitmaps(), oblivious.Plan.NumBitmaps())
	}
}

func TestViewReducesIOCost(t *testing.T) {
	f := newFig2Fixture(t)
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	if _, err := f.rel.MaterializeView("v", []colstore.EdgeID{e2, e3, e6}); err != nil {
		t.Fatal(err)
	}
	q := pathQuery("A", "C", "E", "F")

	f.eng.UseViews = false
	start := f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	without := f.rel.Tracker().Snapshot().Sub(start).BitmapColumnsFetched

	f.eng.UseViews = true
	start = f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	with := f.rel.Tracker().Snapshot().Sub(start).BitmapColumnsFetched

	if without != 3 || with != 1 {
		t.Errorf("bitmap fetches = %d (oblivious) / %d (views), want 3/1", without, with)
	}
}

func TestFetchMeasures(t *testing.T) {
	f := newFig2Fixture(t)
	q := pathQuery("A", "D", "E") // e4, e5 — present in all 3 records
	res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	start := f.rel.Tracker().Snapshot()
	n := res.FetchMeasures()
	if n != 6 { // 2 edges × 3 records
		t.Errorf("measures scanned = %d, want 6", n)
	}
	s := f.rel.Tracker().Snapshot().Sub(start)
	if s.MeasureColumnsFetched != 2 {
		t.Errorf("measure columns fetched = %d, want 2", s.MeasureColumnsFetched)
	}
	if s.MeasuresScanned != 6 {
		t.Errorf("MeasuresScanned = %d, want 6", s.MeasuresScanned)
	}
}

func TestAggViewUsedAndConsistent(t *testing.T) {
	f := newFig2Fixture(t)
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	e7, _ := f.reg.Lookup(graph.E("F", "G"))
	if _, err := f.rel.MaterializeAggView("p1", []colstore.EdgeID{e6, e7}, Sum); err != nil {
		t.Fatal(err)
	}
	q := NewPathAggQuery(gpath.Closed("E", "F", "G").ToGraph(), Sum)

	f.eng.UseViews = true
	with, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	f.eng.UseViews = false
	without, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !with.Answer.Equals(without.Answer) {
		t.Fatal("agg view changed the structural answer")
	}
	for p := range with.Values {
		for i := range with.Values[p] {
			if with.Values[p][i] != without.Values[p][i] {
				t.Fatalf("path %d rec %d: %v (views) vs %v (raw)",
					p, i, with.Values[p][i], without.Values[p][i])
			}
		}
	}
	// Table 1: mp1 = 5 for r2, 4 for r3.
	if with.Values[0][0] != 5 || with.Values[0][1] != 4 {
		t.Errorf("aggregates = %v, want [5 4]", with.Values[0])
	}
	// The covered path must have used the view: 1 view segment, 0 raw.
	if with.SegmentsPerPath[0] != [2]int{1, 0} {
		t.Errorf("segments = %v, want view-only", with.SegmentsPerPath[0])
	}
	if without.SegmentsPerPath[0] != [2]int{0, 2} {
		t.Errorf("oblivious segments = %v, want raw-only", without.SegmentsPerPath[0])
	}
}

func TestAggViewReducesMeasureColumns(t *testing.T) {
	f := newFig2Fixture(t)
	e4, _ := f.reg.Lookup(graph.E("A", "D"))
	e5, _ := f.reg.Lookup(graph.E("D", "E"))
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	if _, err := f.rel.MaterializeAggView("p", []colstore.EdgeID{e4, e5, e6}, Sum); err != nil {
		t.Fatal(err)
	}
	q := NewPathAggQuery(gpath.Closed("A", "D", "E", "F", "G").ToGraph(), Sum)

	f.eng.UseViews = false
	start := f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	rawCols := f.rel.Tracker().Snapshot().Sub(start).MeasureColumnsFetched

	f.eng.UseViews = true
	start = f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	viewCols := f.rel.Tracker().Snapshot().Sub(start).MeasureColumnsFetched

	if rawCols != 4 || viewCols != 2 { // view(e4,e5,e6) + raw e7
		t.Errorf("measure columns = %d (raw) / %d (views), want 4/2", rawCols, viewCols)
	}
}

func TestAggMultiplePaths(t *testing.T) {
	// Diamond query: A→C→E (e2,e3) and A→D→E (e4,e5).
	f := newFig2Fixture(t)
	g := graph.NewGraph()
	g.AddEdge("A", "C")
	g.AddEdge("C", "E")
	g.AddEdge("A", "D")
	g.AddEdge("D", "E")
	q := NewPathAggQuery(g, Sum)
	res, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Only records containing all four edges: r1 and r2.
	if len(res.RecordIDs) != 2 {
		t.Fatalf("answer = %v", res.RecordIDs)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %v", res.Paths)
	}
	// Locate path [A,C,E] and [A,C,D,E] values for r1 (records 0).
	for p, path := range res.Paths {
		switch path.String() {
		case "[A,C,E]":
			if res.Values[p][0] != 4+2 { // m2+m3 of r1
				t.Errorf("[A,C,E] r1 = %v, want 6", res.Values[p][0])
			}
		case "[A,D,E]":
			if res.Values[p][0] != 1+2 { // m4+m5 of r1
				t.Errorf("[A,D,E] r1 = %v, want 3", res.Values[p][0])
			}
		default:
			t.Errorf("unexpected path %s", path)
		}
	}
	// FoldAcrossPaths with SUM adds the two path sums.
	folded := res.FoldAcrossPaths()
	if folded[0] != 9 {
		t.Errorf("folded r1 = %v, want 9", folded[0])
	}
}

func TestAggNullWhenMeasureMissing(t *testing.T) {
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	rec := graph.NewRecord()
	if err := rec.SetEdge("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	rec.AddBareElement(graph.E("B", "C")) // structural only, NULL measure
	graph.LoadRecord(rel, reg, rec)
	eng := NewEngine(rel, reg)
	q := NewPathAggQuery(gpath.Closed("A", "B", "C").ToGraph(), Sum)
	res, err := eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecordIDs) != 1 {
		t.Fatalf("answer = %v", res.RecordIDs)
	}
	if !math.IsNaN(res.Values[0][0]) {
		t.Errorf("aggregate over NULL measure = %v, want NaN", res.Values[0][0])
	}
	folded := res.FoldAcrossPaths()
	if !math.IsNaN(folded[0]) {
		t.Errorf("folded = %v, want NaN", folded[0])
	}
}

func TestNodeMeasuresInAggregation(t *testing.T) {
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	rec := graph.NewRecord()
	for _, err := range []error{
		rec.SetEdge("A", "B", 1),
		rec.SetEdge("B", "C", 2),
		rec.SetNode("B", 10), // internal node measure
		rec.SetNode("A", 100),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	graph.LoadRecord(rel, reg, rec)
	eng := NewEngine(rel, reg)
	// Closed path includes A's node measure; internal B always counted.
	q := NewPathAggQuery(gpath.Closed("A", "B", "C").ToGraph(), Sum)
	res, err := eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values[0][0]; got != 1+2+10+100 {
		t.Errorf("closed-path SUM = %v, want 113", got)
	}
}

func TestQueryPropertyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := newRandomFixture(t, rng, 300)
	for trial := 0; trial < 100; trial++ {
		qg := f.randomQueryGraph(rng, 5)
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), NewGraphQuery(qg))
		if err != nil {
			t.Fatal(err)
		}
		want := f.bruteForceAnswer(qg)
		got := res.Answer.ToSlice()
		if len(got) != len(want) {
			t.Fatalf("trial %d: answer size %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: answer %v, want %v", trial, got, want)
			}
		}
	}
}

func TestQueryPropertyViewsNeverChangeAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := newRandomFixture(t, rng, 300)
	// Materialize a few random views drawn from record subgraphs.
	for i := 0; i < 8; i++ {
		qg := f.randomQueryGraph(rng, 4)
		ids := f.reg.GraphIDs(qg)
		_, _ = f.rel.MaterializeView(string(rune('a'+i)), ids)
	}
	for trial := 0; trial < 100; trial++ {
		qg := f.randomQueryGraph(rng, 6)
		f.eng.UseViews = true
		with, err := f.eng.ExecuteGraphQueryContext(context.Background(), NewGraphQuery(qg))
		if err != nil {
			t.Fatal(err)
		}
		f.eng.UseViews = false
		without, err := f.eng.ExecuteGraphQueryContext(context.Background(), NewGraphQuery(qg))
		if err != nil {
			t.Fatal(err)
		}
		if !with.Answer.Equals(without.Answer) {
			t.Fatalf("trial %d: view rewrite changed answer for %v", trial, qg.Elements())
		}
		if with.Plan.NumBitmaps() > without.Plan.NumBitmaps() {
			t.Fatalf("trial %d: rewrite used more bitmaps", trial)
		}
	}
}
