package grove

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

var errWrongAnswer = errors.New("wrong answer under concurrency")

// buildSCMStore loads a small supply-chain dataset shaped like paper Fig. 1.
func buildSCMStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	st := Open(opts...)
	// Order 1: A→D→E→G→I, 2h per leg.
	// Order 2: A→B→F→J→K plus C→H→K.
	// Order 3: A→D→E→G→K, slower legs.
	orders := []struct {
		legs [][2]string
		time float64
	}{
		{[][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}, {"G", "I"}}, 2},
		{[][2]string{{"A", "B"}, {"B", "F"}, {"F", "J"}, {"J", "K"}, {"C", "H"}, {"H", "K"}}, 3},
		{[][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}, {"G", "K"}}, 5},
	}
	for _, o := range orders {
		rec := NewRecord()
		for _, leg := range o.legs {
			if err := rec.SetEdge(leg[0], leg[1], o.time); err != nil {
				t.Fatal(err)
			}
		}
		st.Add(rec)
	}
	st.Optimize()
	return st
}

func TestStoreBasics(t *testing.T) {
	st := buildSCMStore(t)
	if st.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", st.NumRecords())
	}
	s := st.Stats()
	if s.DistinctEdges != 11 {
		t.Fatalf("DistinctEdges = %d, want 11 distinct legs", s.DistinctEdges)
	}
	if s.BaseSizeBytes <= 0 {
		t.Error("BaseSizeBytes = 0")
	}
}

func TestMatchPath(t *testing.T) {
	st := buildSCMStore(t)
	res, err := st.Match(PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Answer.ToSlice(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("answer = %v, want [0 2]", got)
	}
	if _, err := queryText(st, "[A]"); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Errorf("single-node path: err = %v", err)
	}
}

func TestAggregatePathQ1(t *testing.T) {
	// Q1 (§2): delivery time via [A,D,E,G,I].
	st := buildSCMStore(t)
	agg, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.RecordIDs) != 1 || agg.RecordIDs[0] != 0 {
		t.Fatalf("answer = %v", agg.RecordIDs)
	}
	if agg.Values[0][0] != 8 {
		t.Fatalf("total time = %v, want 8", agg.Values[0][0])
	}
	if _, err := aggAlong(st, Sum, PathOf("A"), ""); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Errorf("single-node aggregation: err = %v", err)
	}
	if _, _, err := AveragePath(context.Background(), st, "A"); err == nil {
		t.Error("single-node average accepted")
	}
}

func TestQ3StyleMaxOverPaths(t *testing.T) {
	// Longest leg delay from A to K via the D-E-G route.
	st := buildSCMStore(t)
	agg, err := st.Aggregate(PathOf("A", "D", "E", "G", "K").ToGraph(), Max)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.RecordIDs) != 1 || agg.RecordIDs[0] != 2 {
		t.Fatalf("answer = %v", agg.RecordIDs)
	}
	if agg.Values[0][0] != 5 {
		t.Fatalf("max leg = %v, want 5", agg.Values[0][0])
	}
}

func TestBooleanExpressions(t *testing.T) {
	// Q2-flavoured: orders using leased legs [C,H] or [F,J,K], excluding
	// those routed via G.
	st := buildSCMStore(t)
	leased := Or(QPath("C", "H"), QPath("F", "J", "K"))
	ids, err := evalExpr(st, AndNot(leased, QPath("E", "G")))
	if err != nil {
		t.Fatal(err)
	}
	if got := ids.ToSlice(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("answer = %v, want [1]", got)
	}
}

func TestViewsEndToEnd(t *testing.T) {
	workload := []*Graph{
		PathOf("A", "D", "E", "G", "I").ToGraph(),
		PathOf("A", "D", "E", "G", "K").ToGraph(),
	}
	fetches := func(st *Store) int64 {
		t.Helper()
		names, err := st.MaterializeGraphViews(workload, 3, AdvisorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(names) == 0 {
			t.Fatal("no views selected")
		}
		if got := st.Stats().ViewNames; len(got) != len(names) {
			t.Fatalf("ViewNames = %v", got)
		}
		start := st.IOStatsSnapshot()
		if _, err := st.Match(PathOf("A", "D", "E", "G", "I").ToGraph()); err != nil {
			t.Fatal(err)
		}
		return st.IOStatsSnapshot().Sub(start).BitmapColumnsFetched
	}
	st := buildSCMStore(t)
	with := fetches(st)
	without := fetches(buildSCMStore(t, WithoutViews()))
	if with >= without {
		t.Errorf("views did not reduce fetches: %d vs %d", with, without)
	}

	st.DropAllViews()
	if len(st.Stats().ViewNames) != 0 {
		t.Error("views survived DropAllViews")
	}
}

func TestAggViewsEndToEnd(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.MaterializeAggViewPath("deg", Sum, "", "D", "E", "G"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().AggViewNames; len(got) != 1 || got[0] != "deg" {
		t.Fatalf("AggViewNames = %v", got)
	}
	agg, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Values[0][0] != 8 {
		t.Fatalf("aggregate with view = %v, want 8", agg.Values[0][0])
	}
	if agg.SegmentsPerPath[0][0] != 1 {
		t.Errorf("view not used: segments = %v", agg.SegmentsPerPath[0])
	}
}

func TestMaterializeAggViewsAdvisor(t *testing.T) {
	st := buildSCMStore(t)
	workload := []*Graph{
		PathOf("A", "D", "E", "G", "I").ToGraph(),
		PathOf("A", "D", "E", "G", "K").ToGraph(),
	}
	names, err := st.MaterializeAggViews(workload, Sum, 2, AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no aggregate views selected")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := buildSCMStore(t)
	if err := st.MaterializeView("v", PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 3 || got.Stats().DistinctEdges != 11 {
		t.Fatalf("reloaded: records=%d edges=%d", got.NumRecords(), got.Stats().DistinctEdges)
	}
	res, err := got.Match(PathOf("A", "D", "E", "G", "I").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 1 {
		t.Fatalf("reloaded query answer = %d", res.NumRecords())
	}
	if len(got.Stats().ViewNames) != 1 {
		t.Error("view lost in round trip")
	}
}

func TestFlattenSequenceFacade(t *testing.T) {
	rec, err := FlattenSequence([]string{"A", "B", "A"}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	st := Open()
	st.Add(rec)
	res, err := st.Match(PathOf("B", "A#2").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 1 {
		t.Fatal("aliased edge not queryable")
	}
}

func TestFoldAcrossPathsNaN(t *testing.T) {
	st := Open()
	rec := NewRecord()
	if err := rec.SetEdge("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	rec.AddBareElement(EdgeKey{From: "B", To: "C"})
	st.Add(rec)
	agg, err := st.Aggregate(PathOf("A", "B", "C").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(agg.FoldAcrossPaths()[0]) {
		t.Error("NULL measure did not surface as NaN")
	}
}

func TestPartitionWidthOption(t *testing.T) {
	st := Open(WithPartitionWidth(2))
	rec := NewRecord()
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}} {
		if err := rec.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	st.Add(rec)
	start := st.IOStatsSnapshot()
	res, err := st.Match(PathOf("A", "B", "C", "D", "E").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	res.FetchMeasures()
	if st.IOStatsSnapshot().Sub(start).PartitionJoins == 0 {
		t.Error("narrow partitions produced no joins")
	}
}

func TestTagsEndToEnd(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.Tag(0, "type", "fast-track"); err != nil {
		t.Fatal(err)
	}
	if err := st.Tag(2, "type", "regular"); err != nil {
		t.Fatal(err)
	}
	if got := st.TaggedWith("type", "fast-track").ToSlice(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("TaggedWith = %v", got)
	}
	// Orders via A→D→E→G restricted to regular ones: only record 2.
	res, err := st.Match(PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Answer.And(st.TaggedWith("type", "regular")).ToSlice(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("tag-restricted match = %v, want [2]", got)
	}
	// Tagging an unknown record errors.
	if err := st.Tag(999, "k", "v"); err == nil {
		t.Error("tag on unknown record accepted")
	}
}

func TestPathsThroughFacade(t *testing.T) {
	region := NewGraph()
	region.AddEdge("D", "E")
	region.AddEdge("E", "G")
	g := NewGraph()
	for _, e := range [][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}, {"G", "I"}, {"A", "B"}} {
		g.AddEdge(e[0], e[1])
	}
	paths, err := PathsThrough(g, region, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].String() != "[A,D,E,G,I]" {
		t.Fatalf("PathsThrough = %v", paths)
	}
	co, err := Coalesce(g, region, "R2")
	if err != nil {
		t.Fatal(err)
	}
	if !co.HasEdge("A", "R2") || !co.HasEdge("R2", "I") {
		t.Errorf("Coalesce = %v", co.Elements())
	}
}

func TestClusterColumnsReducesPartitionJoins(t *testing.T) {
	st := Open(WithPartitionWidth(2))
	rec := NewRecord()
	legs := [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "F"}}
	for _, e := range legs {
		if err := rec.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	st.Add(rec)
	workload := []*Graph{PathOf("A", "B", "C").ToGraph(), PathOf("D", "E", "F").ToGraph()}

	run := func() int64 {
		start := st.IOStatsSnapshot()
		for _, g := range workload {
			res, err := st.Match(g)
			if err != nil {
				t.Fatal(err)
			}
			res.FetchMeasures()
		}
		return st.IOStatsSnapshot().Sub(start).PartitionJoins
	}
	before := run()
	if err := st.ClusterColumns(workload); err != nil {
		t.Fatal(err)
	}
	after := run()
	if after >= before {
		t.Errorf("clustering did not reduce partition joins: %d -> %d", before, after)
	}
}

func TestConcurrentReaders(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.MaterializeAggViewPath("deg", Sum, "", "D", "E", "G"); err != nil {
		t.Fatal(err)
	}
	// The documented contract: concurrent readers are safe between
	// mutations. Run with -race to verify.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				res, err := st.Match(PathOf("A", "D", "E", "G").ToGraph())
				if err != nil {
					done <- err
					return
				}
				if res.NumRecords() != 2 {
					done <- errWrongAnswer
					return
				}
				agg, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum)
				if err != nil {
					done <- err
					return
				}
				if agg.Values[0][0] != 8 {
					done <- errWrongAnswer
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAggregateAlongOpenPath(t *testing.T) {
	st := Open()
	rec := NewRecord()
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}} {
		if err := rec.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	for n, v := range map[string]float64{"A": 10, "B": 20, "C": 40} {
		if err := rec.SetNode(n, v); err != nil {
			t.Fatal(err)
		}
	}
	st.Add(rec)

	closed, err := st.Aggregate(PathOf("A", "B", "C").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Values[0][0] != 2+10+20+40 {
		t.Errorf("closed = %v, want 72", closed.Values[0][0])
	}
	open, err := aggAlong(st, Sum, OpenPath("A", "B", "C"), "")
	if err != nil {
		t.Fatal(err)
	}
	if open.Values[0][0] != 2+20 {
		t.Errorf("open = %v, want 22 (endpoints excluded)", open.Values[0][0])
	}
	halfOpen := Path{Nodes: []string{"A", "B", "C"}, OpenEnd: true}
	ho, err := aggAlong(st, Sum, halfOpen, "")
	if err != nil {
		t.Fatal(err)
	}
	if ho.Values[0][0] != 2+10+20 {
		t.Errorf("half-open = %v, want 32", ho.Values[0][0])
	}
	if _, err := aggAlong(st, Sum, Path{Nodes: []string{"A"}}, ""); err == nil {
		t.Error("single-node path accepted")
	}
}

func TestTextQueryFacade(t *testing.T) {
	st := buildSCMStore(t)
	res, err := queryText(st, "[A,D,E] AND NOT [G,I]")
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs == nil || res.Agg != nil {
		t.Fatal("boolean query returned wrong result kind")
	}
	if got := res.IDs.ToSlice(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("answer = %v, want [2]", got)
	}
	agg, err := queryText(st, "SUM [A,D,E,G,I]")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Agg == nil || agg.Agg.Values[0][0] != 8 {
		t.Fatalf("agg result = %+v", agg.Agg)
	}
	if _, err := queryText(st, "[A"); err == nil {
		t.Error("bad syntax accepted")
	}
}

func TestGetRecordRoundTrip(t *testing.T) {
	st := Open()
	orig := NewRecord()
	if err := orig.SetEdge("A", "B", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := orig.SetEdgeNamed("A", "B", "cost", 9); err != nil {
		t.Fatal(err)
	}
	orig.AddBareElement(EdgeKey{From: "B", To: "C"})
	if err := orig.SetNode("A", 3); err != nil {
		t.Fatal(err)
	}
	id := st.Add(orig)
	st.Add(func() *Record { // a second record so bitmaps are non-trivial
		r := NewRecord()
		_ = r.SetEdge("X", "Y", 2)
		return r
	}())

	got, err := st.GetRecord(id)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Elements(), orig.Elements()) {
		t.Fatalf("structure mismatch: %v vs %v", got.Elements(), orig.Elements())
	}
	if m := got.Measure(EdgeKey{From: "A", To: "B"}); !m.Valid || m.Value != 1.5 {
		t.Errorf("default measure = %+v", m)
	}
	if m := got.MeasureNamed(EdgeKey{From: "A", To: "B"}, "cost"); !m.Valid || m.Value != 9 {
		t.Errorf("named measure = %+v", m)
	}
	if m := got.Measure(EdgeKey{From: "B", To: "C"}); m.Valid {
		t.Error("bare element grew a measure")
	}
	if m := got.Measure(EdgeKey{From: "A", To: "A"}); !m.Valid || m.Value != 3 {
		t.Errorf("node measure = %+v", m)
	}
	if _, err := st.GetRecord(99); err == nil {
		t.Error("out-of-range record accepted")
	}
}

func TestSoftDelete(t *testing.T) {
	st := buildSCMStore(t)
	res, err := st.Match(PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 2 {
		t.Fatalf("before delete: %d", res.NumRecords())
	}
	live, err := st.Delete(0)
	if err != nil || !live {
		t.Fatalf("Delete = %v,%v", live, err)
	}
	if st.Stats().Deleted != 1 {
		t.Errorf("NumDeleted = %d", st.Stats().Deleted)
	}
	// Second delete is idempotent.
	if live, _ := st.Delete(0); live {
		t.Error("second delete reported live")
	}
	res, err = st.Match(PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Answer.ToSlice(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete: %v, want [2]", got)
	}
	// Aggregation answers exclude deleted records too.
	agg, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.RecordIDs) != 0 {
		t.Fatalf("deleted record still aggregated: %v", agg.RecordIDs)
	}
	// Expressions exclude them as well.
	ids, err := evalExpr(st, QPath("A", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if ids.Contains(0) {
		t.Error("deleted record in expression answer")
	}
	// Undelete restores.
	if !st.Undelete(0) {
		t.Error("Undelete failed")
	}
	res, err = st.Match(PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 2 {
		t.Errorf("after undelete: %d", res.NumRecords())
	}
	if _, err := st.Delete(999); err == nil {
		t.Error("delete of unknown record accepted")
	}
}

func TestSoftDeleteSurvivesSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st := buildSCMStore(t)
	if _, err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Deleted != 1 {
		t.Fatalf("NumDeleted after reload = %d", got.Stats().Deleted)
	}
	res, err := got.Match(PathOf("A", "B").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 0 {
		t.Error("deleted record resurrected by reload")
	}
}

func TestParseWorkloadAndAdvise(t *testing.T) {
	st := buildSCMStore(t)
	workloadText := `# analyst dashboard
[A,D,E,G,I]
SUM [A,D,E,G,K]
[A,D] AND NOT [C,H]
`
	workload, err := ParseWorkload(strings.NewReader(workloadText))
	if err != nil {
		t.Fatal(err)
	}
	// 1 path + 1 agg path + 2 leaves of the boolean statement.
	if len(workload) != 4 {
		t.Fatalf("workload size = %d, want 4", len(workload))
	}
	rep, err := st.AdviseGraphViews(workload, 10, AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkloadQueries != 4 || rep.BitmapsBefore == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.BitmapsAfter >= rep.BitmapsBefore {
		t.Errorf("advice saves nothing: %d -> %d", rep.BitmapsBefore, rep.BitmapsAfter)
	}
	if rep.Savings() <= 0 || rep.Savings() > 1 {
		t.Errorf("Savings = %v", rep.Savings())
	}
	var sb strings.Builder
	st.RenderAdvice(&sb, rep)
	if !strings.Contains(sb.String(), "saved") {
		t.Errorf("rendered advice:\n%s", sb.String())
	}
	// Advising must not have materialized anything.
	if len(st.Stats().ViewNames) != 0 {
		t.Error("AdviseGraphViews materialized views")
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	if _, err := ParseWorkload(strings.NewReader("[A,B]\n[oops\n")); err == nil {
		t.Error("bad workload line accepted")
	}
	workload, err := ParseWorkload(strings.NewReader("\n# only comments\n"))
	if err != nil || len(workload) != 0 {
		t.Errorf("empty workload: %v, %v", workload, err)
	}
}

func TestLeafGraphs(t *testing.T) {
	e := AndNot(Or(QPath("A", "B"), QPath("C", "D")), QPath("E", "F"))
	gs := LeafGraphs(e)
	if len(gs) != 3 {
		t.Fatalf("LeafGraphs = %d, want 3", len(gs))
	}
}

func TestStoreStats(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.MaterializeView("v", PathOf("A", "D").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := st.Tag(0, "type", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Records != 3 || s.Deleted != 1 || s.DistinctEdges != 11 {
		t.Errorf("stats = %+v", s)
	}
	if len(s.ViewNames) != 1 || len(s.AggViewNames) != 0 {
		t.Errorf("views = %v / %v", s.ViewNames, s.AggViewNames)
	}
	if s.TotalMeasures != 14 { // 4+6+4 measured legs
		t.Errorf("TotalMeasures = %d", s.TotalMeasures)
	}
	if len(s.TagKeys) != 1 || s.TagKeys[0] != "type" {
		t.Errorf("TagKeys = %v", s.TagKeys)
	}
	if s.BaseSizeBytes <= 0 || s.ViewSizeBytes <= 0 || s.Partitions != 1 {
		t.Errorf("sizes/partitions = %+v", s)
	}
}

// TestAnswersAreCallerOwned pins that every answer bitmap the store hands
// out belongs to the caller: after the caller edits the answers of Eval,
// Match, Aggregate and TaggedWith, asking again still returns exactly what a
// store nobody mutated returns.
func TestAnswersAreCallerOwned(t *testing.T) {
	g := PathOf("A", "D", "E").ToGraph()
	answers := func(t *testing.T, st *Store) map[string]*Bitmap {
		t.Helper()
		ids, err := evalExpr(st, Q(g))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Match(g)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := st.Aggregate(g, Sum)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*Bitmap{"Eval": ids, "Match": res.Answer, "Aggregate": ag.Answer,
			"TaggedWith": st.TaggedWith("type", "fast-track")}
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			build := func() *Store {
				st := NewSharded(shards)
				loadSCMOrders(t, st)
				for _, id := range []uint32{0, 3} {
					if err := st.Tag(id, "type", "fast-track"); err != nil {
						t.Fatal(err)
					}
				}
				return st
			}
			want := answers(t, build())
			st := build()
			for round := 0; round < 3; round++ {
				for name, got := range answers(t, st) {
					if !got.Equals(want[name]) {
						t.Fatalf("round %d: %s = %v, want %v", round, name, got.ToSlice(), want[name].ToSlice())
					}
					for _, id := range want[name].ToSlice() {
						got.Remove(id)
					}
					got.Add(999)
				}
			}
		})
	}
}
