package query

import (
	"context"
	"strings"
	"testing"

	"grove/internal/colstore"
	"grove/internal/graph"
)

func TestExplainWithViews(t *testing.T) {
	f := newFig2Fixture(t)
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	if _, err := f.rel.MaterializeView("v23", []colstore.EdgeID{e2, e3}); err != nil {
		t.Fatal(err)
	}
	q := pathQuery("A", "C", "E", "F")
	ex, err := f.eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Universe != 3 {
		t.Errorf("Universe = %d", ex.Universe)
	}
	if len(ex.Views) != 1 || ex.Views[0] != "v23" {
		t.Errorf("Views = %v", ex.Views)
	}
	if ex.ResidualEdges != 1 || ex.BitmapsFetched != 2 || ex.BitmapsSaved != 1 {
		t.Errorf("plan figures = %+v", ex)
	}
	if len(ex.UnknownElements) != 0 {
		t.Errorf("UnknownElements = %v", ex.UnknownElements)
	}
	out := ex.String()
	for _, want := range []string{"universe: 3 edges", "views: v23", "saved vs oblivious plan: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
	// Explaining must not account I/O.
	start := f.rel.Tracker().Snapshot()
	if _, err := f.eng.Explain(q); err != nil {
		t.Fatal(err)
	}
	if f.rel.Tracker().Snapshot().Sub(start).ColumnsFetched() != 0 {
		t.Error("Explain charged I/O")
	}
}

func TestExplainUnknownElements(t *testing.T) {
	f := newFig2Fixture(t)
	ex, err := f.eng.Explain(pathQuery("A", "ZZZ"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.UnknownElements) != 1 {
		t.Errorf("UnknownElements = %v", ex.UnknownElements)
	}
	if !strings.Contains(ex.String(), "WARNING") {
		t.Error("warning missing from rendering")
	}
	if _, err := f.eng.Explain(nil); err == nil {
		t.Error("nil query accepted")
	}
}

// TestExplanationStringRendering covers every branch of the renderer,
// including the aggregate-view line and the unknown-element warning.
func TestExplanationStringRendering(t *testing.T) {
	ex := Explanation{
		Universe:        4,
		Views:           []string{"v1", "v2"},
		AggViews:        []string{"a1"},
		ResidualEdges:   1,
		BitmapsFetched:  4,
		BitmapsSaved:    2,
		Partitions:      2,
		UnknownElements: []string{"[X,Y]"},
	}
	out := ex.String()
	for _, want := range []string{
		"universe: 4 edges",
		"plan: 4 bitmap fetch(es) = 2 view(s) + 1 aggregate-view filter(s) + 1 edge bitmap(s)",
		"views: v1 v2",
		"aggregate views: a1",
		"saved vs oblivious plan: 2 bitmap fetch(es)",
		"partitions spanned: 2",
		"WARNING: unknown elements (answer will be empty): [X,Y]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
	bare := Explanation{Universe: 1, BitmapsFetched: 1}.String()
	for _, absent := range []string{"views:", "WARNING"} {
		if strings.Contains(bare, absent) {
			t.Errorf("bare rendering has %q:\n%s", absent, bare)
		}
	}
}

// TestExplainSavingsMatchExecutedFetches pins the predicted figures to real
// I/O: on a store with a materialized view, BitmapsFetched equals the
// view-aware execution's fetch count and BitmapsSaved equals the delta to
// the view-oblivious execution.
func TestExplainSavingsMatchExecutedFetches(t *testing.T) {
	f := newFig2Fixture(t)
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	if _, err := f.rel.MaterializeView("v23", []colstore.EdgeID{e2, e3}); err != nil {
		t.Fatal(err)
	}
	q := pathQuery("A", "C", "E", "F")
	ex, err := f.eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}

	start := f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	viewAware := f.rel.Tracker().Snapshot().Sub(start).BitmapColumnsFetched
	if viewAware != int64(ex.BitmapsFetched) {
		t.Errorf("view-aware run fetched %d bitmaps, Explain predicted %d", viewAware, ex.BitmapsFetched)
	}

	f.eng.UseViews = false
	start = f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	oblivious := f.rel.Tracker().Snapshot().Sub(start).BitmapColumnsFetched
	if got := oblivious - viewAware; got != int64(ex.BitmapsSaved) {
		t.Errorf("actual fetch delta = %d (%d oblivious - %d view-aware), BitmapsSaved = %d",
			got, oblivious, viewAware, ex.BitmapsSaved)
	}
}

func TestExplainObliviousMode(t *testing.T) {
	f := newFig2Fixture(t)
	e6, _ := f.reg.Lookup(graph.E("E", "F"))
	e7, _ := f.reg.Lookup(graph.E("F", "G"))
	if _, err := f.rel.MaterializeView("v67", []colstore.EdgeID{e6, e7}); err != nil {
		t.Fatal(err)
	}
	f.eng.UseViews = false
	ex, err := f.eng.ExplainGraph(pathQuery("E", "F", "G").G)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Views) != 0 || ex.BitmapsSaved != 0 {
		t.Errorf("oblivious explain used views: %+v", ex)
	}
}
