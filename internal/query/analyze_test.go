package query

import (
	"context"
	"strings"
	"testing"

	"grove/internal/colstore"
	"grove/internal/graph"
	"grove/internal/obs"
)

// TestExecuteTracesUnderQueryKind: a statement is traced under its query
// class, with its rendered text, and its first span is planning — the
// caller parsed it.
func TestExecuteTracesUnderQueryKind(t *testing.T) {
	f := newFig2Fixture(t)
	ring := obs.NewTraceRing(4)
	f.eng.SetTraces(ring)
	ctx := context.Background()

	st, err := Parse("SUM [A,C,E,F]")
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.eng.Execute(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg == nil || res.IDs != nil || res.Scalar != nil {
		t.Fatalf("statement result = %+v", res)
	}
	if len(res.Agg.RecordIDs) != 1 || res.Agg.Values[0][0] != 7 {
		t.Errorf("SUM along (A,C,E,F) = %+v", res.Agg.Values)
	}
	traces := ring.Recent()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.Kind != obs.KindPathAgg || tr.Query != "SUM {[A,C] [C,E] [E,F]}" {
		t.Errorf("trace header = %+v", tr)
	}
	phases := map[string]bool{}
	for _, s := range tr.Spans {
		phases[s.Phase] = true
	}
	for _, want := range []string{obs.PhasePlan, obs.PhaseFetch,
		obs.PhaseIntersect, obs.PhaseMeasureScan, obs.PhaseAggregate} {
		if !phases[want] {
			t.Errorf("statement trace missing phase %q (have %v)", want, phases)
		}
	}
	if tr.Spans[0].Phase != obs.PhasePlan {
		t.Errorf("first span = %q, want plan", tr.Spans[0].Phase)
	}

	// A boolean statement is a graph query.
	st, err = Parse("[A,C] AND NOT [F,G]")
	if err != nil {
		t.Fatal(err)
	}
	res, err = f.eng.Execute(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs == nil || res.IDs.Cardinality() != 1 || !res.IDs.Contains(0) {
		t.Errorf("boolean statement answer = %+v", res.IDs)
	}
	if tr := ring.Recent()[0]; tr.Kind != obs.KindGraph || tr.Query != "({[A,C]} AND NOT {[F,G]})" {
		t.Errorf("boolean trace header = %+v", tr)
	}
	if _, err := f.eng.Execute(ctx, Statement{}); err == nil {
		t.Error("empty statement accepted")
	}
}

func TestExecuteStatementMetrics(t *testing.T) {
	f := newFig2Fixture(t)
	m := obs.NewQueryMetrics(obs.NewRegistry())
	f.eng.SetMetrics(m)
	for _, text := range []string{"[A,C,E] OR [A,B]", "SCALAR MAX [A,C,E]"} {
		st, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.eng.Execute(context.Background(), st); err != nil {
			t.Fatal(err)
		}
	}
	// One observation per statement, under its query class.
	if m.GraphLatency.Count() != 1 || m.PathAggLatency.Count() != 1 {
		t.Errorf("graph/pathagg latency observed %d/%d times, want 1/1",
			m.GraphLatency.Count(), m.PathAggLatency.Count())
	}
}

// TestExplainAnalyzeMatchesPlan is the acceptance criterion: for a
// view-rewritten query, the observed bitmap-fetch count equals the predicted
// Explanation.BitmapsFetched exactly, and every phase carries wall time.
func TestExplainAnalyzeMatchesPlan(t *testing.T) {
	f := newFig2Fixture(t)
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	if _, err := f.rel.MaterializeView("v23", []colstore.EdgeID{e2, e3}); err != nil {
		t.Fatal(err)
	}
	q := pathQuery("A", "C", "E", "F")
	a, err := f.eng.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Plan.Views) != 1 || a.Plan.Views[0] != "v23" {
		t.Fatalf("expected a view-rewritten plan, got %+v", a.Plan)
	}
	if got, want := a.Trace.IO.BitmapColumnsFetched, int64(a.Plan.BitmapsFetched); got != want {
		t.Errorf("observed fetches = %d, plan predicts %d", got, want)
	}
	if a.Records != 1 {
		t.Errorf("records = %d", a.Records)
	}
	for _, want := range []string{obs.PhasePlan, obs.PhaseFetch, obs.PhaseIntersect} {
		found := false
		for _, s := range a.Trace.PhaseTotals() {
			if s.Phase == want {
				found = true
				if s.DurationNanos < 0 {
					t.Errorf("phase %q has negative duration", want)
				}
			}
		}
		if !found {
			t.Errorf("analysis missing phase %q", want)
		}
	}

	out := a.String()
	for _, want := range []string{"views: v23", "observed:", "fetch", "intersect"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}

	// Diagnostics must not pollute the serving trace ring or metrics.
	m := obs.NewQueryMetrics(obs.NewRegistry())
	ring := obs.NewTraceRing(4)
	f.eng.SetMetrics(m)
	f.eng.SetTraces(ring)
	if _, err := f.eng.ExplainAnalyze(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if m.GraphLatency.Count() != 0 || ring.Len() != 0 {
		t.Errorf("ExplainAnalyze leaked into serving metrics: %d queries, %d traces",
			m.GraphLatency.Count(), ring.Len())
	}
}

func TestExplainAnalyzeErrors(t *testing.T) {
	f := newFig2Fixture(t)
	if _, err := f.eng.ExplainAnalyze(context.Background(), nil); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := f.eng.ExplainAnalyze(context.Background(), NewGraphQuery(graph.NewGraph())); err == nil {
		t.Error("empty graph accepted")
	}
}
