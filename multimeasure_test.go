package grove

import (
	"math"
	"testing"
)

// buildMultiMeasureStore loads SCM orders carrying BOTH a time and a cost
// measure per leg — the multi-measure setting of §2/§3.1 (Q1 asks for time,
// Q2 for cost).
func buildMultiMeasureStore(t *testing.T) *Store {
	t.Helper()
	st := Open()
	type legMeasures struct {
		time, cost float64
	}
	orders := []map[[2]string]legMeasures{
		{
			{"A", "D"}: {2, 10}, {"D", "E"}: {3, 20}, {"E", "G"}: {1, 30}, {"G", "I"}: {2, 40},
		},
		{
			{"A", "D"}: {4, 11}, {"D", "E"}: {5, 21}, {"C", "H"}: {9, 99},
		},
	}
	for _, legs := range orders {
		rec := NewRecord()
		for leg, m := range legs {
			if err := rec.SetEdge(leg[0], leg[1], m.time); err != nil {
				t.Fatal(err)
			}
			if err := rec.SetEdgeNamed(leg[0], leg[1], "cost", m.cost); err != nil {
				t.Fatal(err)
			}
		}
		st.Add(rec)
	}
	return st
}

func TestRecordNamedMeasures(t *testing.T) {
	rec := NewRecord()
	if err := rec.SetEdge("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdgeNamed("A", "B", "cost", 5); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdgeNamed("A", "B", "", 2); err != nil {
		t.Fatal(err)
	}
	if m := rec.Measure(EdgeKey{From: "A", To: "B"}); !m.Valid || m.Value != 2 {
		t.Errorf("default measure = %+v, want 2 (overwritten)", m)
	}
	if m := rec.MeasureNamed(EdgeKey{From: "A", To: "B"}, "cost"); !m.Valid || m.Value != 5 {
		t.Errorf("cost measure = %+v", m)
	}
	if m := rec.MeasureNamed(EdgeKey{From: "A", To: "B"}, "weight"); m.Valid {
		t.Error("absent named measure reported valid")
	}
	if names := rec.MeasureNames(); len(names) != 1 || names[0] != "cost" {
		t.Errorf("MeasureNames = %v", names)
	}
	if rec.NumMeasures() != 2 {
		t.Errorf("NumMeasures = %d, want 2", rec.NumMeasures())
	}
	if err := rec.SetEdgeNamed("A", "B", "cost", math.NaN()); err == nil {
		t.Error("NaN named measure accepted")
	}
}

func TestAggregateNamedMeasure(t *testing.T) {
	st := buildMultiMeasureStore(t)
	// Time along A→D→E (default measure): 5 and 9.
	timeAgg, err := st.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if timeAgg.Values[0][0] != 5 || timeAgg.Values[0][1] != 9 {
		t.Errorf("time sums = %v, want [5 9]", timeAgg.Values[0])
	}
	// Cost along the same path: 30 and 32.
	costAgg, err := aggOn(st, PathOf("A", "D", "E").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if costAgg.Values[0][0] != 30 || costAgg.Values[0][1] != 32 {
		t.Errorf("cost sums = %v, want [30 32]", costAgg.Values[0])
	}
	if names := st.Stats().MeasureNames; len(names) != 1 || names[0] != "cost" {
		t.Errorf("MeasureNames = %v", names)
	}
}

func TestAggregateMissingNamedMeasureIsNull(t *testing.T) {
	st := buildMultiMeasureStore(t)
	agg, err := aggOn(st, PathOf("A", "D", "E").ToGraph(), Sum, "weight")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range agg.Values[0] {
		if !math.IsNaN(v) {
			t.Errorf("record %d: aggregate over absent measure = %v, want NaN", i, v)
		}
	}
}

func TestAggViewOnNamedMeasure(t *testing.T) {
	st := buildMultiMeasureStore(t)
	if err := st.MaterializeAggViewPath("cade", Sum, "cost", "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	// The cost view must serve cost queries...
	costAgg, err := aggOn(st, PathOf("A", "D", "E").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if costAgg.SegmentsPerPath[0][0] != 1 {
		t.Errorf("cost view not used: segments = %v", costAgg.SegmentsPerPath[0])
	}
	if costAgg.Values[0][0] != 30 {
		t.Errorf("cost via view = %v, want 30", costAgg.Values[0][0])
	}
	// ...but must NOT be used for the default (time) measure.
	timeAgg, err := st.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if timeAgg.SegmentsPerPath[0][0] != 0 {
		t.Errorf("cost view wrongly used for time: segments = %v", timeAgg.SegmentsPerPath[0])
	}
	if timeAgg.Values[0][0] != 5 {
		t.Errorf("time = %v, want 5", timeAgg.Values[0][0])
	}
}

func TestNamedMeasuresSurviveSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st := buildMultiMeasureStore(t)
	if err := st.MaterializeAggViewPath("c", Sum, "cost", "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	costAgg, err := aggOn(got, PathOf("A", "D", "E").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if costAgg.Values[0][0] != 30 || costAgg.Values[0][1] != 32 {
		t.Errorf("cost after reload = %v", costAgg.Values[0])
	}
	if costAgg.SegmentsPerPath[0][0] != 1 {
		t.Error("reloaded named-measure view not used")
	}
	// Incremental maintenance still works for the named-measure view.
	rec := NewRecord()
	if err := rec.SetEdge("A", "D", 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdge("D", "E", 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdgeNamed("A", "D", "cost", 100); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdgeNamed("D", "E", "cost", 200); err != nil {
		t.Fatal(err)
	}
	got.Add(rec)
	costAgg, err = aggOn(got, PathOf("A", "D", "E").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(costAgg.RecordIDs); n != 3 {
		t.Fatalf("answer size after add = %d", n)
	}
	if costAgg.Values[0][2] != 300 {
		t.Errorf("maintained cost view value = %v, want 300", costAgg.Values[0][2])
	}
}

func TestNamedMeasuresSurviveFlattening(t *testing.T) {
	rec := NewRecord()
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
		if err := rec.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdgeNamed(e[0], e[1], "cost", 7); err != nil {
			t.Fatal(err)
		}
	}
	st := Open()
	st.Add(rec) // cyclic → flattened
	if names := st.Stats().MeasureNames; len(names) != 1 || names[0] != "cost" {
		t.Fatalf("MeasureNames after flattening = %v", names)
	}
	agg, err := aggOn(st, PathOf("A", "B", "C").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.RecordIDs) != 1 || agg.Values[0][0] != 14 {
		t.Fatalf("flattened cost sum = %v", agg.Values)
	}
}
