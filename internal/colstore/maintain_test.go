package colstore

import (
	"fmt"
	"testing"

	"grove/internal/agg"
)

// TestViewsStayFreshAcrossLoads verifies incremental view maintenance: views
// materialized before a record arrives must include it afterwards, exactly
// as if they had been materialized later.
func TestViewsStayFreshAcrossLoads(t *testing.T) {
	r := buildSmallRelation(t)
	if _, err := r.MaterializeView("v45", []EdgeID{4, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaterializeAggView("p45", []EdgeID{4, 5}, agg.Sum); err != nil {
		t.Fatal(err)
	}

	// New record containing e4, e5 arrives after materialization.
	rec := appendMeasured(r, map[EdgeID]float64{4: 10, 5: 20})

	if !r.View("v45").Col.Contains(rec) {
		t.Error("graph view missed the new record")
	}
	av := r.AggView("p45")
	if !av.Col.Contains(rec) {
		t.Error("aggregate view bitmap missed the new record")
	}
	if v, ok := av.Measure.Get(rec); !ok || v != 30 {
		t.Errorf("aggregate view measure = %v,%v want 30,true", v, ok)
	}

	// A record NOT containing the view edges must stay excluded.
	rec2 := appendMeasured(r, map[EdgeID]float64{4: 1}) // e5 missing
	if r.View("v45").Col.Contains(rec2) {
		t.Error("graph view includes a non-matching record")
	}
	if av.Col.Contains(rec2) {
		t.Error("aggregate view includes a non-matching record")
	}

	// Once the missing element is appended, the record enters both views.
	if err := r.AppendEdge(rec2, 5, "", 2, true); err != nil {
		t.Fatal(err)
	}
	if !r.View("v45").Col.Contains(rec2) {
		t.Error("graph view missed a record completed by AppendEdge")
	}
	if v, ok := av.Measure.Get(rec2); !ok || v != 3 {
		t.Errorf("aggregate view measure after AppendEdge = %v,%v want 3,true", v, ok)
	}
}

// TestMaintainedViewEqualsRematerialized cross-checks incremental
// maintenance against a from-scratch rebuild.
func TestMaintainedViewEqualsRematerialized(t *testing.T) {
	r := buildSmallRelation(t)
	if _, err := r.MaterializeAggView("p", []EdgeID{6, 7}, agg.Max); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			appendMeasured(r, map[EdgeID]float64{6: float64(i), 7: float64(2 * i)})
		} else {
			appendMeasured(r, map[EdgeID]float64{6: float64(i)})
		}
	}
	maintained := r.AggView("p")
	r.DropAllViews()
	rebuilt, err := r.MaterializeAggView("p", []EdgeID{6, 7}, agg.Max)
	if err != nil {
		t.Fatal(err)
	}
	if !maintained.Col.Bits().Equals(rebuilt.Col.Bits()) {
		t.Fatal("maintained bitmap differs from rebuilt")
	}
	rebuilt.Measure.ForEach(func(rec uint32, v float64) bool {
		got, ok := maintained.Measure.Get(rec)
		if !ok || got != v {
			t.Errorf("rec %d: maintained %v,%v want %v", rec, got, ok, v)
		}
		return true
	})
}

// TestLoadedAggViewIsMaintainable verifies that views reloaded from disk can
// still be maintained (the function is re-bound by name).
func TestLoadedAggViewIsMaintainable(t *testing.T) {
	dir := t.TempDir()
	r := buildSmallRelation(t)
	if _, err := r.MaterializeAggView("p", []EdgeID{6, 7}, agg.Sum); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendMeasured(got, map[EdgeID]float64{6: 7, 7: 8})
	if v, ok := got.AggView("p").Measure.Get(rec); !ok || v != 15 {
		t.Errorf("reloaded view not maintained: %v,%v", v, ok)
	}
}

// TestMaintainViewsAllocs: a record every aggregate view takes costs no
// scratch per view — maintainViews folds each view's path in one buffer —
// so appending it allocates only the columns' amortized growth.
func TestMaintainViewsAllocs(t *testing.T) {
	r := NewRelation(0)
	cells := make([]Cell, 8)
	for e := range cells {
		cells[e] = Cell{Edge: EdgeID(e), Value: float64(e), HasValue: true}
	}
	r.AppendRow(cells)
	for a := EdgeID(0); a < 8; a++ {
		for b := EdgeID(0); b < 8; b++ {
			if a == b {
				continue
			}
			if _, err := r.MaterializeAggView(fmt.Sprintf("p%d-%d", a, b), []EdgeID{a, b}, agg.Sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		r.AppendRow(cells)
	}
	avg := testing.AllocsPerRun(1000, func() { r.AppendRow(cells) })
	if avg > 8 {
		t.Fatalf("appending a record 56 aggregate views take allocates %.1f objects, want ≤ 8", avg)
	}
	t.Logf("%.2f allocs per record", avg)
}
