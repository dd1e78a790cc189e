package colstore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"grove/internal/agg"
)

func TestMeasureColumnSetGet(t *testing.T) {
	c := NewMeasureColumn()
	c.Set(5, 1.5)
	c.Set(2, 2.5)
	c.Set(9, 3.5)
	c.Set(5, 9.9) // replace

	if v, ok := c.Get(5); !ok || v != 9.9 {
		t.Errorf("Get(5) = %v,%v want 9.9,true", v, ok)
	}
	if v, ok := c.Get(2); !ok || v != 2.5 {
		t.Errorf("Get(2) = %v,%v want 2.5,true", v, ok)
	}
	if v, ok := c.Get(9); !ok || v != 3.5 {
		t.Errorf("Get(9) = %v,%v want 3.5,true", v, ok)
	}
	if _, ok := c.Get(3); ok {
		t.Error("Get(3) reported present for NULL")
	}
	if c.Count() != 3 {
		t.Errorf("Count = %d, want 3", c.Count())
	}
}

func TestMeasureColumnForEachOrder(t *testing.T) {
	c := NewMeasureColumn()
	c.Set(30, 3)
	c.Set(10, 1)
	c.Set(20, 2)
	var recs []uint32
	var vals []float64
	c.ForEach(func(rec uint32, v float64) bool {
		recs = append(recs, rec)
		vals = append(vals, v)
		return true
	})
	wantRecs := []uint32{10, 20, 30}
	wantVals := []float64{1, 2, 3}
	for i := range wantRecs {
		if recs[i] != wantRecs[i] || vals[i] != wantVals[i] {
			t.Fatalf("ForEach order = %v/%v, want %v/%v", recs, vals, wantRecs, wantVals)
		}
	}
}

func TestQuickMeasureColumnMatchesMap(t *testing.T) {
	f := func(pairs []struct {
		Rec uint32
		V   float64
	}) bool {
		c := NewMeasureColumn()
		ref := map[uint32]float64{}
		for _, p := range pairs {
			rec := p.Rec % 100000
			v := p.V
			if v != v { // NaN guard: NaN measures are rejected elsewhere
				v = 0
			}
			c.Set(rec, v)
			ref[rec] = v
		}
		if c.Count() != len(ref) {
			return false
		}
		for rec, want := range ref {
			if got, ok := c.Get(rec); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func buildSmallRelation(t *testing.T) *Relation {
	t.Helper()
	// The three records of paper Fig. 2 / Table 1. Edge ids 1..7.
	r := NewRelation(0)
	appendMeasured(r, map[EdgeID]float64{1: 3, 2: 4, 3: 2, 4: 1, 5: 2})
	appendMeasured(r, map[EdgeID]float64{2: 1, 3: 2, 4: 2, 5: 1, 6: 4, 7: 1})
	appendMeasured(r, map[EdgeID]float64{4: 5, 5: 4, 6: 3, 7: 1})
	return r
}

// appendMeasured appends one record holding each edge of vals with its
// default measure, through AppendRow, the relation's one whole-record
// insert.
func appendMeasured(r *Relation, vals map[EdgeID]float64) uint32 {
	cells := make([]Cell, 0, len(vals))
	for e, v := range vals {
		cells = append(cells, Cell{Edge: e, Value: v, HasValue: true})
	}
	return r.AppendRow(cells)
}

// appendEdges appends one record holding every edge of edges with default
// measure 1.
func appendEdges(r *Relation, edges ...EdgeID) uint32 {
	cells := make([]Cell, len(edges))
	for i, e := range edges {
		cells[i] = Cell{Edge: e, Value: 1, HasValue: true}
	}
	return r.AppendRow(cells)
}

// edgeRange returns the edge ids lo, lo+1, …, hi-1.
func edgeRange(lo, hi EdgeID) []EdgeID {
	var out []EdgeID
	for e := lo; e < hi; e++ {
		out = append(out, e)
	}
	return out
}

func TestRelationTable1Bitmaps(t *testing.T) {
	r := buildSmallRelation(t)
	if r.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d, want 3", r.NumRecords())
	}
	// Table 1: b1 = (1,0,0), b4 = (1,1,1), b6 = (0,1,1).
	cases := []struct {
		edge EdgeID
		want []uint32
	}{
		{1, []uint32{0}},
		{4, []uint32{0, 1, 2}},
		{6, []uint32{1, 2}},
	}
	for _, c := range cases {
		got := r.EdgeBitmap(c.edge).ToSlice()
		if len(got) != len(c.want) {
			t.Fatalf("edge %d bitmap = %v, want %v", c.edge, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("edge %d bitmap = %v, want %v", c.edge, got, c.want)
			}
		}
	}
}

func TestRelationTable1Views(t *testing.T) {
	r := buildSmallRelation(t)
	// bv1: AND of e1..e4 → only r1 (Table 1, column bv1 = 1,0,0).
	v, err := r.MaterializeView("bv1", []EdgeID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Col.Bits().ToSlice(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("bv1 = %v, want [0]", got)
	}
	// Aggregate view p1 = [e6,e7], SUM: mp1 = NULL,5,4; bp1 = 0,1,1.
	av, err := r.MaterializeAggView("p1", []EdgeID{6, 7}, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := av.Measure.Get(0); ok {
		t.Error("r1 should be NULL in mp1")
	}
	if got, ok := av.Measure.Get(1); !ok || got != 5 {
		t.Errorf("mp1[r2] = %v,%v want 5,true", got, ok)
	}
	if got, ok := av.Measure.Get(2); !ok || got != 4 {
		t.Errorf("mp1[r3] = %v,%v want 4,true", got, ok)
	}
	if got := av.Col.Bits().ToSlice(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("bp1 = %v, want [1 2]", got)
	}
}

func TestMaterializeViewErrors(t *testing.T) {
	r := buildSmallRelation(t)
	if _, err := r.MaterializeView("", []EdgeID{1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := r.MaterializeView("v", nil); err == nil {
		t.Error("empty edge set accepted")
	}
	if _, err := r.MaterializeView("v", []EdgeID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaterializeView("v", []EdgeID{2}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := r.MaterializeAggView("a", []EdgeID{1}, agg.Sum); err == nil {
		t.Error("single-edge aggregate view accepted")
	}
	if _, err := r.MaterializeAggView("a", []EdgeID{1, 2}, agg.Func{}); err == nil {
		t.Error("invalid aggregate function accepted")
	}
}

func TestViewDrop(t *testing.T) {
	r := buildSmallRelation(t)
	if _, err := r.MaterializeView("v", []EdgeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	r.DropAllViews()
	if r.View("v") != nil || len(r.Views()) != 0 {
		t.Error("view still present after drop")
	}
	if r.FetchEdgeBitmap(1, nil).Cardinality() != 1 {
		t.Error("dropping the views changed a base column")
	}
}

func TestTrackerAccounting(t *testing.T) {
	r := buildSmallRelation(t)
	start := r.Tracker().Snapshot()
	_ = r.FetchEdgeBitmap(1, nil)
	_ = r.FetchEdgeBitmap(2, nil)
	_ = r.FetchMeasureColumn(1, nil)
	s := r.Tracker().Snapshot().Sub(start)
	if s.BitmapColumnsFetched != 2 {
		t.Errorf("BitmapColumnsFetched = %d, want 2", s.BitmapColumnsFetched)
	}
	if s.MeasureColumnsFetched != 1 {
		t.Errorf("MeasureColumnsFetched = %d, want 1", s.MeasureColumnsFetched)
	}
	if s.ColumnsFetched() != 3 {
		t.Errorf("ColumnsFetched = %d, want 3", s.ColumnsFetched())
	}
	if s.BytesRead == 0 {
		t.Error("BytesRead = 0, want > 0")
	}
	// Unknown columns are still charged as a fetch.
	_ = r.FetchEdgeBitmap(999, nil)
	if got := r.Tracker().Snapshot().Sub(start).BitmapColumnsFetched; got != 3 {
		t.Errorf("after unknown edge fetch, BitmapColumnsFetched = %d, want 3", got)
	}
}

func TestPartitioning(t *testing.T) {
	r := NewRelation(10)
	appendEdges(r, edgeRange(0, 35)...)
	if got := r.PartitionOf(0); got != 0 {
		t.Errorf("PartitionOf(0) = %d", got)
	}
	if got := r.PartitionOf(34); got != 3 {
		t.Errorf("PartitionOf(34) = %d", got)
	}
	if got := r.NumPartitions(); got != 4 {
		t.Errorf("NumPartitions = %d, want 4", got)
	}
	if got := r.PartitionSpan([]EdgeID{1, 2, 11, 29}); got != 3 {
		t.Errorf("PartitionSpan = %d, want 3", got)
	}
}

func TestJoinPartitionsAccounting(t *testing.T) {
	r := buildSmallRelation(t)
	start := r.Tracker().Snapshot()
	answer := r.EdgeBitmap(4) // all three records
	r.JoinPartitions(3, answer, nil)
	if got := r.Tracker().Snapshot().Sub(start).PartitionJoins; got != 6 { // 2 joins × 3 records
		t.Errorf("PartitionJoins = %d, want 6", got)
	}
	start = r.Tracker().Snapshot()
	r.JoinPartitions(1, answer, nil)
	if got := r.Tracker().Snapshot().Sub(start).PartitionJoins; got != 0 {
		t.Errorf("single-partition join accounted %d", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := buildSmallRelation(t)
	if _, err := r.MaterializeView("bv1", []EdgeID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaterializeAggView("p1", []EdgeID{6, 7}, agg.Sum); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != r.NumRecords() {
		t.Errorf("NumRecords = %d, want %d", got.NumRecords(), r.NumRecords())
	}
	if got.TotalMeasures() != r.TotalMeasures() {
		t.Errorf("TotalMeasures = %d, want %d", got.TotalMeasures(), r.TotalMeasures())
	}
	for _, e := range r.Edges() {
		want := r.EdgeBitmap(e)
		if !got.EdgeBitmap(e).Equals(want) {
			t.Errorf("edge %d bitmap mismatch", e)
		}
		wm, gm := r.MeasureColumn(e), got.MeasureColumn(e)
		if (wm == nil) != (gm == nil) {
			t.Fatalf("edge %d measure presence mismatch", e)
		}
		if wm != nil {
			wm.ForEach(func(rec uint32, v float64) bool {
				if gv, ok := gm.Get(rec); !ok || gv != v {
					t.Errorf("edge %d rec %d: %v vs %v", e, rec, gv, v)
				}
				return true
			})
		}
	}
	v := got.View("bv1")
	if v == nil || !v.Col.Bits().Equals(r.View("bv1").Col.Bits()) {
		t.Error("graph view bv1 did not survive round trip")
	}
	av := got.AggView("p1")
	if av == nil || av.Func != "SUM" || len(av.Path) != 2 {
		t.Fatalf("agg view p1 metadata lost: %+v", av)
	}
	if mv, ok := av.Measure.Get(1); !ok || mv != 5 {
		t.Errorf("agg view measure lost: %v,%v", mv, ok)
	}
	if sz, err := DiskSizeBytes(dir); err != nil || sz <= 0 {
		t.Errorf("DiskSizeBytes = %d, %v", sz, err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope"); err == nil {
		t.Fatal("Load of missing dir succeeded")
	}
}

func TestSaveLoadLargeRandom(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	r := NewRelation(100)
	for i := 0; i < 2000; i++ {
		cells := make([]Cell, 5+rng.Intn(20))
		for j := range cells {
			e := EdgeID(rng.Intn(300))
			cells[j] = Cell{Edge: e, Value: float64(rng.Intn(1000)) / 10, HasValue: true}
		}
		r.AppendRow(cells)
	}
	r.Optimize()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 2000 {
		t.Fatalf("NumRecords = %d", got.NumRecords())
	}
	if got.TotalMeasures() != r.TotalMeasures() {
		t.Fatalf("TotalMeasures mismatch: %d vs %d", got.TotalMeasures(), r.TotalMeasures())
	}
	for _, e := range r.Edges() {
		if !got.EdgeBitmap(e).Equals(r.EdgeBitmap(e)) {
			t.Fatalf("edge %d bitmap mismatch after round trip", e)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	r := buildSmallRelation(t)
	base := r.BaseSizeBytes()
	if base <= 0 {
		t.Fatal("BaseSizeBytes = 0")
	}
	if r.ViewSizeBytes() != 0 {
		t.Fatalf("ViewSizeBytes = %d before materialization", r.ViewSizeBytes())
	}
	if _, err := r.MaterializeView("v", []EdgeID{4, 5}); err != nil {
		t.Fatal(err)
	}
	if r.ViewSizeBytes() <= 0 {
		t.Error("ViewSizeBytes = 0 after materialization")
	}
	if r.SizeBytes() != r.BaseSizeBytes()+r.ViewSizeBytes() {
		t.Error("SizeBytes != base + views")
	}
}

// relationMethods is *Relation's exported method set. A record's contents
// change through AppendRow (a whole record) and AppendEdge (one element of
// an existing record) only, beside Delete, Undelete and Tag; a second write
// entry added here is a second write path to keep in step with the log.
var relationMethods = []string{
	"Account", "AccountMeasuresScanned", "AccountRecordsReturned", "AggView",
	"AggViews", "AppendEdge", "AppendRow", "BaseSizeBytes", "BeginRead",
	"Catalog", "Close", "ClusterPartitions", "Delete", "DropAllViews",
	"EdgeBitmap", "Edges", "EndRead", "FetchAggViewBitmap",
	"FetchAggViewMeasure", "FetchEdgeBitmap", "FetchMeasureColumn",
	"FetchMeasureColumnNamed", "FetchTagBitmap", "FetchViewBitmap", "HasEdge",
	"JoinPartitions", "MaskDeleted", "MaterializeAggView",
	"MaterializeAggViewOn", "MaterializeView", "MeasureColumn",
	"MeasureColumnNamed", "MeasureNames", "NumDeleted", "NumPartitions",
	"NumRecords", "Optimize", "PageError", "PartitionOf", "PartitionSpan",
	"Save", "SaveFS", "SaveFSGen", "SetGCProtect", "SetPageCacheBytes",
	"SetPartitionMap", "SetSnapshotKeep", "SizeBytes", "SourceGeneration",
	"StorageStats", "Tag", "TagKeys", "TagValues", "TotalMeasures", "Tracker",
	"Undelete", "Version", "View", "ViewSizeBytes", "ViewUsage", "Views",
}

func TestRelationMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*Relation)(nil))
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	want := slices.Clone(relationMethods)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Relation methods changed:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}
