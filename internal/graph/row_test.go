package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"grove/internal/colstore"
)

// randomRecord draws a record over a small node universe so that cycles,
// node elements, bare elements and named measures all occur often.
func randomRecord(rng *rand.Rand, nodes, elems int) *Record {
	rec := NewRecord()
	name := func() string { return fmt.Sprintf("n%d", rng.Intn(nodes)) }
	for i := 0; i < elems; i++ {
		k := E(name(), name()) // from == to is a node element
		switch rng.Intn(4) {
		case 0:
			rec.AddBareElement(k)
		case 1:
			_ = rec.SetElementNamed(k, "cost", rng.Float64())
		default:
			_ = rec.SetElement(k, rng.Float64())
		}
	}
	return rec
}

// TestRowHasCycleMatchesRecord holds the row's contiguous-range DFS to the
// map DFS it replaces, past the 128-element stack buffers too.
func TestRowHasCycleMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cyclic := 0
	for i := 0; i < 3000; i++ {
		nodes, elems := 2+rng.Intn(40), 1+rng.Intn(30)
		if i%100 == 0 {
			nodes, elems = 300, 400
		}
		rec := randomRecord(rng, nodes, elems)
		row := rec.Row()
		if !row.canonical() {
			t.Fatalf("Record.Row is not canonical: %v", row.Keys)
		}
		want := rec.HasCycle()
		if got := row.hasCycle(); got != want {
			t.Fatalf("HasCycle = %v, record says %v: %v", got, want, row.Keys)
		}
		if want {
			cyclic++
		}
		if back := row.Record().Row(); !reflect.DeepEqual(back, row) {
			t.Fatalf("Row → Record → Row changed the row:\n%+v\n%+v", row, back)
		}
	}
	if cyclic < 300 || cyclic > 2700 {
		t.Fatalf("%d of 3000 records cyclic: the generator no longer covers both sides", cyclic)
	}
}

// TestAppendRowSlowPath: a row the encoder never writes — unsorted, with a
// repeated element — must load exactly as the Record built by the same
// sequence of Set calls, and a cyclic one must never load raw.
func TestAppendRowSlowPath(t *testing.T) {
	row := &Row{
		Keys: []EdgeKey{E("B", "C"), E("A", "B"), E("B", "C")},
		Cells: []colstore.Cell{
			{Value: 1, HasValue: true},
			{Value: 2, HasValue: true, Named: []colstore.NamedValue{{Name: "z", Value: 3}, {Name: "a", Value: 4}}},
			{Value: 5, HasValue: true},
		},
	}
	if row.canonical() {
		t.Fatal("unsorted row passed the canonical check")
	}
	rel, reg := colstore.NewRelation(0), NewRegistry()
	AppendRow(rel, reg, row)
	ab, _ := reg.Lookup(E("A", "B"))
	bc, _ := reg.Lookup(E("B", "C"))
	if ab != 0 || bc != 1 {
		t.Fatalf("ids (A,B)=%d (B,C)=%d: the slow path must assign in sorted order", ab, bc)
	}
	if v, _ := rel.MeasureColumn(bc).Get(0); v != 5 {
		t.Fatalf("repeated element kept %v, want the last value 5", v)
	}
	if v, ok := rel.MeasureColumnNamed(ab, "a").Get(0); !ok || v != 4 {
		t.Fatalf("named measure a = %v,%v", v, ok)
	}

	cyc := NewRecord()
	_ = cyc.SetEdge("X", "Y", 1)
	_ = cyc.SetEdge("Y", "X", 2)
	AppendRow(rel, reg, cyc.Row())
	xy, okXY := reg.Lookup(E("X", "Y"))
	yx, okYX := reg.Lookup(E("Y", "X"))
	if okXY && okYX && rel.EdgeBitmap(xy).Contains(1) && rel.EdgeBitmap(yx).Contains(1) {
		t.Fatal("a cyclic row was loaded raw")
	}
}

// TestResolveDoesNotPinRowStrings: a key assigned its id from a row must be
// a copy, or the registry would keep a whole log frame alive per element.
func TestResolveDoesNotPinRowStrings(t *testing.T) {
	frame := "xxAAxxBBxx"
	row := &Row{Keys: []EdgeKey{E(frame[2:4], frame[6:8])}, Cells: make([]colstore.Cell, 1)}
	reg := NewRegistry()
	reg.resolve(row)
	k, _ := reg.Key(row.Cells[0].Edge)
	if k != E("AA", "BB") {
		t.Fatalf("registered %v", k)
	}
	if sameBytes(k.From, frame[2:4]) || sameBytes(k.To, frame[6:8]) {
		t.Fatal("registry key shares memory with the row's string")
	}
	// Known keys resolve without assigning.
	again := &Row{Keys: []EdgeKey{E("AA", "BB")}, Cells: make([]colstore.Cell, 1)}
	reg.resolve(again)
	if again.Cells[0].Edge != row.Cells[0].Edge || reg.Len() != 1 {
		t.Fatalf("second resolve: id %d, %d keys", again.Cells[0].Edge, reg.Len())
	}
}

func sameBytes(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// benchRecords draws n NY-shaped records: 67 edges over a 1 000-edge domain.
func benchRecords(n int) []*Record {
	rng := rand.New(rand.NewSource(3))
	recs := make([]*Record, n)
	for i := range recs {
		rec := NewRecord()
		at := rng.Intn(900)
		for rec.NumElements() < 67 {
			next := at + 1 + rng.Intn(3)
			_ = rec.SetEdge(fmt.Sprintf("n%d", at), fmt.Sprintf("n%d", next), rng.Float64())
			if at = next; at > 990 {
				at = rng.Intn(900)
			}
		}
		recs[i] = rec
	}
	return recs
}

// BenchmarkLoadRecord is the live append below the coordinator: Record.Row
// plus the row append, in steady state (every element already registered).
func BenchmarkLoadRecord(b *testing.B) {
	recs := benchRecords(512)
	rel, reg := colstore.NewRelation(0), NewRegistry()
	for _, rec := range recs {
		LoadRecord(rel, reg, rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LoadRecord(rel, reg, recs[i%len(recs)])
	}
}

// TestAppendRowSteadyStateAllocs guards the row append: once every element
// has its columns, appending a row allocates nothing but amortized column
// growth — no per-element objects, no per-view scratch for views the record
// misses.
func TestAppendRowSteadyStateAllocs(t *testing.T) {
	recs := benchRecords(64)
	rel, reg := colstore.NewRelation(0), NewRegistry()
	const warm, runs = 4096, 1000
	rows := make([]*Row, warm+runs+1)
	for i := range rows {
		rows[i] = recs[i%len(recs)].Row()
	}
	for _, row := range rows[:warm] {
		AppendRow(rel, reg, row)
	}
	next := warm
	avg := testing.AllocsPerRun(runs, func() {
		AppendRow(rel, reg, rows[next])
		next++
	})
	// The columns' slices still double now and then (a few thousand slices,
	// each at most once over these runs); anything per element would read ≥ 67.
	if avg > 8 {
		t.Fatalf("AppendRow allocates %.1f objects per 67-element row in steady state, want ≤ 8", avg)
	}
	t.Logf("%.2f allocs per row", avg)
}
