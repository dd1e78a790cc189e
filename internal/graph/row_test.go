package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"grove/internal/colstore"
)

// randomRecord draws a record over a small node universe so that cycles,
// node elements, bare elements and named measures all occur often, with its
// map model.
func randomRecord(rng *rand.Rand, nodes, elems int) (*Record, *refRecord) {
	rec, m := NewRecord(), newRef()
	name := func() string { return fmt.Sprintf("n%d", rng.Intn(nodes)) }
	for i := 0; i < elems; i++ {
		k := E(name(), name()) // from == to is a node element
		switch rng.Intn(4) {
		case 0:
			rec.AddBareElement(k)
			m.addElement(k)
		case 1:
			v := rng.Float64()
			_ = rec.SetElementNamed(k, "cost", v)
			m.set(k, "cost", v)
		default:
			v := rng.Float64()
			_ = rec.SetElement(k, v)
			m.set(k, DefaultMeasure, v)
		}
	}
	return rec, m
}

// TestRowHasCycleMatchesRecord holds the contiguous-run DFS to the map DFS
// it replaced, past the 128-element stack buffers too, both as hasCycle runs
// it on a row's names and as Cycles.Has runs it on node numbers — assigned
// across all rows in first-seen order and the scratch reused from row to
// row, as replay does — and checks that a row survives the trip through
// Row.Record unchanged. The rows hold node elements (from == to) often.
func TestRowHasCycleMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numbers := map[string]int32{}
	number := func(name string) int32 {
		n, ok := numbers[name]
		if !ok {
			n = int32(len(numbers))
			numbers[name] = n
		}
		return n
	}
	var cycles Cycles
	cyclic := 0
	for i := 0; i < 3000; i++ {
		nodes, elems := 2+rng.Intn(40), 1+rng.Intn(30)
		if i%100 == 0 {
			nodes, elems = 300, 400
		}
		rec, m := randomRecord(rng, nodes, elems)
		row := rec.Row()
		if err := row.orderErr(); err != nil {
			t.Fatalf("Record.Row is not canonical: %v", err)
		}
		want := m.hasCycle()
		if got := hasCycle(row.Keys); got != want {
			t.Fatalf("hasCycle = %v, the map DFS says %v: %v", got, want, row.Keys)
		}
		from, to := make([]int32, len(row.Keys)), make([]int32, len(row.Keys))
		for j, k := range row.Keys {
			from[j], to[j] = number(fmt.Sprintf("%d:%s", i%7, k.From)), number(fmt.Sprintf("%d:%s", i%7, k.To))
		}
		if got := cycles.Has(from, to); got != want {
			t.Fatalf("Cycles.Has = %v, the map DFS says %v: %v", got, want, row.Keys)
		}
		if err := row.CheckNodes(from, to, &cycles); (err != nil) != want {
			t.Fatalf("CheckNodes = %v, the map DFS says cyclic %v: %v", err, want, row.Keys)
		}
		if i == 2999 {
			if avg := testing.AllocsPerRun(10, func() { cycles.Has(from, to) }); avg != 0 {
				t.Fatalf("Cycles.Has allocates %.0f objects on scratch that has grown", avg)
			}
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
	if !errors.Is(checkRow(row), ErrRowOrder) {
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
	reg.ResolveRow(row)
	k, _ := reg.Key(row.Cells[0].Edge)
	if k != E("AA", "BB") {
		t.Fatalf("registered %v", k)
	}
	if sameBytes(k.From, frame[2:4]) || sameBytes(k.To, frame[6:8]) {
		t.Fatal("registry key shares memory with the row's string")
	}
	// Known keys resolve without assigning.
	again := &Row{Keys: []EdgeKey{E("AA", "BB")}, Cells: make([]colstore.Cell, 1)}
	reg.ResolveRow(again)
	if again.Cells[0].Edge != row.Cells[0].Edge || reg.Len() != 1 {
		t.Fatalf("second resolve: id %d, %d keys", again.Cells[0].Edge, reg.Len())
	}
}

func sameBytes(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// benchEdge is one SetEdge call of a bench record.
type benchEdge struct {
	from, to string
	v        float64
}

// benchShapes draws n NY-shaped records as the SetEdge calls that build
// them: 67 distinct edges over a 1 000-edge domain, in walk order.
func benchShapes(n int) [][]benchEdge {
	rng := rand.New(rand.NewSource(3))
	shapes := make([][]benchEdge, n)
	for i := range shapes {
		seen := make(map[EdgeKey]bool)
		at := rng.Intn(900)
		for len(seen) < 67 {
			next := at + 1 + rng.Intn(3)
			e := benchEdge{fmt.Sprintf("n%d", at), fmt.Sprintf("n%d", next), rng.Float64()}
			seen[E(e.from, e.to)] = true
			shapes[i] = append(shapes[i], e)
			if at = next; at > 990 {
				at = rng.Intn(900)
			}
		}
	}
	return shapes
}

func buildRecord(shape []benchEdge) *Record {
	rec := NewRecord()
	for _, e := range shape {
		_ = rec.SetEdge(e.from, e.to, e.v)
	}
	return rec
}

// benchRecords builds n records of benchShapes.
func benchRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i, shape := range benchShapes(n) {
		recs[i] = buildRecord(shape)
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

// BenchmarkBuildRecord builds a 67-edge record by SetEdge, the way an
// application hands a record to Store.Add.
func BenchmarkBuildRecord(b *testing.B) {
	shapes := benchShapes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildRecord(shapes[i%len(shapes)])
	}
}

// BenchmarkBuildAndLoadRecord is the whole write below the coordinator:
// build the record, then LoadRecord it. Build and Row trade work, so only
// their sum says whether an append got cheaper.
func BenchmarkBuildAndLoadRecord(b *testing.B) {
	shapes := benchShapes(512)
	rel, reg := colstore.NewRelation(0), NewRegistry()
	for _, shape := range shapes {
		LoadRecord(rel, reg, buildRecord(shape))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LoadRecord(rel, reg, buildRecord(shapes[i%len(shapes)]))
	}
}

// TestRecordBuildAllocs pins the cost of building a record: a 67-edge record
// built by SetEdge allocates the record with its graph once and grows each of
// its three slices (elements, nodes, measures) three times — no per-element
// objects.
func TestRecordBuildAllocs(t *testing.T) {
	shape := benchShapes(1)[0]
	if n := buildRecord(shape).NumElements(); n != 67 {
		t.Fatalf("shape has %d elements, want 67", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { buildRecord(shape) }); allocs > 10 {
		t.Fatalf("building a 67-edge record allocates %.0f times, want ≤ 10", allocs)
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

// checkRow is Row.CheckNodes with the row's node names numbered here.
func checkRow(row *Row) error {
	numbers := map[string]int32{}
	number := func(name string) int32 {
		n, ok := numbers[name]
		if !ok {
			n = int32(len(numbers))
			numbers[name] = n
		}
		return n
	}
	from, to := make([]int32, len(row.Keys)), make([]int32, len(row.Keys))
	for i, k := range row.Keys {
		from[i], to[i] = number(k.From), number(k.To)
	}
	return row.CheckNodes(from, to, new(Cycles))
}

// TestRowCheck: CheckNodes accepts what Record.Row produces and names each
// way a row can fall short of it.
func TestRowCheck(t *testing.T) {
	cell := colstore.Cell{Value: 1, HasValue: true}
	named := func(names ...string) colstore.Cell {
		c := cell
		for _, n := range names {
			c.Named = append(c.Named, colstore.NamedValue{Name: n, Value: 2})
		}
		return c
	}
	for _, tc := range []struct {
		row  Row
		want error
	}{
		{Row{Keys: []EdgeKey{E("A", "B"), E("B", "C"), NodeKey("C")}, Cells: []colstore.Cell{cell, named("a", "b"), cell}}, nil},
		{Row{Keys: []EdgeKey{E("B", "C"), E("A", "B")}, Cells: []colstore.Cell{cell, cell}}, ErrRowOrder},
		{Row{Keys: []EdgeKey{E("A", "B"), E("A", "B")}, Cells: []colstore.Cell{cell, cell}}, ErrRowOrder},
		{Row{Keys: []EdgeKey{E("A", "B")}, Cells: []colstore.Cell{named("b", "a")}}, ErrRowOrder},
		{Row{Keys: []EdgeKey{E("A", "B")}, Cells: []colstore.Cell{named(DefaultMeasure)}}, ErrRowOrder},
		{Row{Keys: []EdgeKey{E("A", "B"), E("B", "C"), E("C", "A")}, Cells: []colstore.Cell{cell, cell, cell}}, ErrRowCycle},
	} {
		if err := checkRow(&tc.row); !errors.Is(err, tc.want) || (err == nil) != (tc.want == nil) {
			t.Errorf("CheckNodes(%v) = %v, want %v", tc.row.Keys, err, tc.want)
		}
	}
}
