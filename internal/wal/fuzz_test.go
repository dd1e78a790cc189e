package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
)

// FuzzWALRecord throws arbitrary bytes at the payload decoder: it must never
// panic, and anything it does accept must re-encode and decode to the same
// op — no partially-applied or shape-shifting payloads.
func FuzzWALRecord(f *testing.F) {
	rec := graph.NewRecord()
	if err := rec.SetElement(graph.E("a", "b"), 2); err != nil {
		f.Fatal(err)
	}
	if err := rec.SetElementNamed(graph.E("a", "b"), "cost", 7); err != nil {
		f.Fatal(err)
	}
	rec.AddBareElement(graph.NodeKey("n"))
	seeds := []Op{
		{Kind: OpAddRecord, Record: rec},
		{Kind: OpAppendEdge, Rec: 3, From: "x", To: "y", Measure: "m", Value: 1.5, HasValue: true},
		{Kind: OpAppendEdge, Rec: 0, From: "x", To: "x"},
		{Kind: OpDelete, Rec: 9},
		{Kind: OpUndelete, Rec: 9},
		{Kind: OpTag, Rec: 1, Key: "k", Val: "v"},
	}
	for _, op := range seeds {
		payload, err := op.encodePayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(op.Kind), payload)
	}
	f.Add(uint8(OpAddRecord), []byte{0xff, 0xff, 0xff, 0xff}) // huge element count
	f.Add(uint8(99), []byte{})                                // unknown kind

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		op, err := decodePayload(Kind(kind), 1, payload)
		if err != nil {
			return // rejected whole: exactly what damage should get
		}
		// Accepted payloads must round-trip stably.
		re, err := op.encodePayload()
		if err != nil {
			t.Fatalf("decoded op failed to re-encode: %v", err)
		}
		op2, err := decodePayload(op.Kind, 1, re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if op2.Kind != op.Kind || op2.Rec != op.Rec || op2.From != op.From ||
			op2.To != op.To || op2.Measure != op.Measure || op2.HasValue != op.HasValue ||
			op2.Value != op.Value || op2.Key != op.Key || op2.Val != op.Val {
			t.Fatalf("round trip changed the op: %+v vs %+v", op, op2)
		}
		if op.Record != nil || op2.Record != nil {
			t.Fatal("the decoder filled Op.Record")
		}
		if !reflect.DeepEqual(op.Row, op2.Row) {
			t.Fatalf("round trip changed the row: %+v vs %+v", op.Row, op2.Row)
		}
	})
}

// FuzzWALReplay throws arbitrary bytes at the log scanner as whole files: it
// must never panic and never yield anything but a valid prefix — every
// returned op individually decodable, LSNs a contiguous chain from the
// header's base.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real log so mutations explore near-valid shapes.
	dir, err := os.MkdirTemp("", "grove-walfuzz-")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, FileName)
	l, err := Create(fsio.OS(), path, 1, "gen-000002", 5, Config{Policy: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	rec := graph.NewRecord()
	if err := rec.SetElement(graph.E("a", "b"), 1); err != nil {
		f.Fatal(err)
	}
	for _, op := range []Op{
		{Kind: OpAddRecord, Record: rec},
		{Kind: OpAppendEdge, From: "a", To: "c", Value: 2, HasValue: true},
		{Kind: OpTag, Key: "k", Val: "v"},
	} {
		if _, err := l.Append(op); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GROVEWAL"))
	f.Add([]byte{})
	// Rows the encoder never writes but a hand-made log can hold: unsorted,
	// with a repeated element, cyclic. Each is one whole checksum-valid log.
	for _, row := range offPathRows() {
		f.Add(logOf(f, row))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Scan(fsio.OS(), p)
		if err != nil {
			t.Fatalf("Scan errored on damage (must describe, not fail): %v", err)
		}
		if !res.HeaderOK {
			if len(res.Ops) != 0 {
				t.Fatalf("ops decoded under a bad header: %d", len(res.Ops))
			}
			return
		}
		want := res.Header.BaseLSN
		for i, op := range res.Ops {
			if op.LSN != want {
				t.Fatalf("op %d LSN %d breaks the chain (want %d)", i, op.LSN, want)
			}
			want++
		}
		if res.NextLSN != want {
			t.Fatalf("NextLSN %d, want %d", res.NextLSN, want)
		}
		if res.GoodSize > res.FileSize || res.GoodSize < 0 {
			t.Fatalf("GoodSize %d out of range (file %d)", res.GoodSize, res.FileSize)
		}
		// A clean scan of the untouched seed must see all three ops.
		if string(data) == string(valid) && len(res.Ops) != 3 {
			t.Fatalf("valid log scanned to %d ops", len(res.Ops))
		}
		// Whatever add-record frames survived must apply without a panic, and
		// what they load must be acyclic: a non-canonical or cyclic row takes
		// the slow path, it is never loaded raw.
		rel, reg := colstore.NewRelation(0), graph.NewRegistry()
		for _, op := range res.Ops {
			if op.Kind != OpAddRecord {
				continue
			}
			if op.Record != nil || op.Row == nil {
				t.Fatalf("add-record op decoded to Record %v, Row %v", op.Record, op.Row)
			}
			requireAcyclic(t, rel, reg, graph.AppendRow(rel, reg, op.Row))
		}
	})
}

// offPathRows are add-record rows that must not reach the row append as they
// stand.
func offPathRows() []*graph.Row {
	cell := func(v float64) colstore.Cell { return colstore.Cell{Value: v, HasValue: true} }
	return []*graph.Row{
		{Keys: []graph.EdgeKey{graph.E("b", "c"), graph.E("a", "b")}, Cells: []colstore.Cell{cell(1), cell(2)}},                        // unsorted
		{Keys: []graph.EdgeKey{graph.E("a", "b"), graph.E("a", "b")}, Cells: []colstore.Cell{cell(1), cell(2)}},                        // repeated element
		{Keys: []graph.EdgeKey{graph.E("a", "b"), graph.E("b", "c"), graph.E("c", "a")}, Cells: []colstore.Cell{cell(1), {}, cell(3)}}, // cyclic
	}
}

// logOf returns the bytes of a one-frame log holding row exactly as given.
func logOf(tb testing.TB, row *graph.Row) []byte {
	tb.Helper()
	hdr, err := encodeHeader(Header{Version: formatVersion, BaseLSN: 1})
	if err != nil {
		tb.Fatal(err)
	}
	op := Op{Kind: OpAddRecord, Row: row}
	payload, err := op.encodePayload()
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := encodeFrame(OpAddRecord, 1, payload)
	if err != nil {
		tb.Fatal(err)
	}
	return append(hdr, frame...)
}

// requireAcyclic rebuilds record rec's edges from the relation's bitmap
// columns and fails the test if they contain a directed cycle.
func requireAcyclic(t *testing.T, rel *colstore.Relation, reg *graph.Registry, rec uint32) {
	t.Helper()
	g := graph.NewGraph()
	for id := colstore.EdgeID(0); int(id) < reg.Len(); id++ {
		if b := rel.EdgeBitmap(id); b != nil && b.Contains(rec) {
			k, _ := reg.Key(id)
			g.AddElement(k)
		}
	}
	if g.HasCycle() {
		t.Fatalf("record %d was loaded with a cycle: %v", rec, g.Elements())
	}
}

// TestOffPathRowsTakeTheSlowPath runs the fuzz seeds above as a plain test:
// each scans as one valid frame (the decoder does not sort or reject them)
// and loads as the Record built by the same sequence of Set calls would.
func TestOffPathRowsTakeTheSlowPath(t *testing.T) {
	for i, row := range offPathRows() {
		p := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(p, logOf(t, row), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Scan(fsio.OS(), p)
		if err != nil || len(res.Ops) != 1 || res.TornBytes() != 0 {
			t.Fatalf("row %d: scanned %d ops, %d torn bytes, err %v", i, len(res.Ops), res.TornBytes(), err)
		}
		if !reflect.DeepEqual(res.Ops[0].Row.Keys, row.Keys) {
			t.Fatalf("row %d: the decoder reordered the keys: %v", i, res.Ops[0].Row.Keys)
		}
		rel, reg := colstore.NewRelation(0), graph.NewRegistry()
		requireAcyclic(t, rel, reg, graph.AppendRow(rel, reg, res.Ops[0].Row))
		if first, _ := reg.Key(0); first.From != "a" {
			t.Fatalf("row %d: first id went to %v: the slow path must assign in sorted order", i, first)
		}
		if i == 1 {
			ab, _ := reg.Lookup(graph.E("a", "b"))
			if v, _ := rel.MeasureColumn(ab).Get(0); v != 2 || reg.Len() != 1 {
				t.Fatalf("repeated element: value %v in %d columns, want the last value 2 in one", v, reg.Len())
			}
		}
	}
}
