package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
)

// FuzzWALRecord throws arbitrary bytes at the payload decoder, as the first
// frame of a log: it must never panic, a payload it refuses must leave no
// declaration behind, and anything it does accept must re-encode and decode
// to the same op and the same dictionary — no partially-applied or
// shape-shifting payloads. The seeds include a payload naming an undeclared
// index and one declaring a key twice, which the decoder refuses, and rows
// with a repeated element or out of order, which it passes on and
// graph.Row.CheckNodes (replay's row check) refuses.
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
		f.Add(uint8(op.Kind), payloadOf(f, op))
	}
	f.Add(uint8(OpAddRecord), []byte{0xff, 0xff, 0xff, 0xff}) // huge element count
	f.Add(uint8(99), []byte{})                                // unknown kind
	for _, p := range damagedPayloads() {
		f.Add(uint8(OpAddRecord), p)
	}
	for _, row := range offPathRows()[:2] {
		f.Add(uint8(OpAddRecord), payloadOf(f, Op{Kind: OpAddRecord, Row: row}))
	}

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		x := newDecoder()
		op, err := x.decodePayload(Kind(kind), 1, payload)
		if err != nil {
			if len(x.keys) != 0 || len(x.declared) != 0 {
				t.Fatalf("a refused payload left %d declarations", len(x.keys))
			}
			return // rejected whole: exactly what damage should get
		}
		if op.Kind == OpAddRecord {
			requireDictRow(t, op.Row, x.keys)
			if err := checkRow(op.Row); err != nil && !errors.Is(err, graph.ErrRowOrder) && !errors.Is(err, graph.ErrRowCycle) {
				t.Fatalf("row check failed with an unnamed reason: %v", err)
			}
		}
		// Accepted payloads must round-trip stably.
		frame, _, err := newEncoder(nil).encode(op)
		if err != nil {
			t.Fatalf("decoded op failed to re-encode: %v", err)
		}
		x2 := newDecoder()
		op2, err := x2.decodePayload(op.Kind, 1, frame[frameHeadLen+frameBodyMin:])
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if !reflect.DeepEqual(x.keys, x2.keys) {
			t.Fatalf("round trip changed the dictionary: %v vs %v", x.keys, x2.keys)
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

// FuzzWALReplay throws arbitrary bytes at the log reader as whole files: it
// must never panic and never yield anything but a valid prefix — every
// returned op individually decodable, LSNs a contiguous chain from the
// header's base, every row naming the dictionary's keys by their indexes —
// and must yield exactly what the whole-file decode of the same bytes does.
// A row replay's check (graph.Row.CheckNodes) accepts must load acyclic.
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
		{Kind: OpAppendEdge, From: "a", To: "b", Measure: "m", Value: 3, HasValue: true},
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
	// Rows the live path never logs but a hand-made log can hold: unsorted,
	// with a repeated element, cyclic. Each is one whole checksum-valid log.
	for _, row := range offPathRows() {
		f.Add(logOf(f, row))
	}
	f.Add(logOf(f, alternatingRows()...))
	// Frames the decoder refuses: an undeclared index; a key declared by a
	// valid first frame and again by the second.
	hdr := headerOf(f)
	f.Add(append(hdr, rawFrame(OpAddRecord, 1, damagedPayloads()[0])...))
	dup := damagedPayloads()[2]
	f.Add(append(append(hdr, rawFrame(OpAddRecord, 1, dup)...), rawFrame(OpAddRecord, 2, dup)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		requireReaderMatches(t, "fuzz input", data)
		p := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ops := scanOps(t, p)
		if !res.HeaderOK {
			if len(ops) != 0 {
				t.Fatalf("ops decoded under a bad header: %d", len(ops))
			}
			return
		}
		want := res.Header.BaseLSN
		for i, op := range ops {
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
		// A clean scan of the untouched seed must see all four ops.
		if string(data) == string(valid) && len(ops) != 4 {
			t.Fatalf("valid log scanned to %d ops", len(ops))
		}
		// Whatever add-record frames survived must name the dictionary's
		// keys, and a row replay accepts must load acyclic.
		rel, reg := colstore.NewRelation(0), graph.NewRegistry()
		for _, op := range ops {
			if op.Kind != OpAddRecord {
				continue
			}
			if op.Record != nil || op.Row == nil {
				t.Fatalf("add-record op decoded to Record %v, Row %v", op.Record, op.Row)
			}
			requireDictRow(t, op.Row, res.Dict)
			if checkRow(op.Row) != nil {
				continue // replay refuses it
			}
			requireAcyclic(t, rel, reg, graph.AppendRow(rel, reg, op.Row))
		}
	})
}

// offPathRows are add-record rows that must not reach the row append as they
// stand: unsorted, with a repeated element, cyclic.
func offPathRows() []*graph.Row {
	cell := func(v float64) colstore.Cell { return colstore.Cell{Value: v, HasValue: true} }
	return []*graph.Row{
		{Keys: []graph.EdgeKey{graph.E("b", "c"), graph.E("a", "b")}, Cells: []colstore.Cell{cell(1), cell(2)}},                        // unsorted
		{Keys: []graph.EdgeKey{graph.E("a", "b"), graph.E("a", "b")}, Cells: []colstore.Cell{cell(1), cell(2)}},                        // repeated element
		{Keys: []graph.EdgeKey{graph.E("a", "b"), graph.E("b", "c"), graph.E("c", "a")}, Cells: []colstore.Cell{cell(1), {}, cell(3)}}, // cyclic
	}
}

// damagedPayloads are add-record payloads the decoder must refuse as a
// log's first frame: [0] names index 0 with nothing declared, [1] declares
// a→b twice. [2] is a valid payload declaring a→b, which a second frame of
// the same log declares twice.
func damagedPayloads() [][]byte {
	ab := []byte{1, 'a', 1, 'b'}
	return [][]byte{
		{0, 1, 0 << 2},
		append(append(append([]byte{2}, ab...), ab...), 1, 0<<2),
		append(append([]byte{1}, ab...), 1, 0<<2),
	}
}

// payloadOf encodes op as the first frame of a log and returns its payload.
func payloadOf(tb testing.TB, op Op) []byte {
	tb.Helper()
	frame, _, err := newEncoder(nil).encode(&op)
	if err != nil {
		tb.Fatal(err)
	}
	return frame[frameHeadLen+frameBodyMin:]
}

// rawFrame frames a payload exactly as given.
func rawFrame(kind Kind, lsn uint64, payload []byte) []byte {
	frame := make([]byte, frameHeadLen+frameBodyMin, frameHeadLen+frameBodyMin+len(payload))
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeadLen))
	frame[frameHeadLen] = byte(kind)
	seal(frame, lsn)
	return frame
}

// headerOf is the header of a log numbering from LSN 1.
func headerOf(tb testing.TB) []byte {
	tb.Helper()
	hdr, err := encodeHeader(Header{Version: formatVersion, BaseLSN: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return hdr
}

// logOf returns the bytes of a one-frame log holding row exactly as given.
func logOf(tb testing.TB, rows ...*graph.Row) []byte {
	tb.Helper()
	log, enc := headerOf(tb), newEncoder(nil)
	for i, row := range rows {
		frame, declared, err := enc.encode(&Op{Kind: OpAddRecord, Row: row})
		if err != nil {
			tb.Fatal(err)
		}
		seal(frame, uint64(i+1))
		log = append(log, frame...)
		enc.commit(declared)
	}
	return log
}

// alternatingRows are rows over the same two elements whose cells switch,
// frame by frame, between holding a value, named measures, both and
// neither: a decode that reuses one row must clear what the frame before
// it left in each cell.
func alternatingRows() []*graph.Row {
	keys := []graph.EdgeKey{graph.E("a", "b"), graph.E("b", "c")}
	named := func(v float64) []colstore.NamedValue { return []colstore.NamedValue{{Name: "m", Value: v}} }
	cells := [][]colstore.Cell{
		{{Value: 1, HasValue: true, Named: named(2)}, {Named: named(3)}},
		{{}, {Value: 4, HasValue: true}},
		{{Named: named(5)}, {}},
		{{Value: 6, HasValue: true}, {Value: 7, HasValue: true, Named: named(8)}},
		{{}, {}},
	}
	rows := make([]*graph.Row, len(cells))
	for i, c := range cells {
		rows[i] = &graph.Row{Keys: keys, Cells: c}
	}
	return rows
}

// requireDictRow fails the test unless every cell of a decoded row holds the
// dictionary index of its key.
func requireDictRow(t *testing.T, row *graph.Row, dict []graph.EdgeKey) {
	t.Helper()
	for i, k := range row.Keys {
		if e := row.Cells[i].Edge; int(e) >= len(dict) || dict[e] != k {
			t.Fatalf("cell %d of the row holds index %d for %v (dictionary of %d)", i, e, k, len(dict))
		}
	}
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
// each scans as one valid frame (the decoder does not sort or reject them),
// replay's row check refuses it, and graph.AppendRow — the loader for rows
// from anywhere but the log — loads it as the Record built by the same
// sequence of Set calls would.
func TestOffPathRowsTakeTheSlowPath(t *testing.T) {
	for i, row := range offPathRows() {
		p := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(p, logOf(t, row), 0o644); err != nil {
			t.Fatal(err)
		}
		res, ops := scanOps(t, p)
		if len(ops) != 1 || res.TornBytes() != 0 {
			t.Fatalf("row %d: scanned %d ops, %d torn bytes", i, len(ops), res.TornBytes())
		}
		if !reflect.DeepEqual(ops[0].Row.Keys, row.Keys) {
			t.Fatalf("row %d: the decoder reordered the keys: %v", i, ops[0].Row.Keys)
		}
		if checkRow(ops[0].Row) == nil {
			t.Fatalf("row %d: the row check accepted it", i)
		}
		rel, reg := colstore.NewRelation(0), graph.NewRegistry()
		requireAcyclic(t, rel, reg, graph.AppendRow(rel, reg, ops[0].Row))
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
