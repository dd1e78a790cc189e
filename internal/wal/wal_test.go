package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
)

// testRecord builds a record exercising every payload shape: default
// measures, named measures, and a bare element.
func testRecord(t *testing.T) *graph.Record {
	t.Helper()
	rec := graph.NewRecord()
	if err := rec.SetElement(graph.E("a", "b"), 3.5); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetElement(graph.NodeKey("n"), 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetElementNamed(graph.E("a", "b"), "cost", 9); err != nil {
		t.Fatal(err)
	}
	rec.AddBareElement(graph.E("b", "c"))
	return rec
}

// testOps is one op of every kind, in a replayable order.
func testOps(t *testing.T) []Op {
	t.Helper()
	return []Op{
		{Kind: OpAddRecord, Record: testRecord(t)},
		{Kind: OpAppendEdge, Rec: 0, From: "c", To: "d", Measure: "", Value: 2, HasValue: true},
		{Kind: OpAppendEdge, Rec: 0, From: "d", To: "e", Measure: "cost", Value: 4, HasValue: true},
		{Kind: OpTag, Rec: 0, Key: "type", Val: "fast"},
		{Kind: OpDelete, Rec: 0},
		{Kind: OpUndelete, Rec: 0},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Version: formatVersion, Shard: 3, BaseLSN: 17, Gen: "gen-000004"}
	b, err := encodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := decodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || got != h {
		t.Fatalf("decoded %+v (%d bytes), want %+v (%d)", got, n, h, len(b))
	}

	// Every single-bit corruption and every truncation must be rejected —
	// never misread as a different valid header.
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x01
		if dh, _, err := decodeHeader(bad); err == nil && dh != h {
			t.Fatalf("bit flip at %d decoded silently to %+v", i, dh)
		}
	}
	for n := 0; n < len(b); n++ {
		if _, _, err := decodeHeader(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded silently", n)
		}
	}
	if _, err := encodeHeader(Header{Gen: string(make([]byte, maxGenLen+1))}); err == nil {
		t.Fatal("oversized generation string accepted")
	}
}

// TestUnsupportedVersionHeader: an intact header of another format version
// — here a hand-built version-1 header, the layout every version shares — is
// not a corrupt one. Scan returns its identity with an error wrapping
// ErrUnsupportedVersion that names the conversion, and decodes no frame.
func TestUnsupportedVersionHeader(t *testing.T) {
	for _, v := range []uint32{1, formatVersion + 1} {
		h := Header{Version: v, Shard: 2, BaseLSN: 9, Gen: "gen-000003"}
		b, err := encodeHeader(h)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, append(b, 1, 2, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Scan(fsio.OS(), path)
		if err != nil {
			t.Fatal(err)
		}
		if res.HeaderOK || res.Header != h || res.NumOps() != 0 || !errors.Is(res.VersionErr, ErrUnsupportedVersion) {
			t.Fatalf("version %d: scan = %+v", v, res)
		}
		if fix := strings.Contains(res.VersionErr.Error(), "3239f01"); fix != (v == 1) {
			t.Errorf("version %d: %q names the conversion build: %v", v, res.VersionErr, fix)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 2, "gen-000001", 1, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(t)
	for i, op := range ops {
		lsn, err := l.Append(op)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("op %d got LSN %d", i, lsn)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != int64(len(ops)) || st.Synced != uint64(len(ops)) || st.NextLSN != uint64(len(ops)+1) {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	res, got := scanOps(t, path)
	if !res.HeaderOK || res.Header.Gen != "gen-000001" || res.Header.Shard != 2 || res.Header.BaseLSN != 1 {
		t.Fatalf("header = %+v (ok=%v)", res.Header, res.HeaderOK)
	}
	if res.TornBytes() != 0 || res.NextLSN != uint64(len(ops)+1) || len(got) != len(ops) || res.NumOps() != len(ops) {
		t.Fatalf("scan = %+v", res)
	}
	for i, op := range got {
		want := ops[i]
		if op.Kind != want.Kind || op.LSN != uint64(i+1) || res.Kinds[want.Kind] == 0 {
			t.Fatalf("op %d = %+v, want kind %v", i, op, want.Kind)
		}
	}
	// The add-record payload round-trips the record exactly.
	rec := got[0].Row.Record()
	want := testRecord(t)
	if len(rec.Elements()) != len(want.Elements()) {
		t.Fatalf("record elements = %v, want %v", rec.Elements(), want.Elements())
	}
	for _, k := range want.Elements() {
		if rec.Measure(k) != want.Measure(k) {
			t.Fatalf("element %v measure = %v, want %v", k, rec.Measure(k), want.Measure(k))
		}
	}
	if m := rec.MeasureNamed(graph.E("a", "b"), "cost"); !m.Valid || m.Value != 9 {
		t.Fatalf("named measure = %+v", m)
	}
	// The append-edge ops kept their fields.
	if e := got[1]; e.From != "c" || e.To != "d" || e.Measure != "" || !e.HasValue || e.Value != 2 {
		t.Fatalf("append-edge = %+v", e)
	}
	if e := got[3]; e.Key != "type" || e.Val != "fast" {
		t.Fatalf("tag = %+v", e)
	}
}

// TestScanPrefixUnderDamage feeds Scan every truncation and every single-bit
// corruption of a valid log: it must always return a valid strict prefix of
// the original ops — never an error, never a partial or altered op.
func TestScanPrefixUnderDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(t)
	for _, op := range ops {
		if _, err := l.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, mutated []byte) {
		t.Helper()
		p := filepath.Join(dir, "mutated.log")
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		res, got := scanOps(t, p)
		if !res.HeaderOK {
			return // damaged header: the whole log is ignored, fine
		}
		if len(got) > len(ops) {
			t.Fatalf("%s: scan invented ops: %d > %d", label, len(got), len(ops))
		}
		for i, got := range got {
			if got.Kind != ops[i].Kind || got.LSN != uint64(i+1) {
				t.Fatalf("%s: op %d = kind %v lsn %d, want kind %v lsn %d",
					label, i, got.Kind, got.LSN, ops[i].Kind, i+1)
			}
		}
		if res.GoodSize > int64(len(mutated)) {
			t.Fatalf("%s: GoodSize %d exceeds file size %d", label, res.GoodSize, len(mutated))
		}
	}

	for n := 0; n <= len(full); n++ {
		check("truncate", full[:n])
	}
	for i := 0; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] ^= 0x40
		check("bitflip", bad)
	}
	// Garbage appended past a clean log is a torn tail, not new ops.
	check("garbage-tail", append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef))
}

func TestOpenAtTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range testOps(t)[:3] {
		lsn, err := l.Append(op)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0x99}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	scan, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TornBytes() != 5 || scan.NumOps() != 3 {
		t.Fatalf("scan = %+v", scan)
	}
	l2, err := OpenAt(fsio.OS(), path, scan, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != scan.GoodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", fi.Size(), scan.GoodSize, err)
	}
	lsn, err := l2.Append(Op{Kind: OpDelete, Rec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("resume LSN = %d, want 4", lsn)
	}
	if err := l2.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornBytes() != 0 || res.NumOps() != 4 || res.NextLSN != 5 {
		t.Fatalf("rescan = %+v", res)
	}
}

func TestResetContinuesLSNs(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Op{Kind: OpDelete, Rec: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset("gen-000002"); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Op{Kind: OpUndelete, Rec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-reset LSN = %d, want 4 (LSNs continue across checkpoints)", lsn)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Resets != 1 || st.BaseLSN != 4 || st.Gen != "gen-000002" {
		t.Fatalf("stats after reset = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, ops := scanOps(t, path)
	if res.Header.Gen != "gen-000002" || res.Header.BaseLSN != 4 || len(ops) != 1 || ops[0].LSN != 4 {
		t.Fatalf("rescan after reset = %+v", res)
	}
}

// TestStickyLatch: the first failed write poisons the log; later appends fail
// fast and the on-disk file stays a clean prefix.
func TestStickyLatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	fault := fsio.NewFaultFS(fsio.OS())
	l, err := Create(fault, path, 0, "gen-000001", 1, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Kind: OpDelete, Rec: 0}); err != nil {
		t.Fatal(err)
	}
	fault.FailAt(1) // next fsio op (the frame write) fails
	if _, err := l.Append(Op{Kind: OpDelete, Rec: 1}); !errors.Is(err, fsio.ErrInjected) {
		t.Fatalf("append under fault = %v, want injected", err)
	}
	fault.FailAt(0)
	if _, err := l.Append(Op{Kind: OpDelete, Rec: 2}); err == nil {
		t.Fatal("append after latch succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after latched failure")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, ops := scanOps(t, path)
	// Depending on where the torn write cut, the file holds op 1 and possibly
	// a torn fragment of op 2 — never op 3.
	if len(ops) > 2 {
		t.Fatalf("ops past the latch reached the disk: %+v", res)
	}
	if len(ops) >= 1 && (ops[0].Rec != 0 || ops[0].LSN != 1) {
		t.Fatalf("first op corrupted: %+v", ops[0])
	}
}

// TestGroupCommit hammers one SyncAlways log from many goroutines; every
// Commit must return with its LSN durable, batching notwithstanding.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(Op{Kind: OpDelete, Rec: uint32(w*perWriter + i)})
				if err != nil {
					errc <- err
					return
				}
				if err := l.Commit(lsn); err != nil {
					errc <- err
					return
				}
				if st := l.Stats(); st.Synced < lsn {
					errc <- errors.New("Commit returned before its LSN was synced")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter || st.Synced != uint64(writers*perWriter) {
		t.Fatalf("stats = %+v", st)
	}
	if st.Fsyncs < 1 || st.Fsyncs > st.Appends+1 {
		t.Fatalf("fsyncs = %d for %d appends", st.Fsyncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumOps() != writers*perWriter || res.TornBytes() != 0 {
		t.Fatalf("scan = %d ops, torn %d", res.NumOps(), res.TornBytes())
	}
}

func TestSyncNeverAndForcedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "g", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Op{Kind: OpDelete, Rec: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 0 { // the header's sync is not a commit fsync
		t.Fatalf("fsyncs under never = %d", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 1 || st.Synced != lsn {
		t.Fatalf("after forced sync: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestScanMissing(t *testing.T) {
	res, err := Scan(fsio.OS(), filepath.Join(t.TempDir(), FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Missing() || res.HeaderOK || res.NumOps() != 0 {
		t.Fatalf("scan of absent file = %+v", res)
	}
}

// TestFrameRejectsOversizedPayload: a string is as long as the frame lets
// it be — a 70 000-byte tag key logs — and an op whose frame would pass the
// limit is refused, by Prepare as by Append, before anything is written or
// declared.
func TestFrameRejectsOversizedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	long := string(bytes.Repeat([]byte("k"), 70000))
	if _, err := l.Append(Op{Kind: OpTag, Key: long, Val: "v"}); err != nil {
		t.Fatalf("a 70 000-byte tag key: %v", err)
	}
	huge := string(bytes.Repeat([]byte("x"), maxFrameLen))
	for _, op := range []Op{
		{Kind: OpTag, Key: huge, Val: "v"},
		{Kind: OpAppendEdge, From: "a", To: huge},
		{Kind: OpAddRecord, Row: &graph.Row{Keys: []graph.EdgeKey{graph.E("a", "b"), graph.E(huge, huge)}, Cells: make([]colstore.Cell, 2)}},
	} {
		if _, err := l.Prepare(op); err == nil {
			t.Errorf("%s: an oversized frame was prepared", op.Kind)
		}
		if _, err := l.Append(op); err == nil {
			t.Errorf("%s: an oversized frame was appended", op.Kind)
		}
	}
	if st := l.Stats(); st.Appends != 1 || len(l.enc.dict) != 0 || l.Err() != nil {
		t.Fatalf("after the refusals: %d appends, %d keys, err %v", st.Appends, len(l.enc.dict), l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDictionaryNamesEachKeyOnce: a key is spelled out by the first frame
// that uses it, and only by index after that, across kinds; a frame written
// after a Reset, or after OpenAt resumed the log, agrees with the scanner
// about every index.
func TestDictionaryNamesEachKeyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	add := func(l *Log, elems ...graph.EdgeKey) {
		t.Helper()
		rec := graph.NewRecord()
		for _, k := range elems {
			if err := rec.SetElement(k, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(Op{Kind: OpAddRecord, Record: rec}); err != nil {
			t.Fatal(err)
		}
	}
	ab, bc, cd := graph.E("a", "b"), graph.E("b", "c"), graph.E("c", "d")
	add(l, ab, bc)
	before := l.Stats().AppendedBytes
	add(l, ab, bc)
	if again := l.Stats().AppendedBytes - before; again != frameHeadLen+frameBodyMin+1+1+2*(1+8) {
		t.Fatalf("a frame of two declared keys takes %d bytes", again)
	}
	if _, err := l.Append(Op{Kind: OpAppendEdge, From: "c", To: "d", Value: 2, HasValue: true}); err != nil {
		t.Fatal(err)
	}
	add(l, bc, cd)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, ops := scanOps(t, path)
	if len(ops) != 4 || res.TornBytes() != 0 {
		t.Fatalf("scan: %+v", res)
	}
	if want := []graph.EdgeKey{ab, bc, cd}; !reflect.DeepEqual(res.Dict, want) {
		t.Fatalf("dictionary %v, want %v", res.Dict, want)
	}
	if e := ops[3].Row.Cells; e[0].Edge != 1 || e[1].Edge != 2 {
		t.Fatalf("the last row names indexes %d, %d, want 1, 2", e[0].Edge, e[1].Edge)
	}

	// Resumed, the log keeps its dictionary: c→d is not declared again.
	l, err = OpenAt(fsio.OS(), path, res, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	add(l, cd, graph.E("d", "e"))
	if err := l.Reset("gen-000002"); err != nil {
		t.Fatal(err)
	}
	add(l, cd) // declared afresh after the reset
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Scan(fsio.OS(), path)
	if err != nil || res.NumOps() != 1 || !reflect.DeepEqual(res.Dict, []graph.EdgeKey{cd}) {
		t.Fatalf("after the reset: %d ops, dictionary %v, err %v", res.NumOps(), res.Dict, err)
	}
}

// TestWriteReencodesAStalePrepare: a frame prepared against a dictionary
// that another append has grown since is encoded again, so the file never
// names an index the scanner has not been told.
func TestWriteReencodesAStalePrepare(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	first, err := l.Prepare(Op{Kind: OpAppendEdge, From: "x", To: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Kind: OpAppendEdge, From: "u", To: "v"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, ops := scanOps(t, path)
	if len(ops) != 2 || res.TornBytes() != 0 || ops[1].From != "x" {
		t.Fatalf("scan: %d ops, %d torn bytes (%s)", len(ops), res.TornBytes(), res.TornReason)
	}
}

// TestDamagedFramesRefused: each way a frame can misuse the dictionary, and
// each row the live path never logs, is refused — the first two by the
// scanner, which ends the valid prefix there, the rows by graph.Row.CheckNodes,
// replay's row check.
func TestDamagedFramesRefused(t *testing.T) {
	hdr := headerOf(t)
	damaged := damagedPayloads()
	valid := rawFrame(OpAddRecord, 1, damaged[2])
	for _, tc := range []struct {
		name string
		log  []byte
		ops  int
	}{
		{"undeclared index", append(append([]byte(nil), hdr...), rawFrame(OpAddRecord, 1, damaged[0])...), 0},
		{"key declared twice in a frame", append(append([]byte(nil), hdr...), rawFrame(OpAddRecord, 1, damaged[1])...), 0},
		{"key declared again by a later frame", append(append(append([]byte(nil), hdr...), valid...), rawFrame(OpAddRecord, 2, damaged[2])...), 1},
	} {
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Scan(fsio.OS(), path)
		if err != nil || res.NumOps() != tc.ops || res.TornBytes() == 0 || len(res.Dict) != tc.ops {
			t.Errorf("%s: %d ops, %d torn bytes, dictionary %v, err %v", tc.name, res.NumOps(), res.TornBytes(), res.Dict, err)
		}
	}
	for i, row := range offPathRows() {
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, logOf(t, row), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ops := scanOps(t, path)
		if len(ops) != 1 {
			t.Fatalf("row %d: %d ops", i, len(ops))
		}
		if err := checkRow(ops[0].Row); !errors.Is(err, graph.ErrRowOrder) && !errors.Is(err, graph.ErrRowCycle) {
			t.Errorf("row %d: check = %v", i, err)
		}
	}
}
