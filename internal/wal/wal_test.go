package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

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
	if _, err := encodeHeader(Header{Gen: string(make([]byte, maxStringLen+1))}); err == nil {
		t.Fatal("oversized generation string accepted")
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

	res, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HeaderOK || res.Header.Gen != "gen-000001" || res.Header.Shard != 2 || res.Header.BaseLSN != 1 {
		t.Fatalf("header = %+v (ok=%v)", res.Header, res.HeaderOK)
	}
	if res.TornBytes() != 0 || res.NextLSN != uint64(len(ops)+1) || len(res.Ops) != len(ops) {
		t.Fatalf("scan = %+v", res)
	}
	for i, got := range res.Ops {
		want := ops[i]
		if got.Kind != want.Kind || got.LSN != uint64(i+1) {
			t.Fatalf("op %d = %+v, want kind %v", i, got, want.Kind)
		}
	}
	// The add-record payload round-trips the record exactly.
	rec := res.Ops[0].Row.Record()
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
	if e := res.Ops[1]; e.From != "c" || e.To != "d" || e.Measure != "" || !e.HasValue || e.Value != 2 {
		t.Fatalf("append-edge = %+v", e)
	}
	if e := res.Ops[3]; e.Key != "type" || e.Val != "fast" {
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
		res, err := Scan(fsio.OS(), p)
		if err != nil {
			t.Fatalf("%s: Scan errored: %v", label, err)
		}
		if !res.HeaderOK {
			return // damaged header: the whole log is ignored, fine
		}
		if len(res.Ops) > len(ops) {
			t.Fatalf("%s: scan invented ops: %d > %d", label, len(res.Ops), len(ops))
		}
		for i, got := range res.Ops {
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
	if scan.TornBytes() != 5 || len(scan.Ops) != 3 {
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
	if res.TornBytes() != 0 || len(res.Ops) != 4 || res.NextLSN != 5 {
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
	res, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Gen != "gen-000002" || res.Header.BaseLSN != 4 || len(res.Ops) != 1 || res.Ops[0].LSN != 4 {
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
	res, err := Scan(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	// Depending on where the torn write cut, the file holds op 1 and possibly
	// a torn fragment of op 2 — never op 3.
	if len(res.Ops) > 2 {
		t.Fatalf("ops past the latch reached the disk: %+v", res)
	}
	if len(res.Ops) >= 1 && (res.Ops[0].Rec != 0 || res.Ops[0].LSN != 1) {
		t.Fatalf("first op corrupted: %+v", res.Ops[0])
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
	if len(res.Ops) != writers*perWriter || res.TornBytes() != 0 {
		t.Fatalf("scan = %d ops, torn %d", len(res.Ops), res.TornBytes())
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
	if !res.Missing() || res.HeaderOK || len(res.Ops) != 0 {
		t.Fatalf("scan of absent file = %+v", res)
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := encodeFrame(OpDelete, 1, make([]byte, maxFrameLen)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	op := Op{Kind: OpTag, Rec: 0, Key: string(bytes.Repeat([]byte("k"), maxStringLen+1)), Val: "v"}
	if _, err := op.encodePayload(); err == nil {
		t.Fatal("oversized tag key accepted")
	}
}
