package wal

import (
	"fmt"
	"testing"

	"grove/internal/graph"
)

// addRecordFrame returns a decoder and one encoded add-record frame of elems
// edges with default measures — 67 is the NY-like corpus's mean record —
// with its LSN. The frame is a log's second: the first declared every key,
// and the decoder has read it, so the frame is what a steady-state log
// holds — one index and one value per element.
func addRecordFrame(tb testing.TB, elems int) (*decoder, []byte, uint64) {
	tb.Helper()
	rec := graph.NewRecord()
	for i := 0; i < elems; i++ {
		if err := rec.SetEdge(fmt.Sprintf("n%d", 100+i), fmt.Sprintf("n%d", 101+i), float64(i)/3); err != nil {
			tb.Fatal(err)
		}
	}
	x := newEncoder(nil)
	op := Op{Kind: OpAddRecord, Record: rec}
	first, declared, err := x.encode(&op)
	if err != nil {
		tb.Fatal(err)
	}
	x.commit(declared)
	frame, declared, err := x.encode(&op)
	if err != nil || len(declared) != 0 {
		tb.Fatalf("second frame: %d declarations, err %v", len(declared), err)
	}
	const lsn = 7
	seal(first, lsn-1)
	seal(frame, lsn)
	d := newDecoder()
	if _, _, ok, why := d.decodeFrame(first, lsn-1); !ok {
		tb.Fatal(why)
	}
	return d, frame, lsn
}

// BenchmarkWALDecodeAddRecord decodes one 67-element add-record frame of a
// steady-state log: CRC, LSN check and the payload straight into the
// decoder's reused flat row, whose cells hold dictionary indexes. Up to
// commit 8591ddf this built a graph.Record — 459 allocations for this frame;
// a fresh row per frame cost three; the reused one costs none.
func BenchmarkWALDecodeAddRecord(b *testing.B) {
	d, frame, lsn := addRecordFrame(b, 67)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, why := d.decodeFrame(frame, lsn); !ok {
			b.Fatal(why)
		}
	}
}

// TestDecodeAddRecordAllocs guards the decoder: a steady-state frame reuses
// the op, its row and the row's slices, and its keys are the dictionary's, so
// it allocates nothing, however many elements it carries.
func TestDecodeAddRecordAllocs(t *testing.T) {
	for _, elems := range []int{1, 67, 1000} {
		d, frame, lsn := addRecordFrame(t, elems)
		avg := testing.AllocsPerRun(100, func() {
			if _, _, ok, why := d.decodeFrame(frame, lsn); !ok {
				t.Fatal(why)
			}
		})
		if avg != 0 {
			t.Errorf("decoding a %d-element frame allocates %.0f objects, want 0", elems, avg)
		}
	}
}
