package wal

import (
	"fmt"
	"testing"

	"grove/internal/graph"
)

// addRecordFrame returns one encoded add-record frame of elems edges with
// default measures — 67 is the NY-like corpus's mean record — and its LSN.
func addRecordFrame(tb testing.TB, elems int) ([]byte, uint64) {
	tb.Helper()
	rec := graph.NewRecord()
	for i := 0; i < elems; i++ {
		if err := rec.SetEdge(fmt.Sprintf("n%d", 100+i), fmt.Sprintf("n%d", 101+i), float64(i)/3); err != nil {
			tb.Fatal(err)
		}
	}
	op := Op{Kind: OpAddRecord, Record: rec}
	payload, err := op.encodePayload()
	if err != nil {
		tb.Fatal(err)
	}
	const lsn = 7
	frame, err := encodeFrame(OpAddRecord, lsn, payload)
	if err != nil {
		tb.Fatal(err)
	}
	return frame, lsn
}

// BenchmarkWALDecodeAddRecord decodes one 67-element add-record frame: CRC,
// LSN check and the payload straight into a flat row. Up to commit 8591ddf
// this built a graph.Record — 459 allocations for this frame; the row costs
// four however many elements the frame carries.
func BenchmarkWALDecodeAddRecord(b *testing.B) {
	frame, lsn := addRecordFrame(b, 67)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok, why := decodeFrame(frame, lsn); !ok {
			b.Fatal(why)
		}
	}
}

// TestDecodeAddRecordAllocs guards the decoder: the row, its two slices and
// the one string the names are cut from — nothing per element.
func TestDecodeAddRecordAllocs(t *testing.T) {
	for _, elems := range []int{1, 67, 1000} {
		frame, lsn := addRecordFrame(t, elems)
		avg := testing.AllocsPerRun(100, func() {
			if _, _, ok, why := decodeFrame(frame, lsn); !ok {
				t.Fatal(why)
			}
		})
		if avg > 4 {
			t.Errorf("decoding a %d-element frame allocates %.0f objects, want ≤ 4", elems, avg)
		}
	}
}
