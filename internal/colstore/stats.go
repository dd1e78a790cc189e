package colstore

import (
	"sync/atomic"

	"grove/internal/obs"
)

// Tracker accumulates the I/O accounting the column store keeps while
// answering queries. The paper's cost model (§5.1.1) charges a query
// proportionally to the number of columns it fetches — all bitmap columns
// have the same length (one bit per record) and thus the same unit cost —
// so the column counts are the primary experimental metric. Byte counts are
// kept as well so physical trends can be cross-checked.
//
// A Relation owns one tracker. Its counters only grow: a reader measures a
// stretch of work as the difference of two snapshots, and /metrics exports
// them as they stand. Counters are atomic so that concurrent read-only
// queries (which account their I/O as a side effect) stay race-free.
type Tracker struct {
	bitmapCols  atomic.Int64
	measureCols atomic.Int64
	measures    atomic.Int64
	bytes       atomic.Int64
	joins       atomic.Int64
	records     atomic.Int64
}

// Snapshot returns the current counters.
//
//grove:hotpath
func (t *Tracker) Snapshot() obs.IODelta {
	return obs.IODelta{
		BitmapColumnsFetched:  t.bitmapCols.Load(),
		MeasureColumnsFetched: t.measureCols.Load(),
		MeasuresScanned:       t.measures.Load(),
		BytesRead:             t.bytes.Load(),
		PartitionJoins:        t.joins.Load(),
		RecordsReturned:       t.records.Load(),
	}
}

func (t *Tracker) onBitmapFetch(bytes int) {
	t.bitmapCols.Add(1)
	t.bytes.Add(int64(bytes))
}

func (t *Tracker) onMeasureFetch(bytes int) {
	t.measureCols.Add(1)
	t.bytes.Add(int64(bytes))
}

func (t *Tracker) onMeasuresScanned(n int) { t.measures.Add(int64(n)) }

func (t *Tracker) onPartitionJoin(n int) { t.joins.Add(int64(n)) }

func (t *Tracker) onRecordsReturned(n int) { t.records.Add(int64(n)) }
