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

// account charges a finished operation's own I/O record to the counters: one
// atomic add per non-zero field.
func (t *Tracker) account(d obs.IODelta) {
	add := func(c *atomic.Int64, n int64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(&t.bitmapCols, d.BitmapColumnsFetched)
	add(&t.measureCols, d.MeasureColumnsFetched)
	add(&t.measures, d.MeasuresScanned)
	add(&t.bytes, d.BytesRead)
	add(&t.joins, d.PartitionJoins)
	add(&t.records, d.RecordsReturned)
}

// The on* charges go to cost when the caller keeps its own record of the
// operation (a traced query, which hands the record to account when it
// ends), and straight to the counters when cost is nil.

func (t *Tracker) onBitmapFetch(cost *obs.IODelta, bytes int) {
	if cost != nil {
		cost.BitmapColumnsFetched++
		cost.BytesRead += int64(bytes)
		return
	}
	t.bitmapCols.Add(1)
	t.bytes.Add(int64(bytes))
}

func (t *Tracker) onMeasureFetch(cost *obs.IODelta, bytes int) {
	if cost != nil {
		cost.MeasureColumnsFetched++
		cost.BytesRead += int64(bytes)
		return
	}
	t.measureCols.Add(1)
	t.bytes.Add(int64(bytes))
}

func (t *Tracker) onMeasuresScanned(cost *obs.IODelta, n int) {
	if cost != nil {
		cost.MeasuresScanned += int64(n)
		return
	}
	t.measures.Add(int64(n))
}

func (t *Tracker) onPartitionJoin(cost *obs.IODelta, n int) {
	if cost != nil {
		cost.PartitionJoins += int64(n)
		return
	}
	t.joins.Add(int64(n))
}

func (t *Tracker) onRecordsReturned(cost *obs.IODelta, n int) {
	if cost != nil {
		cost.RecordsReturned += int64(n)
		return
	}
	t.records.Add(int64(n))
}
