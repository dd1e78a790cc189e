package colstore

import (
	"fmt"
	"sync/atomic"
)

// Stats is a snapshot of the I/O accounting the column store keeps while
// answering queries. The paper's cost model (§5.1.1) charges a query
// proportionally to the number of columns it fetches — all bitmap columns
// have the same length (one bit per record) and thus the same unit cost —
// so the counters below are the primary experimental metric. Byte counts are
// kept as well so physical trends can be cross-checked.
type Stats struct {
	BitmapColumnsFetched  int   // b_i, b_v and b_p columns read
	MeasureColumnsFetched int   // m_i and m_p columns read
	MeasuresScanned       int64 // individual measure values materialized
	BytesRead             int64 // physical payload bytes touched
	PartitionJoins        int64 // recid-joins across vertical partitions
	RecordsReturned       int64 // graph records in query answers
}

// ColumnsFetched returns the total number of columns fetched, the unit of the
// paper's cost model.
func (s Stats) ColumnsFetched() int {
	return s.BitmapColumnsFetched + s.MeasureColumnsFetched
}

// Add returns the pairwise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		BitmapColumnsFetched:  s.BitmapColumnsFetched + o.BitmapColumnsFetched,
		MeasureColumnsFetched: s.MeasureColumnsFetched + o.MeasureColumnsFetched,
		MeasuresScanned:       s.MeasuresScanned + o.MeasuresScanned,
		BytesRead:             s.BytesRead + o.BytesRead,
		PartitionJoins:        s.PartitionJoins + o.PartitionJoins,
		RecordsReturned:       s.RecordsReturned + o.RecordsReturned,
	}
}

// Sub returns s - o; useful for measuring a single query given cumulative
// counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		BitmapColumnsFetched:  s.BitmapColumnsFetched - o.BitmapColumnsFetched,
		MeasureColumnsFetched: s.MeasureColumnsFetched - o.MeasureColumnsFetched,
		MeasuresScanned:       s.MeasuresScanned - o.MeasuresScanned,
		BytesRead:             s.BytesRead - o.BytesRead,
		PartitionJoins:        s.PartitionJoins - o.PartitionJoins,
		RecordsReturned:       s.RecordsReturned - o.RecordsReturned,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("stats{bitmapCols=%d measureCols=%d measures=%d bytes=%d partJoins=%d records=%d}",
		s.BitmapColumnsFetched, s.MeasureColumnsFetched, s.MeasuresScanned,
		s.BytesRead, s.PartitionJoins, s.RecordsReturned)
}

// StatsSink receives every accounting event the tracker records, as it
// happens. It is the tap observability layers hook to mirror the cost-model
// counters into externally visible metrics: unlike Snapshot, a sink is
// monotonic — Reset zeroes the tracker but never rewinds what a sink has
// already seen. Implementations must be safe for concurrent use (events
// arrive from every querying goroutine).
type StatsSink interface {
	OnBitmapFetch(bytes int64)
	OnMeasureFetch(bytes int64)
	OnMeasuresScanned(n int64)
	OnPartitionJoins(n int64)
	OnRecordsReturned(n int64)
}

// Tracker accumulates Stats. A Relation owns one tracker; the query engine
// resets or snapshots it around query execution. Counters are atomic so that
// concurrent read-only queries (which account their I/O as a side effect)
// stay race-free; Reset/Snapshot around concurrent queries see a consistent
// total once those queries finish.
type Tracker struct {
	bitmapCols  atomic.Int64
	measureCols atomic.Int64
	measures    atomic.Int64
	bytes       atomic.Int64
	joins       atomic.Int64
	records     atomic.Int64

	// sink, when set, mirrors every event. Set it before serving queries
	// (attaching mid-flight is not synchronized).
	sink StatsSink
}

// SetSink attaches a sink mirroring every subsequent accounting event
// (nil detaches). Attach before serving queries.
func (t *Tracker) SetSink(s StatsSink) { t.sink = s }

// Reset zeroes the counters.
func (t *Tracker) Reset() {
	t.bitmapCols.Store(0)
	t.measureCols.Store(0)
	t.measures.Store(0)
	t.bytes.Store(0)
	t.joins.Store(0)
	t.records.Store(0)
}

// Snapshot returns the current counters.
func (t *Tracker) Snapshot() Stats {
	return Stats{
		BitmapColumnsFetched:  int(t.bitmapCols.Load()),
		MeasureColumnsFetched: int(t.measureCols.Load()),
		MeasuresScanned:       t.measures.Load(),
		BytesRead:             t.bytes.Load(),
		PartitionJoins:        t.joins.Load(),
		RecordsReturned:       t.records.Load(),
	}
}

func (t *Tracker) onBitmapFetch(bytes int) {
	t.bitmapCols.Add(1)
	t.bytes.Add(int64(bytes))
	if t.sink != nil {
		t.sink.OnBitmapFetch(int64(bytes))
	}
}

func (t *Tracker) onMeasureFetch(bytes int) {
	t.measureCols.Add(1)
	t.bytes.Add(int64(bytes))
	if t.sink != nil {
		t.sink.OnMeasureFetch(int64(bytes))
	}
}

func (t *Tracker) onMeasuresScanned(n int) {
	t.measures.Add(int64(n))
	if t.sink != nil {
		t.sink.OnMeasuresScanned(int64(n))
	}
}

func (t *Tracker) onPartitionJoin(n int) {
	t.joins.Add(int64(n))
	if t.sink != nil {
		t.sink.OnPartitionJoins(int64(n))
	}
}

func (t *Tracker) onRecordsReturned(n int) {
	t.records.Add(int64(n))
	if t.sink != nil {
		t.sink.OnRecordsReturned(int64(n))
	}
}
