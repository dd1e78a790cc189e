package obs

import (
	"sync"
	"time"
)

// Query kinds, the paper's two query classes.
const (
	KindGraph   = "graph"   // graph query or boolean combination of them (§3.2)
	KindPathAgg = "pathagg" // path aggregation F_Gq, per record or scalar (§3.4)

	// WAL lifecycle traces (not queries, but the same ring and tooling
	// observe them): a replay at load time, a checkpoint at save time.
	KindWALReplay     = "wal-replay"
	KindWALCheckpoint = "wal-checkpoint"
)

// Lifecycle phases, in the order a query passes through them. A trace holds
// one span per contiguous stretch of a phase; compound queries (path
// aggregations, expressions) may revisit a phase, yielding several spans
// with the same name — PhaseTotals merges them.
const (
	PhasePlan        = "plan"         // read lock, element resolution, view rewrite / path cover
	PhaseFetch       = "fetch"        // bitmap column fetches
	PhaseIntersect   = "intersect"    // AND kernel + delete masking
	PhaseMeasureScan = "measure-scan" // measure column reads (ValuesFor)
	PhaseAggregate   = "aggregate"    // per-record folding
	PhaseCancelled   = "cancelled"    // query abandoned on context cancellation
	PhaseBlockSkip   = "block-skip"   // zone-map block skipping on a paged measure scan

	// Coordinator phases of a scatter-gathered query (DESIGN.md §8, §12).
	PhaseFanOut    = "fan-out"    // shard sub-queries dispatched and awaited
	PhaseQueueWait = "queue-wait" // dispatch → execution start, one span per shard
	PhaseMerge     = "merge"      // per-shard partials combined

	// WAL phases (DESIGN.md §14). Replay traces carry one wal-scan and one
	// wal-apply span per shard; checkpoint traces a snapshot span and a
	// wal-truncate span.
	PhaseWALScan     = "wal-scan"     // log file read and its frames decoded
	PhaseWALApply    = "wal-apply"    // decoded ops re-applied atop the snapshot
	PhaseSnapshot    = "snapshot"     // generational save inside a checkpoint
	PhaseWALTruncate = "wal-truncate" // log reset after the commit point
)

// ShardCoordinator is the Shard label of a coordinator-level root trace or
// span — one that belongs to the scatter-gather itself rather than to any
// single shard. Engine-emitted traces carry their shard's index (0 for a
// single-shard store).
const ShardCoordinator = -1

// IODelta is the column store's I/O accounting (the paper's §5.1.1 cost
// unit): a tracker's cumulative counters, or the difference of two
// snapshots attributed to a span, trace or any stretch of work. It lives
// here so the obs package stays dependency-free (colstore feeds obs, not the
// reverse).
type IODelta struct {
	BitmapColumnsFetched  int64 `json:"bitmapColumnsFetched"`  // b_i, b_v and b_p columns read
	MeasureColumnsFetched int64 `json:"measureColumnsFetched"` // m_i and m_p columns read
	MeasuresScanned       int64 `json:"measuresScanned"`       // individual measure values materialized
	BytesRead             int64 `json:"bytesRead"`             // physical payload bytes touched
	PartitionJoins        int64 `json:"partitionJoins"`        // recid-joins across vertical partitions
	RecordsReturned       int64 `json:"recordsReturned"`       // graph records in query answers
}

// ColumnsFetched returns the total number of columns fetched, the unit of the
// paper's cost model.
func (d IODelta) ColumnsFetched() int64 {
	return d.BitmapColumnsFetched + d.MeasureColumnsFetched
}

// Sub returns d - o.
func (d IODelta) Sub(o IODelta) IODelta {
	return IODelta{
		BitmapColumnsFetched:  d.BitmapColumnsFetched - o.BitmapColumnsFetched,
		MeasureColumnsFetched: d.MeasureColumnsFetched - o.MeasureColumnsFetched,
		MeasuresScanned:       d.MeasuresScanned - o.MeasuresScanned,
		BytesRead:             d.BytesRead - o.BytesRead,
		PartitionJoins:        d.PartitionJoins - o.PartitionJoins,
		RecordsReturned:       d.RecordsReturned - o.RecordsReturned,
	}
}

// Add returns d + o.
func (d IODelta) Add(o IODelta) IODelta {
	return IODelta{
		BitmapColumnsFetched:  d.BitmapColumnsFetched + o.BitmapColumnsFetched,
		MeasureColumnsFetched: d.MeasureColumnsFetched + o.MeasureColumnsFetched,
		MeasuresScanned:       d.MeasuresScanned + o.MeasuresScanned,
		BytesRead:             d.BytesRead + o.BytesRead,
		PartitionJoins:        d.PartitionJoins + o.PartitionJoins,
		RecordsReturned:       d.RecordsReturned + o.RecordsReturned,
	}
}

// Span is one timed phase of a query's lifecycle with its I/O delta. Shard
// is the shard the span executed on (ShardCoordinator for coordinator-level
// phases of a scatter-gathered query).
type Span struct {
	Phase         string  `json:"phase"`
	Shard         int     `json:"shard"`
	DurationNanos int64   `json:"durationNanos"`
	IO            IODelta `json:"io"`
}

// Duration returns the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNanos) }

// Trace is the complete record of one query's execution. On a sharded store
// a scatter-gathered query records one root trace (Shard == ShardCoordinator,
// spans fan-out / queue-wait / merge) whose Children are the per-shard engine
// traces; a single-shard query records a flat trace with Shard 0 and no
// Children. Error is the failed query's error text (a cancelled one's is the
// context's, and an engine trace also ends in a cancelled span).
type Trace struct {
	Kind           string  `json:"kind"`
	Query          string  `json:"query,omitempty"`
	Shard          int     `json:"shard"`
	StartUnixNanos int64   `json:"startUnixNanos"`
	DurationNanos  int64   `json:"durationNanos"`
	Error          string  `json:"error,omitempty"`
	Spans          []Span  `json:"spans,omitempty"`
	Children       []Trace `json:"children,omitempty"`
	IO             IODelta `json:"io"`
}

// Duration returns the trace's total wall time.
func (t Trace) Duration() time.Duration { return time.Duration(t.DurationNanos) }

// PhaseTotals merges spans by phase (summing wall time and I/O), preserving
// the order of first appearance — the per-phase breakdown EXPLAIN ANALYZE
// prints.
func (t Trace) PhaseTotals() []Span {
	var out []Span
	idx := make(map[string]int, len(t.Spans))
	for _, s := range t.Spans {
		if i, ok := idx[s.Phase]; ok {
			out[i].DurationNanos += s.DurationNanos
			out[i].IO = out[i].IO.Add(s.IO)
			continue
		}
		idx[s.Phase] = len(out)
		out = append(out, s)
	}
	return out
}

// ActiveTrace accumulates spans for one in-flight query. It is owned by a
// single goroutine (the query's executor). TraceRing.Record moves it into a
// ring slot and hands back the trace that slot evicts, which the caller may
// keep and reopen with StartTraceIn: a query engine that does so allocates
// and copies nothing per traced query once the ring is full, and takes the
// ring's lock once. Spans are timed on the monotonic clock: one read per
// trace start and per span boundary. The trace's wall-clock start is derived
// when it is recorded (see TraceRing.Record and Finish).
//
// The trace keeps a cumulative I/O reading; a span's and the trace's I/O
// are differences of it. A query engine lets the column store charge its
// fetches to the reading itself (Cost), starting from zero, and marks span
// boundaries with Enter. A coordinator passes snapshots of shared counters
// to StartTrace, Begin, Finish and Record, which take them as the new
// reading.
type ActiveTrace struct {
	trace     Trace
	start     time.Duration // since clockBase
	startIO   IODelta
	spanPhase string
	spanStart time.Duration // since start
	spanIO    IODelta
	io        IODelta // the current reading
}

// clockBase is the origin of the monotonic readings traces keep.
var clockBase = time.Now()

// StartTrace opens a fresh trace and, unless phase is empty, its first span,
// both on one clock reading. io is the current cumulative I/O reading; the
// trace's deltas are computed against it.
func StartTrace(kind, query, phase string, io IODelta) *ActiveTrace {
	return StartTraceIn(nil, kind, query, phase, io)
}

// StartTraceIn is StartTrace reusing a, a finished trace nothing else holds
// (one TraceRing.Record handed back), and its span and child arrays; a nil a
// allocates.
func StartTraceIn(a *ActiveTrace, kind, query, phase string, io IODelta) *ActiveTrace {
	if a == nil {
		// The common lifecycle (plan, fetch, intersect, measure-scan,
		// aggregate, + slack) fits without growing.
		a = &ActiveTrace{trace: Trace{Spans: make([]Span, 0, 8)}}
	}
	now := time.Since(clockBase)
	*a = ActiveTrace{
		trace: Trace{Kind: kind, Query: query,
			Spans: a.trace.Spans[:0], Children: a.trace.Children[:0]},
		start:     now,
		startIO:   io,
		spanPhase: phase,
		spanIO:    io,
		io:        io,
	}
	return a
}

// Begin takes io as the trace's I/O reading, then enters phase.
func (a *ActiveTrace) Begin(phase string, io IODelta) {
	if a == nil {
		return
	}
	a.io = io
	a.Enter(phase)
}

// Enter closes the open span (if any) and starts a new one for phase, at the
// trace's current I/O reading. Entering the phase that is already open
// continues its span without reading the clock.
func (a *ActiveTrace) Enter(phase string) {
	if a == nil || phase == a.spanPhase {
		return
	}
	now := time.Since(clockBase) - a.start
	a.closeSpan(now)
	a.spanPhase, a.spanStart, a.spanIO = phase, now, a.io
}

func (a *ActiveTrace) closeSpan(now time.Duration) {
	if a.spanPhase == "" {
		return
	}
	a.trace.Spans = append(a.trace.Spans, Span{
		Phase:         a.spanPhase,
		Shard:         a.trace.Shard,
		DurationNanos: (now - a.spanStart).Nanoseconds(),
		IO:            a.io.Sub(a.spanIO),
	})
	a.spanPhase = ""
}

// Cost returns the trace's I/O reading for the column store's fetches to
// charge; nil for a nil trace, which makes them charge the shared counters
// instead.
func (a *ActiveTrace) Cost() *IODelta {
	if a == nil {
		return nil
	}
	return &a.io
}

// SetShard labels the trace (and every span it closes from here on) with the
// shard it executes on. Engines set their own shard index at StartTrace time;
// a coordinator root uses ShardCoordinator.
func (a *ActiveTrace) SetShard(shard int) {
	if a == nil {
		return
	}
	a.trace.Shard = shard
}

// AddSpan appends a pre-built span (e.g. a per-shard queue-wait measured by
// the coordinator) without disturbing the currently open phase span.
func (a *ActiveTrace) AddSpan(s Span) {
	if a == nil {
		return
	}
	a.trace.Spans = append(a.trace.Spans, s)
}

// AddChild attaches a finished sub-trace — a shard engine's trace of its
// scatter-gather sub-query — to the in-flight trace.
func (a *ActiveTrace) AddChild(t Trace) {
	if a == nil {
		return
	}
	a.trace.Children = append(a.trace.Children, t)
}

// Finish closes the open span, totals the trace and returns it. The trace's
// wall-clock start is the wall clock now, less its duration.
func (a *ActiveTrace) Finish(io IODelta) Trace {
	if a == nil {
		return Trace{}
	}
	a.finish(io)
	a.trace.StartUnixNanos = time.Now().UnixNano() - a.trace.DurationNanos
	return a.trace
}

func (a *ActiveTrace) finish(io IODelta) {
	a.io = io
	now := time.Since(clockBase) - a.start
	a.closeSpan(now)
	a.trace.DurationNanos = now.Nanoseconds()
	a.trace.IO = a.io.Sub(a.startIO)
}

// TraceRing keeps the most recent traces in a fixed-capacity ring buffer.
// It is safe for concurrent use. A slot holds a finished ActiveTrace, which
// nothing mutates until the slot evicts it. Recent copies under the lock, so
// no reader still holds a trace once it is evicted.
type TraceRing struct {
	mu    sync.Mutex
	buf   []*ActiveTrace
	size  int
	next  int
	total uint64

	// wall and mono are one reading of the wall clock and of the monotonic
	// clock (since clockBase). Record dates a trace from its monotonic start
	// by this pair and takes a new one once it is a second old, so a step
	// of the system clock or a suspend shows in trace timestamps within a
	// second of monotonic time.
	wall int64
	mono time.Duration
}

// DefaultTraceCapacity is the ring size when none is given.
const DefaultTraceCapacity = 128

// wallAnchorAge is how long Record dates traces by one wall-clock reading.
const wallAnchorAge = time.Second

// NewTraceRing returns a ring holding up to capacity traces (≤ 0 selects
// DefaultTraceCapacity).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{buf: make([]*ActiveTrace, capacity)}
}

// Add records a finished trace, evicting the oldest when full. The ring
// keeps its own copy of t's spans and children.
func (r *TraceRing) Add(t Trace) {
	if r == nil {
		return
	}
	a := &ActiveTrace{trace: t}
	a.trace.Spans = append([]Span(nil), t.Spans...)
	a.trace.Children = append([]Trace(nil), t.Children...)
	r.mu.Lock()
	r.push(a)
	r.mu.Unlock()
}

// push moves a into the next slot and returns the trace it evicts (nil
// while the ring fills). r.mu must be held.
func (r *TraceRing) push(a *ActiveTrace) (evicted *ActiveTrace) {
	evicted = r.buf[r.next]
	r.buf[r.next] = a
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.total++
	return evicted
}

// Record finishes a as Finish does, stamps err's text on it when err is not
// nil and moves it into the ring; a must not be used afterwards. It returns
// the trace's duration and the trace the ring evicted (nil while the ring
// fills), which no reader holds any more: the caller may reopen it with
// StartTraceIn. The ring must not be nil.
func (r *TraceRing) Record(a *ActiveTrace, io IODelta, err error) (time.Duration, *ActiveTrace) {
	a.finish(io)
	if err != nil {
		a.trace.Error = err.Error()
	}
	d := a.trace.Duration()
	r.mu.Lock()
	if r.wall == 0 || a.start-r.mono > wallAnchorAge {
		now := time.Now()
		r.wall, r.mono = now.UnixNano(), now.Sub(clockBase)
	}
	a.trace.StartUnixNanos = r.wall + int64(a.start-r.mono)
	evicted := r.push(a)
	r.mu.Unlock()
	return d, evicted
}

// Recent returns copies of the stored traces, newest first.
func (r *TraceRing) Recent() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, r.size)
	for i := 0; i < r.size; i++ {
		t := r.buf[(r.next-1-i+len(r.buf))%len(r.buf)].trace
		t.Spans = append([]Span(nil), t.Spans...)
		t.Children = append([]Trace(nil), t.Children...)
		out[i] = t
	}
	return out
}

// Len returns how many traces are currently stored.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Total returns how many traces were ever recorded (including evicted ones).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
