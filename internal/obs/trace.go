package obs

import (
	"sync"
	"time"
)

// Query kinds, matching the engine's entry points.
const (
	KindGraph     = "graph"     // structural graph query
	KindPathAgg   = "pathagg"   // path aggregation F_Gq
	KindExpr      = "expr"      // boolean combination of graph queries
	KindStatement = "statement" // parsed text-language statement

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
	PhaseParse       = "parse"        // text → statement
	PhasePlan        = "plan"         // view rewrite / path cover
	PhaseFetch       = "fetch"        // bitmap column fetches
	PhaseIntersect   = "intersect"    // AND kernel + delete masking
	PhaseMeasureScan = "measure-scan" // measure column reads (ValuesFor)
	PhaseAggregate   = "aggregate"    // per-record folding
	PhaseCache       = "cache"        // answer served from the result cache
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

// IODelta is the column-store I/O attributed to a span or trace — the same
// counters as colstore.Stats, duplicated here so the obs package stays
// dependency-free (colstore feeds obs, not the reverse).
type IODelta struct {
	BitmapColumnsFetched  int64 `json:"bitmapColumnsFetched"`
	MeasureColumnsFetched int64 `json:"measureColumnsFetched"`
	MeasuresScanned       int64 `json:"measuresScanned"`
	BytesRead             int64 `json:"bytesRead"`
	PartitionJoins        int64 `json:"partitionJoins"`
	RecordsReturned       int64 `json:"recordsReturned"`
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
// Children.
type Trace struct {
	Kind           string  `json:"kind"`
	Query          string  `json:"query,omitempty"`
	Shard          int     `json:"shard"`
	StartUnixNanos int64   `json:"startUnixNanos"`
	DurationNanos  int64   `json:"durationNanos"`
	Cached         bool    `json:"cached,omitempty"`
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
// single goroutine (the query's executor) and costs one allocation per
// query plus one per span append — which is why tracing is opt-in while
// counters are always cheap.
type ActiveTrace struct {
	trace     Trace
	start     time.Time
	startIO   IODelta
	spanPhase string
	spanStart time.Time
	spanIO    IODelta
}

// StartTrace opens a trace. io is the current cumulative I/O snapshot; the
// trace's deltas are computed against it.
func StartTrace(kind, query string, io IODelta) *ActiveTrace {
	now := time.Now()
	return &ActiveTrace{
		// Pre-size for the common lifecycle (plan, fetch, intersect,
		// measure-scan, aggregate, + slack) so span appends don't reallocate.
		trace: Trace{Kind: kind, Query: query, StartUnixNanos: now.UnixNano(),
			Spans: make([]Span, 0, 8)},
		start:   now,
		startIO: io,
	}
}

// Begin closes the open span (if any) and starts a new one for phase. io is
// the current cumulative I/O snapshot.
func (a *ActiveTrace) Begin(phase string, io IODelta) {
	if a == nil {
		return
	}
	now := time.Now()
	a.closeSpan(now, io)
	a.spanPhase, a.spanStart, a.spanIO = phase, now, io
}

func (a *ActiveTrace) closeSpan(now time.Time, io IODelta) {
	if a.spanPhase == "" {
		return
	}
	a.trace.Spans = append(a.trace.Spans, Span{
		Phase:         a.spanPhase,
		Shard:         a.trace.Shard,
		DurationNanos: now.Sub(a.spanStart).Nanoseconds(),
		IO:            io.Sub(a.spanIO),
	})
	a.spanPhase = ""
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

// SetCached marks the trace as served from the result cache.
func (a *ActiveTrace) SetCached() {
	if a == nil {
		return
	}
	a.trace.Cached = true
}

// Finish closes the open span, totals the trace and returns it.
func (a *ActiveTrace) Finish(io IODelta) Trace {
	if a == nil {
		return Trace{}
	}
	now := time.Now()
	a.closeSpan(now, io)
	a.trace.DurationNanos = now.Sub(a.start).Nanoseconds()
	a.trace.IO = io.Sub(a.startIO)
	return a.trace
}

// TraceRing keeps the most recent traces in a fixed-capacity ring buffer.
// It is safe for concurrent use.
type TraceRing struct {
	mu    sync.Mutex
	buf   []Trace
	size  int
	next  int
	total uint64
}

// DefaultTraceCapacity is the ring size when none is given.
const DefaultTraceCapacity = 128

// NewTraceRing returns a ring holding up to capacity traces (≤ 0 selects
// DefaultTraceCapacity).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{buf: make([]Trace, capacity)}
}

// Add records a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.total++
	r.mu.Unlock()
}

// Recent returns the stored traces, newest first.
func (r *TraceRing) Recent() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
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
