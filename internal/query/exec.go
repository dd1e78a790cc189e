package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
)

// Engine executes graph queries over a master relation. UseViews controls
// whether the planner rewrites queries against materialized views (§5.3) or
// runs the view-oblivious plan; the Fig. 6–8 experiments compare the two.
//
// Query execution is safe for concurrent use (per-query scratch comes from
// a pool); mutating the exported fields or EnableCache concurrently with
// queries is not.
type Engine struct {
	Rel      *colstore.Relation
	Reg      *graph.Registry
	UseViews bool

	// ParallelPaths, when set, aggregates the maximal paths of a
	// path-aggregation query on separate goroutines (columns are still
	// fetched sequentially, so I/O accounting order is deterministic; the
	// tracker's atomic counters make the fold accounting race-free). It only
	// engages for untraced multi-path queries: a lifecycle trace records
	// per-path phase spans whose ordering interleaved goroutines would
	// scramble.
	ParallelPaths bool

	// cache, when set, memoizes structural answers across repeated queries
	// (invalidated wholesale on any relation mutation).
	cache *ResultCache

	// metrics, when set, records per-query counters and latency histograms
	// (allocation-free). traces, when set, records a span-based lifecycle
	// trace per query into the ring (one allocation per query plus span
	// appends). slow, when set, records queries over its latency threshold
	// into a bounded structured log (sub-threshold queries pay one clock read
	// and an atomic load). All default to nil: the disabled path costs three
	// nil checks and nothing else. Set them before serving queries (like
	// EnableCache, mutating mid-flight is not synchronized).
	metrics *obs.QueryMetrics
	traces  *obs.TraceRing
	slow    *obs.SlowLog

	// shardID labels this engine's traces and slow-log entries with the
	// shard it executes (0 for a single-relation store).
	shardID int
}

// bmsPool recycles the operand slices of the structural AND phase across
// queries and goroutines, so executing a query allocates O(1) bitmaps
// regardless of plan width.
var bmsPool = sync.Pool{New: func() any { return new([]*bitmap.Bitmap) }}

// NewEngine returns a view-aware engine.
func NewEngine(rel *colstore.Relation, reg *graph.Registry) *Engine {
	return &Engine{Rel: rel, Reg: reg, UseViews: true}
}

// Clone returns an engine sharing rel, registry, view setting, result cache
// and observability hooks with e, but with its own scratch — safe to use
// from another goroutine concurrently with e.
func (e *Engine) Clone() *Engine {
	return &Engine{Rel: e.Rel, Reg: e.Reg, UseViews: e.UseViews,
		ParallelPaths: e.ParallelPaths, cache: e.cache,
		metrics: e.metrics, traces: e.traces, slow: e.slow,
		shardID: e.shardID}
}

// SetMetrics attaches a metrics bundle (nil disables). Attach before
// serving queries.
func (e *Engine) SetMetrics(m *obs.QueryMetrics) { e.metrics = m }

// SetTraces attaches a trace ring recording one lifecycle trace per query
// (nil disables). Attach before serving queries.
func (e *Engine) SetTraces(t *obs.TraceRing) { e.traces = t }

// Traces returns the attached trace ring (nil when tracing is disabled).
func (e *Engine) Traces() *obs.TraceRing { return e.traces }

// SetSlowLog attaches a slow-query log (nil disables). Attach before serving
// queries. Batch workers inherit it through Clone.
func (e *Engine) SetSlowLog(l *obs.SlowLog) { e.slow = l }

// SlowLog returns the attached slow-query log (nil when disabled).
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// SetShard labels the engine with the shard index it executes, stamped onto
// every trace and slow-log entry it emits.
func (e *Engine) SetShard(id int) { e.shardID = id }

// Shard returns the engine's shard index.
func (e *Engine) Shard() int { return e.shardID }

// slowObserve appends a slow-log entry when the finished query crossed the
// log's latency threshold. startIO is the tracker snapshot taken at query
// start (exact only single-threaded, like trace I/O deltas).
func (e *Engine) slowObserve(kind, qstr string, start time.Time, startIO obs.IODelta, cached bool, err error) {
	d := time.Since(start)
	if d < e.slow.Threshold() {
		return
	}
	sq := obs.SlowQuery{
		Kind:           kind,
		Query:          qstr,
		Shard:          e.shardID,
		StartUnixNanos: start.UnixNano(),
		DurationNanos:  d.Nanoseconds(),
		Cached:         cached,
		IO:             e.ioNow().Sub(startIO),
	}
	if err != nil {
		sq.Error = err.Error()
		sq.Cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	e.slow.Add(sq)
}

// Cache returns the attached result cache (nil when caching is disabled).
func (e *Engine) Cache() *ResultCache { return e.cache }

// ioNow converts the relation tracker's cumulative counters into the obs
// package's I/O shape. Only called on traced paths: six atomic loads.
//
//grove:hotpath
func (e *Engine) ioNow() obs.IODelta {
	s := e.Rel.Tracker().Snapshot()
	return obs.IODelta{
		BitmapColumnsFetched:  int64(s.BitmapColumnsFetched),
		MeasureColumnsFetched: int64(s.MeasureColumnsFetched),
		MeasuresScanned:       s.MeasuresScanned,
		BytesRead:             s.BytesRead,
		PartitionJoins:        s.PartitionJoins,
		RecordsReturned:       s.RecordsReturned,
	}
}

// checkCtx reports the context's cancellation error, recording a terminal
// "cancelled" span on the trace when one is attached. The engine calls it
// between bitmap fetches and between per-path aggregation chunks, so a
// cancelled query abandons its remaining I/O promptly; work already done is
// simply discarded (queries are read-only, there is nothing to roll back).
//
//grove:hotpath
func (e *Engine) checkCtx(ctx context.Context, tr *obs.ActiveTrace) error {
	if err := ctx.Err(); err != nil {
		if tr != nil {
			tr.Begin(obs.PhaseCancelled, e.ioNow())
		}
		return err
	}
	return nil
}

// resolvePathEdges resolves every path's edge sequence to edge ids in one
// registry read: an element the registry has never seen gets its own
// sentinel id (an empty column slot; a shared sentinel would alias distinct
// unknown edges to one column), the same id wherever it recurs.
func resolvePathEdges(reg *graph.Registry, paths []gpath.Path) [][]colstore.EdgeID {
	var keys []graph.EdgeKey
	for _, p := range paths {
		keys = append(keys, p.Edges()...)
	}
	ids, _ := reg.Resolve(keys)
	out := make([][]colstore.EdgeID, len(paths))
	for pi, p := range paths {
		n := p.Len()
		out[pi], ids = ids[:n:n], ids[n:]
	}
	return out
}

// Result is the structural answer of a graph query: the set of matching
// record ids, plus the plan that produced it. Measures are fetched
// separately (FetchMeasures) so experiments can time the two phases the way
// Figs. 6–7 break them down.
type Result struct {
	Query  *GraphQuery
	Plan   CoverPlan
	Answer *bitmap.Bitmap

	// Subs holds the per-shard sub-results of a scatter-gathered query (nil
	// for a single-relation execution). Answer is then the offset-translated
	// union of the sub-answers, and FetchMeasures delegates to the subs —
	// each record's measures live in exactly one shard.
	Subs []*Result

	// edges is the query's universe as the execution resolved it: ascending
	// ids, sentinels of unknown elements last.
	edges  []colstore.EdgeID
	eng    *Engine
	cached bool
}

// FromCache reports whether the answer was served from the result cache.
func (r *Result) FromCache() bool { return r.cached }

// NumRecords returns the answer cardinality.
func (r *Result) NumRecords() int { return r.Answer.Cardinality() }

// ExecuteGraphQueryContext evaluates the structural part of a graph query:
// plan (greedy rewrite when UseViews), fetch the planned bitmap columns, AND
// them (§4.2). The relation's read lock is held for the whole query, so the
// answer — and any cache entry made from it — is consistent with a single
// relation version even while writers run concurrently. The engine checks
// ctx between bitmap fetches and abandons the query with ctx's error once it
// is cancelled, recording a "cancelled" span on the trace. The read lock is
// released on every exit path, including a panic in a kernel (batch workers
// recover those).
func (e *Engine) ExecuteGraphQueryContext(ctx context.Context, q *GraphQuery) (*Result, error) {
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return nil, fmt.Errorf("query: empty graph query")
	}
	var start time.Time
	if e.metrics != nil || e.slow != nil {
		start = time.Now()
	}
	var slowIO obs.IODelta
	if e.slow != nil {
		slowIO = e.ioNow()
	}
	var tr *obs.ActiveTrace
	if e.traces != nil {
		tr = obs.StartTrace(obs.KindGraph, q.String(), e.ioNow())
		tr.SetShard(e.shardID)
	}
	res, err := func() (*Result, error) {
		e.Rel.BeginRead()
		defer e.Rel.EndRead()
		return e.executeGraphQueryLocked(ctx, q, tr)
	}()
	if tr != nil {
		e.traces.Add(tr.Finish(e.ioNow()))
	}
	if e.metrics != nil && err == nil {
		e.metrics.Record(obs.KindGraph, time.Since(start))
	}
	if e.slow != nil {
		e.slowObserve(obs.KindGraph, q.String(), start, slowIO, res != nil && res.cached, err)
	}
	return res, err
}

// executeGraphQueryLocked is ExecuteGraphQuery with the relation read lock
// already held (BeginRead is not reentrant, so compound executions — path
// aggregation, boolean expressions — route through this). tr, when non-nil,
// receives the plan/fetch/intersect lifecycle spans.
func (e *Engine) executeGraphQueryLocked(ctx context.Context, q *GraphQuery, tr *obs.ActiveTrace) (*Result, error) {
	universe := q.edges
	if universe == nil {
		universe, _ = e.Reg.ResolveGraph(q.G)
	}
	// Read under the lock: the version cannot move while we hold it, so the
	// cache entry written below is tagged with exactly the version whose
	// data produced the answer.
	version := e.Rel.Version()
	var key string
	if e.cache != nil {
		if tr != nil {
			tr.Begin(obs.PhaseCache, e.ioNow())
		}
		key = cacheKey(universe)
		if answer := e.cache.get(version, key); answer != nil {
			e.Rel.AccountRecordsReturned(answer.Cardinality())
			if tr != nil {
				tr.SetCached()
			}
			return &Result{Query: q, Plan: CoverPlan{}, Answer: answer, edges: universe, eng: e, cached: true}, nil
		}
	}
	if tr != nil {
		tr.Begin(obs.PhasePlan, e.ioNow())
	}
	var plan CoverPlan
	if e.UseViews {
		plan = PlanCover(e.Rel, universe)
	} else {
		plan = PlanWithoutViews(universe)
	}

	if tr != nil {
		tr.Begin(obs.PhaseFetch, e.ioNow())
	}
	scratch := bmsPool.Get().(*[]*bitmap.Bitmap)
	bms := (*scratch)[:0]
	putScratch := func() {
		for i := range bms {
			bms[i] = nil
		}
		*scratch = bms[:0]
		bmsPool.Put(scratch)
	}
	for _, name := range plan.Views {
		if err := e.checkCtx(ctx, tr); err != nil {
			putScratch()
			return nil, err
		}
		b, err := e.Rel.FetchViewBitmap(name)
		if err != nil {
			putScratch()
			return nil, err
		}
		bms = append(bms, b)
	}
	for _, name := range plan.AggViews {
		if err := e.checkCtx(ctx, tr); err != nil {
			putScratch()
			return nil, err
		}
		b, err := e.Rel.FetchAggViewBitmap(name)
		if err != nil {
			putScratch()
			return nil, err
		}
		bms = append(bms, b)
	}
	for _, id := range plan.Edges {
		if err := e.checkCtx(ctx, tr); err != nil {
			putScratch()
			return nil, err
		}
		bms = append(bms, e.Rel.FetchEdgeBitmap(id))
	}
	if tr != nil {
		tr.Begin(obs.PhaseIntersect, e.ioNow())
	}
	// The conjunction intersects into one fresh destination the caller (and
	// the cache) owns; the fetched column bitmaps are never mutated.
	answer := e.Rel.MaskDeleted(bitmap.AndAllInto(bitmap.New(), bms...))
	putScratch() // don't pin column bitmaps from the pool
	if e.cache != nil {
		e.cache.put(version, key, answer)
	}
	e.Rel.AccountRecordsReturned(answer.Cardinality())
	return &Result{Query: q, Plan: plan, Answer: answer, edges: universe, eng: e}, nil
}

// recsPool recycles the decoded answer-set slices of the measure phases
// across queries and goroutines.
var recsPool = sync.Pool{New: func() any { return new([]uint32) }}

// sumReduce is the SUM block-reduce kernel FetchMeasures folds its checksum
// with; resolved once, not per query.
var sumReduce = agg.KernelFor(agg.Sum).Reduce

// FetchMeasures materializes the measures of the matched subgraph for every
// answer record (the mandatory lower part of the Fig. 6 time breakdown).
// It fetches the measure column of every query element, folds the values of
// every answer record with the fused block kernel (no per-record lookups and
// no intermediate value/presence slices), and accounts the cross-partition
// record reassembly joins (§6.1). It returns the number of measure values
// read.
//
//grove:hotpath
func (r *Result) FetchMeasures() int64 {
	if len(r.Subs) > 0 {
		// Scatter-gathered result: every answer record lives in exactly one
		// shard, so the per-shard fetches sum to the single-store total.
		var total int64
		for _, sub := range r.Subs {
			total += sub.FetchMeasures()
		}
		return total
	}
	if r.Answer.IsEmpty() {
		return 0 // nothing qualified; no measure columns are read
	}
	e := r.eng
	e.Rel.BeginRead() //grovevet:ignore lockorder paged measure scans fault value blocks from disk under the read lock by design: readers proceed concurrently, and the scan must see the same cut the filter matched
	defer e.Rel.EndRead()
	scratch := recsPool.Get().(*[]uint32)
	recs := r.Answer.AppendInto((*scratch)[:0])
	var scanned int64
	var spanEdges []colstore.EdgeID
	var sink float64
	names := append([]string{""}, e.Rel.MeasureNames()...)
	for _, id := range r.edges {
		if id >= graph.UnseenBase {
			break // the sentinels of unknown elements sort last and have no columns
		}
		spanned := false
		for _, name := range names {
			if name != "" && e.Rel.MeasureColumnNamed(id, name) == nil {
				continue // column does not exist for this edge; nothing read
			}
			col := e.Rel.FetchMeasureColumnNamed(id, name)
			if col == nil {
				continue
			}
			if !spanned {
				spanEdges = append(spanEdges, id)
				spanned = true
			}
			s, n := col.AggregateInto(recs, sink, sumReduce)
			sink = s
			scanned += int64(n)
		}
	}
	_ = sink
	*scratch = recs[:0]
	recsPool.Put(scratch)
	e.Rel.AccountMeasuresScanned(int(scanned))
	e.Rel.JoinPartitions(e.Rel.PartitionSpan(spanEdges), r.Answer)
	return scanned
}

// EvalExprContext evaluates a boolean combination of graph queries (§3.2)
// and returns the combined answer set. The whole expression runs under one
// read lock, so all leaves see the same relation version; ctx is checked
// between the leaves' bitmap fetches.
func (e *Engine) EvalExprContext(ctx context.Context, expr Expr) (*bitmap.Bitmap, error) {
	var start time.Time
	if e.metrics != nil || e.slow != nil {
		start = time.Now()
	}
	var slowIO obs.IODelta
	if e.slow != nil {
		slowIO = e.ioNow()
	}
	var tr *obs.ActiveTrace
	if e.traces != nil {
		tr = obs.StartTrace(obs.KindExpr, expr.String(), e.ioNow())
		tr.SetShard(e.shardID)
	}
	b, err := func() (*bitmap.Bitmap, error) {
		e.Rel.BeginRead()
		defer e.Rel.EndRead()
		return e.evalExprLocked(ctx, expr, tr)
	}()
	if tr != nil {
		e.traces.Add(tr.Finish(e.ioNow()))
	}
	if e.metrics != nil && err == nil {
		e.metrics.Record(obs.KindExpr, time.Since(start))
	}
	if e.slow != nil {
		e.slowObserve(obs.KindExpr, expr.String(), start, slowIO, false, err)
	}
	return b, err
}

func (e *Engine) evalExprLocked(ctx context.Context, expr Expr, tr *obs.ActiveTrace) (*bitmap.Bitmap, error) {
	switch x := expr.(type) {
	case Leaf:
		res, err := e.executeGraphQueryLocked(ctx, x.Q, tr)
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	case And:
		if len(x.Operands) == 0 {
			return nil, fmt.Errorf("query: AND with no operands")
		}
		acc, err := e.evalExprLocked(ctx, x.Operands[0], tr)
		if err != nil {
			return nil, err
		}
		for _, op := range x.Operands[1:] {
			b, err := e.evalExprLocked(ctx, op, tr)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.Begin(obs.PhaseIntersect, e.ioNow())
			}
			acc = acc.And(b)
		}
		return acc, nil
	case Or:
		if len(x.Operands) == 0 {
			return nil, fmt.Errorf("query: OR with no operands")
		}
		acc, err := e.evalExprLocked(ctx, x.Operands[0], tr)
		if err != nil {
			return nil, err
		}
		for _, op := range x.Operands[1:] {
			b, err := e.evalExprLocked(ctx, op, tr)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.Begin(obs.PhaseIntersect, e.ioNow())
			}
			acc = acc.Or(b)
		}
		return acc, nil
	case Diff:
		a, err := e.evalExprLocked(ctx, x.A, tr)
		if err != nil {
			return nil, err
		}
		b, err := e.evalExprLocked(ctx, x.B, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Begin(obs.PhaseIntersect, e.ioNow())
		}
		return a.AndNot(b), nil
	default:
		return nil, fmt.Errorf("query: unknown expression node %T", expr)
	}
}

// --- path aggregation ---------------------------------------------------------

// pathSegment is one covered stretch of a query path: either a materialized
// aggregate view (ViewName != "") or a single raw edge.
type pathSegment struct {
	ViewName string
	Edge     colstore.EdgeID
	Length   int // edges covered
}

// AggResult holds a path aggregation answer: for every maximal path of the
// query graph and every answer record, the folded aggregate. Values[p][i] is
// aligned with RecordIDs[i]; NaN marks NULL (some measure missing).
type AggResult struct {
	Query     *PathAggQuery
	Answer    *bitmap.Bitmap
	RecordIDs []uint32
	Paths     []gpath.Path
	Values    [][]float64

	// SegmentsPerPath records how each path was covered, for plan inspection
	// and tests: counts of (view segments, raw edge segments).
	SegmentsPerPath [][2]int
}

// FoldAcrossPaths consolidates the per-path aggregates of each record with
// the query's Fold (e.g. MAX over all routes, as in Q3). NULL paths are
// skipped; a record with no non-NULL path folds to NaN.
func (r *AggResult) FoldAcrossPaths() []float64 {
	out := make([]float64, len(r.RecordIDs))
	for i := range out {
		acc := r.Query.Agg.Identity
		any := false
		for p := range r.Paths {
			v := r.Values[p][i]
			if !math.IsNaN(v) {
				acc = r.Query.Agg.Fold(acc, v)
				any = true
			}
		}
		if any {
			out[i] = acc
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// Scalar folds the result all the way down — Fold over every record's
// FoldAcrossPaths value in record order, NULLs skipped, NaN when nothing
// contributed: the general row plan's answer to a scalar aggregation.
func (r *AggResult) Scalar() *ScalarAggResult {
	out := &ScalarAggResult{Query: r.Query, Records: len(r.RecordIDs), Value: math.NaN()}
	acc := r.Query.Agg.Identity
	for _, v := range r.FoldAcrossPaths() {
		if !math.IsNaN(v) {
			acc = r.Query.Agg.Fold(acc, v)
			out.Folded++
		}
	}
	if out.Folded > 0 {
		out.Value = acc
	}
	return out
}

// coverPath covers a path's edge sequence with materialized aggregate views
// of the same function and measure (longest match at each position), falling
// back to raw edges — the measure-side rewriting of §5.1.2. Views are matched
// on their exact edge sequence so stored folds compose correctly. The views
// tried at a position are the catalog's list for that edge, already longest
// first, then by name; the first that matches wins.
func coverPath(rel *colstore.Relation, pathEdges []colstore.EdgeID, funcName, measureName string, useViews bool) []pathSegment {
	var chains colstore.AggChains
	if useViews {
		chains = rel.Catalog().AggViewsFrom(funcName, measureName)
	}
	out := make([]pathSegment, 0, len(pathEdges))
	for i := 0; i < len(pathEdges); {
		seg := pathSegment{Edge: pathEdges[i], Length: 1}
		for _, v := range chains.From(pathEdges[i]) {
			if rest := pathEdges[i:]; len(v.Path) <= len(rest) && slices.Equal(rest[:len(v.Path)], v.Path) {
				seg = pathSegment{ViewName: v.Name, Length: len(v.Path)}
				break
			}
		}
		out = append(out, seg)
		i += seg.Length
	}
	return out
}

// ExecutePathAggQueryContext evaluates F_Gq (§3.4): structural filtering as
// for a graph query, then per-record aggregation along every maximal path,
// folding stored aggregate-view values where the path is covered by views.
// ctx is checked between bitmap fetches of the structural phase and between
// per-path aggregation chunks.
func (e *Engine) ExecutePathAggQueryContext(ctx context.Context, q *PathAggQuery) (*AggResult, error) {
	var start time.Time
	if e.metrics != nil || e.slow != nil {
		start = time.Now()
	}
	var slowIO obs.IODelta
	if e.slow != nil {
		slowIO = e.ioNow()
	}
	var tr *obs.ActiveTrace
	if e.traces != nil {
		tr = obs.StartTrace(obs.KindPathAgg, q.String(), e.ioNow())
		tr.SetShard(e.shardID)
	}
	res, err := e.executePathAggQuery(ctx, q, tr)
	if tr != nil {
		e.traces.Add(tr.Finish(e.ioNow()))
	}
	if e.metrics != nil && err == nil {
		e.metrics.Record(obs.KindPathAgg, time.Since(start))
	}
	if e.slow != nil {
		e.slowObserve(obs.KindPathAgg, q.String(), start, slowIO, false, err)
	}
	return res, err
}

// segKind says how a planned segment's values enter the path fold.
type segKind uint8

const (
	segRaw  segKind = iota // raw edge measure: Fold(acc, Lift(v)), required
	segView                // stored partial aggregate: Fold(acc, v), required
	segNode                // node measure: Fold(acc, Lift(v)), optional
)

// plannedSeg is one resolved operand of a path fold: a fetched measure
// column (nil when it does not exist — every record folds to NULL) and how
// its values enter the fold.
type plannedSeg struct {
	col  *colstore.MeasureColumn
	kind segKind
}

// gatheredSeg is a plannedSeg after its column was batch-read over the
// answer set: values[i]/present[i] per answer record (windows into the
// pooled scratch slabs), n the number present.
type gatheredSeg struct {
	values  []float64
	present []bool
	n       int
	kind    segKind
}

// pathScratch holds the pooled per-path working state of path aggregation:
// the gather slabs (one values/present window per segment), the shared NULL
// mask, and the segment descriptors. One scratch serves one path at a time.
type pathScratch struct {
	vslab   []float64
	pslab   []bool
	null    []bool
	planned []plannedSeg
	segs    []gatheredSeg
}

var pathScratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// gather batch-reads every planned column over the answer set into the
// scratch slabs and resets the NULL mask. Missing columns produce a nil
// gatheredSeg window.
//
//grove:hotpath
func (sc *pathScratch) gather(recs []uint32, planned []plannedSeg) {
	n := len(recs)
	if need := len(planned) * n; cap(sc.vslab) < need {
		sc.vslab = make([]float64, need) //grovevet:ignore hotalloc slab grow path; pooled scratch plateaus at the largest answer set, steady state reuses it
		sc.pslab = make([]bool, need)    //grovevet:ignore hotalloc slab grow path; pooled scratch plateaus at the largest answer set, steady state reuses it
	}
	if cap(sc.null) < n {
		sc.null = make([]bool, n) //grovevet:ignore hotalloc mask grow path; pooled scratch plateaus at the largest answer set, steady state reuses it
	}
	sc.null = sc.null[:n]
	for i := range sc.null {
		sc.null[i] = false
	}
	sc.segs = sc.segs[:0]
	for si, ps := range planned {
		if ps.col == nil {
			sc.segs = append(sc.segs, gatheredSeg{kind: ps.kind})
			continue
		}
		v := sc.vslab[si*n : (si+1)*n]
		pr := sc.pslab[si*n : (si+1)*n]
		cnt := ps.col.GatherInto(recs, v, pr)
		sc.segs = append(sc.segs, gatheredSeg{values: v, present: pr, n: cnt, kind: ps.kind})
	}
}

// foldGathered folds the gathered segments column-at-a-time into vals
// (pre-filled with the aggregate identity) with the block kernels, and
// returns how many values were folded (the MeasuresScanned contribution).
// Per record the fold sequence is exactly the scalar per-record loop's —
// required segments in path order until the first missing value, then the
// optional node measures — so results are bit-for-bit identical even for
// order-sensitive user functions. NULL records end as NaN.
//
//grove:hotpath
func foldGathered(k agg.Kernel, vals []float64, sc *pathScratch) (scanned int) {
	nulls := 0
	for _, s := range sc.segs {
		switch {
		case s.kind == segNode:
			if s.values == nil {
				continue
			}
			f, _ := k.Optional(vals, s.values, s.present, sc.null)
			scanned += f
		case s.values == nil:
			// Required segment with no column: every surviving record
			// folds to NULL, nothing is scanned.
			for i, isNull := range sc.null {
				if !isNull {
					sc.null[i] = true
					nulls++
				}
			}
		default:
			fold := k.Raw
			if s.kind == segView {
				fold = k.Stored
			}
			if nulls == 0 && s.n == len(vals) {
				// Every record has a value and none is NULL yet: the
				// branchless dense path.
				f, _ := fold(vals, s.values, nil, nil)
				scanned += f
			} else {
				f, nn := fold(vals, s.values, s.present, sc.null)
				scanned += f
				nulls += nn
			}
		}
	}
	if nulls > 0 {
		for i, isNull := range sc.null {
			if isNull {
				vals[i] = math.NaN()
			}
		}
	}
	return scanned
}

// executePathAggQuery is the body of ExecutePathAggQuery, with lifecycle
// spans recorded on tr when tracing is enabled. The measure side runs
// block-at-a-time: per path, every segment column is batch-gathered over the
// answer set into pooled scratch, then folded column-at-a-time with the
// aggregate's block kernel.
func (e *Engine) executePathAggQuery(ctx context.Context, q *PathAggQuery, tr *obs.ActiveTrace) (*AggResult, error) {
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return nil, fmt.Errorf("query: empty path aggregation query")
	}
	if q.Agg.Fold == nil || q.Agg.Lift == nil {
		return nil, fmt.Errorf("query: aggregation function not set")
	}
	// One read lock spans the structural filter and the measure scans, so
	// the aggregates are computed over exactly the records the filter saw.
	e.Rel.BeginRead() //grovevet:ignore lockorder paged measure scans fault value blocks from disk under the read lock by design: readers proceed concurrently, and the aggregate must fold the same cut the filter matched
	defer e.Rel.EndRead()
	return e.executePathAggLocked(ctx, q, tr)
}

// executePathAggLocked is the path-aggregation body with the relation read
// lock already held (the scalar executor routes its general fallback through
// here under its own lock — BeginRead is not reentrant).
func (e *Engine) executePathAggLocked(ctx context.Context, q *PathAggQuery, tr *obs.ActiveTrace) (*AggResult, error) {
	structural, err := e.executeGraphQueryLocked(ctx, &GraphQuery{G: q.G, edges: q.edges}, tr)
	if err != nil {
		return nil, err
	}
	paths := q.Paths
	if len(paths) == 0 {
		if tr != nil {
			tr.Begin(obs.PhasePlan, e.ioNow())
		}
		paths, err = gpath.MaximalPaths(q.G)
		if err != nil {
			return nil, err
		}
	}
	answer := structural.Answer
	res := &AggResult{
		Query:     q,
		Answer:    answer,
		RecordIDs: answer.AppendInto(nil),
		Paths:     paths,
	}
	k := agg.KernelFor(q.Agg)

	// Column caches so shared segments across paths are fetched once.
	measureCols := make(map[colstore.EdgeID]*colstore.MeasureColumn)
	viewCols := make(map[string]*colstore.MeasureColumn)
	pathEdges := q.pathEdges
	if pathEdges == nil {
		pathEdges = resolvePathEdges(e.Reg, paths)
	}
	fetchMeasure := func(id colstore.EdgeID) *colstore.MeasureColumn {
		if c, ok := measureCols[id]; ok {
			return c
		}
		c := e.Rel.FetchMeasureColumnNamed(id, q.Measure)
		measureCols[id] = c
		return c
	}
	fetchView := func(name string) (*colstore.MeasureColumn, error) {
		if c, ok := viewCols[name]; ok {
			return c, nil
		}
		c, err := e.Rel.FetchAggViewMeasure(name)
		if err != nil {
			return nil, err
		}
		viewCols[name] = c
		return c, nil
	}
	// planPath covers p with aggregate views and fetches every column the
	// fold will read, appending the fold operands to dst: required segments
	// in path order, then the optional node-measure columns. Covering is
	// plan work, fetching is measure-scan work; the span boundary sits
	// between them.
	planPath := func(dst []plannedSeg, pi int) ([]plannedSeg, [2]int, error) {
		p := paths[pi]
		segs := coverPath(e.Rel, pathEdges[pi], q.Agg.Name, q.Measure, e.UseViews)
		if tr != nil {
			tr.Begin(obs.PhaseMeasureScan, e.ioNow())
		}
		viewSegs, rawSegs := 0, 0
		for _, s := range segs {
			if s.ViewName != "" {
				c, err := fetchView(s.ViewName)
				if err != nil {
					return dst, [2]int{}, err
				}
				dst = append(dst, plannedSeg{col: c, kind: segView})
				viewSegs++
			} else {
				dst = append(dst, plannedSeg{col: fetchMeasure(s.Edge), kind: segRaw})
				rawSegs++
			}
		}
		for _, n := range p.MeasuredNodes() {
			if id, ok := e.Reg.Lookup(graph.NodeKey(n)); ok {
				if e.Rel.MeasureColumn(id) != nil {
					dst = append(dst, plannedSeg{col: fetchMeasure(id), kind: segNode})
				}
			}
		}
		return dst, [2]int{viewSegs, rawSegs}, nil
	}
	newVals := func() []float64 {
		vals := make([]float64, len(res.RecordIDs))
		for i := range vals {
			vals[i] = q.Agg.Identity
		}
		return vals
	}

	scanned := 0
	if e.ParallelPaths && tr == nil && len(paths) > 1 {
		// Plan and fetch all paths sequentially (the column caches and the
		// fetch accounting are single-threaded state), then gather and fold
		// each path on its own goroutine with its own pooled scratch. The
		// relation read lock held above keeps writers out for the duration.
		plans := make([][]plannedSeg, len(paths))
		for pi := range paths {
			if err := e.checkCtx(ctx, tr); err != nil {
				return nil, err
			}
			var counts [2]int
			plans[pi], counts, err = planPath(nil, pi)
			if err != nil {
				return nil, err
			}
			res.SegmentsPerPath = append(res.SegmentsPerPath, counts)
		}
		res.Values = make([][]float64, len(paths))
		perPath := make([]int, len(paths))
		var wg sync.WaitGroup
		var panicked atomic.Value // first worker panic, re-raised on the caller
		for pi := range paths {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, r) // keep the first panic; later ones repeat the same fold bug
					}
				}()
				sc := pathScratchPool.Get().(*pathScratch)
				sc.gather(res.RecordIDs, plans[pi])
				vals := newVals()
				perPath[pi] = foldGathered(k, vals, sc)
				res.Values[pi] = vals
				pathScratchPool.Put(sc)
			}(pi)
		}
		wg.Wait()
		if r := panicked.Load(); r != nil {
			panic(r) // surface the worker's fault on the query goroutine, where callers can recover
		}
		for _, c := range perPath {
			scanned += c
		}
	} else {
		sc := pathScratchPool.Get().(*pathScratch)
		for pi := range paths {
			if err := e.checkCtx(ctx, tr); err != nil {
				pathScratchPool.Put(sc)
				return nil, err
			}
			if tr != nil {
				tr.Begin(obs.PhasePlan, e.ioNow()) // cover the path with agg views
			}
			var counts [2]int
			sc.planned, counts, err = planPath(sc.planned[:0], pi)
			if err != nil {
				pathScratchPool.Put(sc)
				return nil, err
			}
			sc.gather(res.RecordIDs, sc.planned)
			if tr != nil {
				tr.Begin(obs.PhaseAggregate, e.ioNow())
			}
			vals := newVals()
			scanned += foldGathered(k, vals, sc)
			res.Values = append(res.Values, vals)
			res.SegmentsPerPath = append(res.SegmentsPerPath, counts)
		}
		pathScratchPool.Put(sc)
	}

	e.Rel.AccountMeasuresScanned(scanned)
	spanEdges := make([]colstore.EdgeID, 0, len(measureCols))
	for id := range measureCols {
		spanEdges = append(spanEdges, id)
	}
	e.Rel.JoinPartitions(e.Rel.PartitionSpan(spanEdges), answer)
	if err := e.Rel.PageError(); err != nil {
		// A paged column's block fault failed mid-scan. The gathered values
		// contain zeros standing in for unread data, so the whole answer is
		// suspect — fail the query instead of returning silently wrong folds.
		return nil, err
	}
	return res, nil
}

// --- scalar path aggregation --------------------------------------------------

// ScalarAggResult is the answer of ExecutePathAggScalar: one aggregate value
// folded across every answer record and every maximal path, rather than the
// per-record × per-path matrix of AggResult.
type ScalarAggResult struct {
	Query *PathAggQuery
	// Value is Fold applied over every non-NULL per-record path aggregate, in
	// record order; NaN when no record contributed (empty answer, or every
	// record folded to NULL).
	Value float64
	// Records is the structural answer cardinality.
	Records int
	// Folded is how many values entered the scalar fold: measure values
	// examined by the zone-skipping scan, or non-NULL per-record aggregates
	// when the general row plan answered the query.
	Folded int
	// BlocksScanned and BlocksSkipped count paged storage blocks that were
	// decoded and folded vs. proven irrelevant by their zone maps. Both are 0
	// when the general row plan answered the query.
	BlocksScanned int
	BlocksSkipped int
	// ZoneSkipped reports whether the zone-skipping scalar plan ran. False
	// means the query was ineligible (not MIN/MAX, multi-segment paths, or
	// node measures) and the general per-record plan computed the answer.
	ZoneSkipped bool
}

// ExecutePathAggScalarContext evaluates a path aggregation and folds it all
// the way down to one scalar: Fold across the per-record path aggregates of
// every answer record. For MIN/MAX queries whose maximal paths each cover to
// a single segment (one raw edge, or one aggregate view spanning the whole
// path) and that touch no node measures, it runs a zone-skipping scan:
// per-block zone maps prove most blocks cannot tighten the accumulator and
// those blocks are never decoded — or even read from disk on a paged store.
// Every other query falls back to the general per-record plan and folds its
// result, so the scalar answer is always exactly Fold over
// AggResult.FoldAcrossPaths() in record order, bit for bit. ctx is checked
// between bitmap fetches of the structural phase.
func (e *Engine) ExecutePathAggScalarContext(ctx context.Context, q *PathAggQuery) (*ScalarAggResult, error) {
	var start time.Time
	if e.metrics != nil || e.slow != nil {
		start = time.Now()
	}
	var slowIO obs.IODelta
	if e.slow != nil {
		slowIO = e.ioNow()
	}
	var tr *obs.ActiveTrace
	if e.traces != nil {
		tr = obs.StartTrace(obs.KindPathAgg, q.String(), e.ioNow())
		tr.SetShard(e.shardID)
	}
	res, err := e.executePathAggScalar(ctx, q, tr)
	if tr != nil {
		e.traces.Add(tr.Finish(e.ioNow()))
	}
	if e.metrics != nil && err == nil {
		e.metrics.Record(obs.KindPathAgg, time.Since(start))
	}
	if e.slow != nil {
		e.slowObserve(obs.KindPathAgg, q.String(), start, slowIO, false, err)
	}
	return res, err
}

func (e *Engine) executePathAggScalar(ctx context.Context, q *PathAggQuery, tr *obs.ActiveTrace) (*ScalarAggResult, error) {
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return nil, fmt.Errorf("query: empty path aggregation query")
	}
	if q.Agg.Fold == nil || q.Agg.Lift == nil {
		return nil, fmt.Errorf("query: aggregation function not set")
	}
	e.Rel.BeginRead() //grovevet:ignore lockorder paged measure scans fault value blocks from disk under the read lock by design: readers proceed concurrently, and the aggregate must fold the same cut the filter matched
	defer e.Rel.EndRead()
	paths := q.Paths
	if len(paths) == 0 {
		if tr != nil {
			tr.Begin(obs.PhasePlan, e.ioNow())
		}
		var err error
		paths, err = gpath.MaximalPaths(q.G)
		if err != nil {
			return nil, err
		}
	}
	isMin := q.Agg.Name == agg.Min.Name

	// Eligibility for the zone-skipping plan: the fold must be MIN or MAX
	// (only those have a "cannot tighten the accumulator" proof from a
	// [min,max] zone), every path must cover to exactly one segment (a
	// multi-segment path folds per record, where one missing segment NULLs
	// the whole record — a property no single column's zones can express),
	// and no path may carry node measures (they enter per-record folds as
	// optional operands, same problem). Decided before any column is fetched,
	// so an ineligible query pays nothing extra on its way to the row plan.
	eligible := isMin || q.Agg.Name == agg.Max.Name
	var plans []pathSegment // the single segment of each path, in path order
	if eligible {
		pathEdges := q.pathEdges
		if pathEdges == nil {
			pathEdges = resolvePathEdges(e.Reg, paths)
		}
	plan:
		for pi, p := range paths {
			for _, nk := range p.MeasuredNodes() {
				if id, ok := e.Reg.Lookup(graph.NodeKey(nk)); ok && e.Rel.MeasureColumn(id) != nil {
					eligible = false
					break plan
				}
			}
			segs := coverPath(e.Rel, pathEdges[pi], q.Agg.Name, q.Measure, e.UseViews)
			if len(segs) != 1 {
				eligible = false
				break plan
			}
			plans = append(plans, segs[0])
		}
	}
	if !eligible {
		res, err := e.executePathAggLocked(ctx, q, tr)
		if err != nil {
			return nil, err
		}
		return res.Scalar(), nil
	}

	structural, err := e.executeGraphQueryLocked(ctx, &GraphQuery{G: q.G, edges: q.edges}, tr)
	if err != nil {
		return nil, err
	}
	// Fetch the one column of each path (nil when the segment's column does
	// not exist: every record then folds to NULL on that path and it
	// contributes nothing to the scalar).
	if tr != nil {
		tr.Begin(obs.PhaseMeasureScan, e.ioNow())
	}
	cols := make([]*colstore.MeasureColumn, 0, len(plans))
	var spanEdges []colstore.EdgeID
	fetched := make(map[colstore.EdgeID]*colstore.MeasureColumn)
	fetchedViews := make(map[string]*colstore.MeasureColumn)
	for _, s := range plans {
		var col *colstore.MeasureColumn
		if s.ViewName != "" {
			c, ok := fetchedViews[s.ViewName]
			if !ok {
				var err error
				c, err = e.Rel.FetchAggViewMeasure(s.ViewName)
				if err != nil {
					return nil, err
				}
				fetchedViews[s.ViewName] = c
			}
			col = c
		} else {
			c, ok := fetched[s.Edge]
			if !ok {
				c = e.Rel.FetchMeasureColumnNamed(s.Edge, q.Measure)
				fetched[s.Edge] = c
				if c != nil {
					spanEdges = append(spanEdges, s.Edge)
				}
			}
			col = c
		}
		cols = append(cols, col)
	}

	answer := structural.Answer
	out := &ScalarAggResult{Query: q, Records: answer.Cardinality(), ZoneSkipped: true}
	if tr != nil {
		tr.Begin(obs.PhaseBlockSkip, e.ioNow())
	}
	scratch := recsPool.Get().(*[]uint32)
	recs := answer.AppendInto((*scratch)[:0])
	acc := q.Agg.Identity
	for _, col := range cols {
		if col == nil {
			continue
		}
		a, f, s, sk := col.AggregateSkip(recs, acc, isMin)
		acc = a
		out.Folded += f
		out.BlocksScanned += s
		out.BlocksSkipped += sk
	}
	*scratch = recs[:0]
	recsPool.Put(scratch)
	if out.Folded == 0 {
		acc = math.NaN()
	}
	out.Value = acc
	e.Rel.AccountMeasuresScanned(out.Folded)
	e.Rel.JoinPartitions(e.Rel.PartitionSpan(spanEdges), answer)
	if err := e.Rel.PageError(); err != nil {
		return nil, err
	}
	return out, nil
}
