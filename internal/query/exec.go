package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
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
// a pool); mutating the exported fields concurrently with queries is not.
type Engine struct {
	Rel      *colstore.Relation
	Reg      *graph.Registry
	UseViews bool

	// metrics, when set, records per-query counters and latency histograms
	// (allocation-free). traces, when set, records a span-based lifecycle
	// trace per query into the ring (allocation-free too once the ring is
	// full and hands back the traces it evicts). Both default to nil: the
	// disabled path costs
	// two nil checks and nothing else. Set them before serving queries
	// (mutating them mid-flight is not synchronized).
	metrics *obs.QueryMetrics
	traces  *obs.TraceRing

	// shardID labels this engine's traces with the shard it executes (0 for
	// a single-relation store).
	shardID int
}

// opState is one engine operation's pooled working state: its trace (nil
// when untraced), the operand slice of the structural AND that its graph
// queries fill one after another (so a query allocates O(1) bitmaps
// regardless of plan width), and spare, the trace the ring evicted when the
// last traced operation to hold this state was recorded. A traced operation
// reopens spare, so it neither allocates nor takes the ring's lock to start.
type opState struct {
	tr    *obs.ActiveTrace
	bms   []*bitmap.Bitmap
	spare *obs.ActiveTrace
}

var opPool = sync.Pool{New: func() any { return new(opState) }}

// NewEngine returns a view-aware engine.
func NewEngine(rel *colstore.Relation, reg *graph.Registry) *Engine {
	return &Engine{Rel: rel, Reg: reg, UseViews: true}
}

// Clone returns an engine sharing rel, registry, view setting and
// observability hooks with e. An engine keeps no per-query state (its
// scratch comes from a shared pool), so goroutines share one engine; a clone
// exists to run with different observers without touching e's.
func (e *Engine) Clone() *Engine {
	return &Engine{Rel: e.Rel, Reg: e.Reg, UseViews: e.UseViews,
		metrics: e.metrics, traces: e.traces, shardID: e.shardID}
}

// SetMetrics attaches a metrics bundle (nil disables). Attach before
// serving queries.
func (e *Engine) SetMetrics(m *obs.QueryMetrics) { e.metrics = m }

// SetTraces attaches a trace ring recording one lifecycle trace per query
// (nil disables). Attach before serving queries.
func (e *Engine) SetTraces(t *obs.TraceRing) { e.traces = t }

// SetShard labels the engine with the shard index it executes, stamped onto
// every trace it emits.
func (e *Engine) SetShard(id int) { e.shardID = id }

// Shard returns the engine's shard index.
func (e *Engine) Shard() int { return e.shardID }

// observed runs one query entry point with its pooled operation state and
// under the engine's observers: a lifecycle trace in the state, which
// records the error of a failed query, and the latency histogram. With
// neither attached they cost two nil checks and nothing else. text renders
// the query and is called only when a trace needs it. The trace opens on its
// first phase, first — parse for a statement, plan for every other query, so
// taking the read lock and resolving elements count as planning. A traced
// operation counts its I/O in the trace's own record and charges the
// relation's tracker once, at the end.
func observed[T any](e *Engine, kind, first string, text func() string, run func(*opState) (T, error)) (T, error) {
	op := opPool.Get().(*opState)
	var start time.Time
	if e.traces != nil {
		op.tr = obs.StartTraceIn(op.spare, kind, text(), first, obs.IODelta{})
		op.spare = nil
		op.tr.SetShard(e.shardID)
	} else if e.metrics != nil {
		start = time.Now()
	}
	res, err := run(op)
	var took time.Duration // with a trace, the histogram takes the trace's duration
	if tr := op.tr; tr != nil {
		cost := *tr.Cost()
		e.Rel.Account(cost)
		took, op.spare = e.traces.Record(tr, cost, err)
		op.tr = nil
	} else if e.metrics != nil {
		took = time.Since(start)
	}
	opPool.Put(op)
	if e.metrics != nil && err == nil {
		e.metrics.Record(kind, took)
	}
	return res, err
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
			tr.Enter(obs.PhaseCancelled)
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
	edges []colstore.EdgeID
	eng   *Engine
}

// NumRecords returns the answer cardinality.
func (r *Result) NumRecords() int { return r.Answer.Cardinality() }

// ExecuteGraphQueryContext evaluates the structural part of a graph query:
// plan (greedy rewrite when UseViews), fetch the planned bitmap columns, AND
// them (§4.2). The answer is a fresh bitmap the caller owns. The relation's
// read lock is held for the whole query, so the answer is consistent with a
// single relation version even while writers run concurrently. The engine
// checks ctx between bitmap fetches and abandons the query with ctx's error
// once it is cancelled, recording a "cancelled" span on the trace. The read
// lock is released on every exit path, including a panic in a kernel (batch
// workers recover those).
func (e *Engine) ExecuteGraphQueryContext(ctx context.Context, q *GraphQuery) (*Result, error) {
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return nil, fmt.Errorf("query: empty graph query")
	}
	return observed(e, obs.KindGraph, obs.PhasePlan, q.String, func(op *opState) (*Result, error) {
		e.Rel.BeginRead()
		defer e.Rel.EndRead()
		return e.executeGraphQueryLocked(ctx, q, op)
	})
}

// executeGraphQueryLocked is ExecuteGraphQuery with the relation read lock
// already held (BeginRead is not reentrant, so compound executions — path
// aggregation, boolean expressions — route through this). op.tr, when
// non-nil, receives the plan/fetch/intersect lifecycle spans.
func (e *Engine) executeGraphQueryLocked(ctx context.Context, q *GraphQuery, op *opState) (*Result, error) {
	tr := op.tr
	universe := q.edges
	if universe == nil {
		universe, _ = e.Reg.ResolveGraph(q.G)
	}
	cost := tr.Cost()
	if tr != nil {
		tr.Enter(obs.PhasePlan)
	}
	var plan CoverPlan
	if e.UseViews {
		plan = PlanCover(e.Rel, universe)
	} else {
		plan = PlanWithoutViews(universe)
	}

	if tr != nil {
		tr.Enter(obs.PhaseFetch)
	}
	bms := op.bms[:0]
	putScratch := func() {
		clear(bms)
		op.bms = bms[:0]
	}
	for _, name := range plan.Views {
		if err := e.checkCtx(ctx, tr); err != nil {
			putScratch()
			return nil, err
		}
		b, err := e.Rel.FetchViewBitmap(name, cost)
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
		b, err := e.Rel.FetchAggViewBitmap(name, cost)
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
		bms = append(bms, e.Rel.FetchEdgeBitmap(id, cost))
	}
	if tr != nil {
		tr.Enter(obs.PhaseIntersect)
	}
	// The conjunction intersects into one fresh destination the caller owns;
	// the fetched column bitmaps are never mutated.
	answer := e.Rel.MaskDeleted(bitmap.AndAllInto(bitmap.New(), bms...))
	putScratch() // don't pin column bitmaps from the pooled state
	e.Rel.AccountRecordsReturned(answer.Cardinality(), cost)
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
			col := e.Rel.FetchMeasureColumnNamed(id, name, nil)
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
	e.Rel.AccountMeasuresScanned(int(scanned), nil)
	e.Rel.JoinPartitions(e.Rel.PartitionSpan(spanEdges), r.Answer, nil)
	return scanned
}

// StatementResult is the answer of a statement: exactly one of IDs (a graph
// query or boolean combination), Agg (a path aggregation's rows) or Scalar (a
// scalar path aggregation) is set.
type StatementResult struct {
	IDs    *bitmap.Bitmap
	Agg    *AggResult
	Scalar *ScalarAggResult
}

// Execute runs one statement, observed under its Kind. A boolean expression
// runs under one read lock, so all its leaves see the same relation version,
// and ctx is checked between the leaves' bitmap fetches; a path aggregation
// runs as ExecutePathAggQueryContext does, or folded to one value when
// st.Agg.Scalar is set (see executePathAggScalar).
func (e *Engine) Execute(ctx context.Context, st Statement) (*StatementResult, error) {
	switch {
	case st.Agg == nil && st.Expr == nil:
		return nil, fmt.Errorf("query: empty statement")
	case st.Agg == nil:
		ids, err := observed(e, obs.KindGraph, obs.PhasePlan, st.Expr.String, func(op *opState) (*bitmap.Bitmap, error) {
			e.Rel.BeginRead()
			defer e.Rel.EndRead()
			return e.evalExprLocked(ctx, st.Expr, op)
		})
		if err != nil {
			return nil, err
		}
		return &StatementResult{IDs: ids}, nil
	case st.Agg.Scalar:
		res, err := observed(e, obs.KindPathAgg, obs.PhasePlan, st.Agg.String, func(op *opState) (*ScalarAggResult, error) {
			return e.executePathAggScalar(ctx, st.Agg, op)
		})
		if err != nil {
			return nil, err
		}
		return &StatementResult{Scalar: res}, nil
	default:
		res, err := e.ExecutePathAggQueryContext(ctx, st.Agg)
		if err != nil {
			return nil, err
		}
		return &StatementResult{Agg: res}, nil
	}
}

func (e *Engine) evalExprLocked(ctx context.Context, expr Expr, op *opState) (*bitmap.Bitmap, error) {
	tr := op.tr
	switch x := expr.(type) {
	case Leaf:
		if x.Q == nil || x.Q.G == nil || x.Q.G.NumElements() == 0 {
			return nil, fmt.Errorf("query: empty graph query")
		}
		res, err := e.executeGraphQueryLocked(ctx, x.Q, op)
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	case And:
		if len(x.Operands) == 0 {
			return nil, fmt.Errorf("query: AND with no operands")
		}
		acc, err := e.evalExprLocked(ctx, x.Operands[0], op)
		if err != nil {
			return nil, err
		}
		for _, operand := range x.Operands[1:] {
			b, err := e.evalExprLocked(ctx, operand, op)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.Enter(obs.PhaseIntersect)
			}
			acc = acc.And(b)
		}
		return acc, nil
	case Or:
		if len(x.Operands) == 0 {
			return nil, fmt.Errorf("query: OR with no operands")
		}
		acc, err := e.evalExprLocked(ctx, x.Operands[0], op)
		if err != nil {
			return nil, err
		}
		for _, operand := range x.Operands[1:] {
			b, err := e.evalExprLocked(ctx, operand, op)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				tr.Enter(obs.PhaseIntersect)
			}
			acc = acc.Or(b)
		}
		return acc, nil
	case Diff:
		a, err := e.evalExprLocked(ctx, x.A, op)
		if err != nil {
			return nil, err
		}
		b, err := e.evalExprLocked(ctx, x.B, op)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Enter(obs.PhaseIntersect)
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
	return observed(e, obs.KindPathAgg, obs.PhasePlan, q.String, func(op *opState) (*AggResult, error) {
		return e.executePathAggQuery(ctx, q, op)
	})
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

// pathScratch holds the pooled working state of one path aggregation: the
// gather slabs (one values/present window per segment), the shared NULL
// mask, and the segment descriptors, which serve one path at a time; and the
// query's column caches, through which a segment shared by several paths is
// fetched once.
type pathScratch struct {
	vslab       []float64
	pslab       []bool
	null        []bool
	planned     []plannedSeg
	segs        []gatheredSeg
	measureCols map[colstore.EdgeID]*colstore.MeasureColumn
	viewCols    map[string]*colstore.MeasureColumn
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
func (e *Engine) executePathAggQuery(ctx context.Context, q *PathAggQuery, op *opState) (*AggResult, error) {
	// One read lock spans the structural filter and the measure scans, so
	// the aggregates are computed over exactly the records the filter saw.
	e.Rel.BeginRead() //grovevet:ignore lockorder paged measure scans fault value blocks from disk under the read lock by design: readers proceed concurrently, and the aggregate must fold the same cut the filter matched
	defer e.Rel.EndRead()
	sc := pathScratchPool.Get().(*pathScratch)
	defer pathScratchPool.Put(sc)
	pa, err := e.startPathAgg(ctx, q, op, sc, nil)
	if err != nil {
		return nil, err
	}
	scanned := 0
	for pi := range pa.res.Paths {
		if err := e.checkCtx(ctx, op.tr); err != nil {
			return nil, err
		}
		if sc.planned, err = pa.planPath(sc.planned[:0], pi); err != nil {
			return nil, err
		}
		scanned += pa.foldPath(sc.planned)
	}
	return pa.finish(scanned)
}

// pathAgg is one path aggregation in flight under the relation read lock:
// the structural answer and the paths to fold along (res), their edge ids,
// and the query's pooled scratch. The row and the scalar executor both plan
// through it.
type pathAgg struct {
	e         *Engine
	q         *PathAggQuery
	tr        *obs.ActiveTrace
	k         agg.Kernel
	res       *AggResult
	pathEdges [][]colstore.EdgeID
	sc        *pathScratch
}

// startPathAgg rejects a query it cannot run, runs the structural filter,
// appends the answer's record ids to ids, resolves the maximal paths (unless
// the query names explicit ones) to edge ids, and empties sc's column caches.
func (e *Engine) startPathAgg(ctx context.Context, q *PathAggQuery, op *opState, sc *pathScratch, ids []uint32) (pathAgg, error) {
	tr := op.tr
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return pathAgg{}, fmt.Errorf("query: empty path aggregation query")
	}
	if q.Agg.Fold == nil || q.Agg.Lift == nil {
		return pathAgg{}, fmt.Errorf("query: aggregation function not set")
	}
	for _, p := range q.Paths {
		if len(p.Nodes) < 2 {
			return pathAgg{}, fmt.Errorf("query: a path aggregation needs at least 2 nodes, got %s", p)
		}
	}
	structural, err := e.executeGraphQueryLocked(ctx, &GraphQuery{G: q.G, edges: q.edges}, op)
	if err != nil {
		return pathAgg{}, err
	}
	paths := q.Paths
	if len(paths) == 0 {
		paths = q.maximal
	}
	if len(paths) == 0 {
		if tr != nil {
			tr.Enter(obs.PhasePlan)
		}
		if paths, err = gpath.MaximalPaths(q.G); err != nil {
			return pathAgg{}, err
		}
	}
	pathEdges := q.pathEdges
	if pathEdges == nil {
		pathEdges = resolvePathEdges(e.Reg, paths)
	}
	if sc.measureCols == nil {
		sc.measureCols = make(map[colstore.EdgeID]*colstore.MeasureColumn)
		sc.viewCols = make(map[string]*colstore.MeasureColumn)
	}
	clear(sc.measureCols)
	clear(sc.viewCols)
	answer := structural.Answer
	return pathAgg{e: e, q: q, tr: tr, k: agg.KernelFor(q.Agg), pathEdges: pathEdges, sc: sc,
		res: &AggResult{Query: q, Answer: answer, RecordIDs: answer.AppendInto(ids), Paths: paths},
	}, nil
}

// planPath covers path pi with aggregate views and fetches every column the
// fold will read, appending the fold operands to dst: required segments in
// path order, then the optional node-measure columns. It records the path's
// (view, raw) segment counts. Covering is plan work, fetching is
// measure-scan work; the span boundary sits between them.
func (pa *pathAgg) planPath(dst []plannedSeg, pi int) ([]plannedSeg, error) {
	e, tr := pa.e, pa.tr
	if tr != nil {
		tr.Enter(obs.PhasePlan) // cover the path with agg views
	}
	segs := coverPath(e.Rel, pa.pathEdges[pi], pa.q.Agg.Name, pa.q.Measure, e.UseViews)
	if tr != nil {
		tr.Enter(obs.PhaseMeasureScan)
	}
	var counts [2]int
	for _, s := range segs {
		if s.ViewName != "" {
			c, ok := pa.sc.viewCols[s.ViewName]
			if !ok {
				var err error
				if c, err = e.Rel.FetchAggViewMeasure(s.ViewName, tr.Cost()); err != nil {
					return dst, err
				}
				pa.sc.viewCols[s.ViewName] = c
			}
			dst = append(dst, plannedSeg{col: c, kind: segView})
			counts[0]++
		} else {
			dst = append(dst, plannedSeg{col: pa.measure(s.Edge), kind: segRaw})
			counts[1]++
		}
	}
	for _, n := range pa.res.Paths[pi].MeasuredNodes() {
		if id, ok := e.Reg.Lookup(graph.NodeKey(n)); ok && e.Rel.MeasureColumn(id) != nil {
			dst = append(dst, plannedSeg{col: pa.measure(id), kind: segNode})
		}
	}
	pa.res.SegmentsPerPath = append(pa.res.SegmentsPerPath, counts)
	return dst, nil
}

// measure fetches the query's measure column of element id once per query
// (nil when it does not exist).
func (pa *pathAgg) measure(id colstore.EdgeID) *colstore.MeasureColumn {
	c, ok := pa.sc.measureCols[id]
	if !ok {
		c = pa.e.Rel.FetchMeasureColumnNamed(id, pa.q.Measure, pa.tr.Cost())
		pa.sc.measureCols[id] = c
	}
	return c
}

// foldPath gathers one path's planned columns over the answer set and folds
// them into the path's row of Values; it returns the values folded.
func (pa *pathAgg) foldPath(planned []plannedSeg) int {
	sc := pa.sc
	sc.gather(pa.res.RecordIDs, planned)
	if pa.tr != nil {
		pa.tr.Enter(obs.PhaseAggregate)
	}
	vals := make([]float64, len(pa.res.RecordIDs))
	for i := range vals {
		vals[i] = pa.q.Agg.Identity
	}
	pa.res.Values = append(pa.res.Values, vals)
	return foldGathered(pa.k, vals, sc)
}

// finish is the shared tail: it accounts the values folded and the
// cross-partition joins of the measure columns read, and fails the query when
// a paged column's block fault failed mid-scan — the folds then hold zeros
// standing in for unread data, so the whole answer is suspect.
func (pa *pathAgg) finish(scanned int) (*AggResult, error) {
	rel := pa.e.Rel
	rel.AccountMeasuresScanned(scanned, pa.tr.Cost())
	spanEdges := make([]colstore.EdgeID, 0, len(pa.sc.measureCols))
	for id := range pa.sc.measureCols {
		spanEdges = append(spanEdges, id)
	}
	rel.JoinPartitions(rel.PartitionSpan(spanEdges), pa.res.Answer, pa.tr.Cost())
	if err := rel.PageError(); err != nil {
		return nil, err
	}
	return pa.res, nil
}

// --- scalar path aggregation --------------------------------------------------

// ScalarAggResult is the answer of a scalar path aggregation: one aggregate value
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

// executePathAggScalar evaluates a path aggregation and folds it all the way
// down to one scalar: Fold across the per-record path aggregates of every
// answer record. It plans every path as the row executor does; when the
// function is MIN or MAX and each planned path is a single operand (one raw
// edge, or one aggregate view spanning the whole path) with no node measure,
// it runs a zone-skipping scan: per-block zone maps prove most blocks cannot
// tighten the accumulator and those blocks are never decoded — or even read
// from disk on a paged store. Every other query folds its planned paths as
// the row executor does and then folds the rows, so the scalar answer is
// always exactly Fold over AggResult.FoldAcrossPaths() in record order, bit
// for bit. ctx is checked between the structural phase's bitmap fetches and
// between the folds of the row branch.
func (e *Engine) executePathAggScalar(ctx context.Context, q *PathAggQuery, op *opState) (*ScalarAggResult, error) {
	tr := op.tr
	e.Rel.BeginRead() //grovevet:ignore lockorder paged measure scans fault value blocks from disk under the read lock by design: readers proceed concurrently, and the aggregate must fold the same cut the filter matched
	defer e.Rel.EndRead()
	// The row result never leaves this executor, so its record ids can live
	// in pooled scratch.
	sc := pathScratchPool.Get().(*pathScratch)
	defer pathScratchPool.Put(sc)
	recs := recsPool.Get().(*[]uint32)
	defer recsPool.Put(recs)
	pa, err := e.startPathAgg(ctx, q, op, sc, (*recs)[:0])
	if err != nil {
		return nil, err
	}
	*recs = pa.res.RecordIDs[:0]
	// Zone skipping needs a fold with a "cannot tighten the accumulator" proof
	// from a [min,max] zone — MIN or MAX — and one column per path: a
	// multi-segment path folds per record, where one missing segment NULLs the
	// whole record, and a node measure enters per-record folds as an optional
	// operand; no single column's zones can express either.
	isMin := q.Agg.Name == agg.Min.Name
	eligible := isMin || q.Agg.Name == agg.Max.Name
	plans := make([][]plannedSeg, len(pa.res.Paths))
	for pi := range plans {
		if plans[pi], err = pa.planPath(nil, pi); err != nil {
			return nil, err
		}
		eligible = eligible && len(plans[pi]) == 1 && plans[pi][0].kind != segNode
	}
	if !eligible {
		scanned := 0
		for _, planned := range plans {
			if err := e.checkCtx(ctx, tr); err != nil {
				return nil, err
			}
			scanned += pa.foldPath(planned)
		}
		res, err := pa.finish(scanned)
		if err != nil {
			return nil, err
		}
		return res.Scalar(), nil
	}

	if tr != nil {
		tr.Enter(obs.PhaseBlockSkip)
	}
	out := &ScalarAggResult{Query: q, Records: len(pa.res.RecordIDs), ZoneSkipped: true}
	acc := q.Agg.Identity
	for _, planned := range plans {
		// A nil column folds every record to NULL on its path: it
		// contributes nothing to the scalar.
		if col := planned[0].col; col != nil {
			a, f, s, sk := col.AggregateSkip(pa.res.RecordIDs, acc, isMin)
			acc = a
			out.Folded += f
			out.BlocksScanned += s
			out.BlocksSkipped += sk
		}
	}
	if out.Folded == 0 {
		acc = math.NaN()
	}
	out.Value = acc
	if _, err := pa.finish(out.Folded); err != nil {
		return nil, err
	}
	return out, nil
}
