package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/obs"
	"grove/internal/query"
)

// scatter fans fn across every shard concurrently and gathers the per-shard
// results in shard order. The first shard failure cancels the siblings'
// sub-context, so a cancelled or failed query promptly abandons all shard
// sub-queries instead of letting the stragglers run to completion. A panic
// in a shard goroutine is recovered into an error (on the single-relation
// path a query panic unwinds the caller's goroutine; here it would kill the
// process otherwise). Every caller has taken the n=1 early return first —
// one shard runs inline on the caller's goroutine, with the exact
// single-relation execution profile — so scatter always has siblings.
func scatter[T any](ctx context.Context, c *Coordinator, fn func(ctx context.Context, s int, u *Unit) (T, error)) ([]T, error) {
	n := len(c.units)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s, u := range c.units {
		wg.Add(1)
		u.pending.Add(1)
		go func(s int, u *Unit) {
			defer wg.Done()
			defer u.pending.Add(-1)
			defer func() {
				if p := recover(); p != nil {
					errs[s] = fmt.Errorf("shard %d: query panicked: %v", s, p)
					cancel()
				}
			}()
			v, err := fn(sctx, s, u)
			if err != nil {
				errs[s] = err
				cancel() // abandon the sibling sub-queries promptly
				return
			}
			results[s] = v
		}(s, u)
	}
	wg.Wait()
	if err := scatterError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// isCancellation reports whether err is a context cancellation or deadline.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scatterError picks the error to surface from a scatter round. When one
// shard fails for a real reason, its siblings abort with context.Canceled
// from the induced cancellation — surfacing one of those would mask the
// cause — so cancellation errors are only returned when no shard reports
// anything else (i.e. the caller's own context was cancelled).
func scatterError(errs []error) error {
	var first error
	for _, err := range errs {
		first = preferErr(first, err)
	}
	return first
}

// preferErr merges two error slots, keeping the earlier one unless it is a
// cancellation and the later one a real error (same masking concern as
// scatterError).
func preferErr(cur, next error) error {
	if cur == nil || (next != nil && isCancellation(cur) && !isCancellation(next)) {
		return next
	}
	return cur
}

// --- observed scatter --------------------------------------------------------

// subOut carries one shard's sub-query value plus the observability
// byproducts runScattered collects: the captured engine trace and the
// queue-wait/execution timings.
type subOut[T any] struct {
	v      T
	child  obs.Trace
	traced bool
	wait   time.Duration
	dur    time.Duration
}

// runScattered executes one logical query across every shard of a multi-shard
// coordinator and merges the partials. kind and qstr name the query for the
// root trace and the slow log (qstr may be empty when neither is attached —
// callers skip rendering it to keep the disabled path allocation-free).
//
// With no observability hooks attached this is exactly scatter + merge. With
// tracing on, each shard sub-query runs on an engine clone holding a private
// one-slot capture ring, and the coordinator records one hierarchical root
// trace: a fan-out span covering the scatter, one queue-wait span per shard
// (dispatch → sub-query start), the per-shard engine traces as children, and
// a merge span. With the slow log on, the clone detaches the engine-level
// log — the coordinator records one merged entry per logical query with
// per-shard timings instead of N fragments. Queue-wait and merge histograms
// are observed when attached.
func runScattered[T, R any](ctx context.Context, c *Coordinator, kind, qstr string,
	run func(ctx context.Context, eng *query.Engine, u *Unit) (T, error),
	merge func(subs []T) R) (R, error) {

	var zero R
	ring, slow := c.traces, c.slow
	var start time.Time
	var startIO obs.IODelta
	if slow != nil {
		start = time.Now()
		startIO = c.ioNow()
	}
	var root *obs.ActiveTrace
	if ring != nil {
		root = obs.StartTrace(kind, qstr, c.ioNow())
		root.SetShard(obs.ShardCoordinator)
		root.Begin(obs.PhaseFanOut, c.ioNow())
	}
	capture := root != nil
	clone := capture || slow != nil
	timed := clone || c.queueWait != nil
	var dispatch time.Time
	if timed {
		dispatch = time.Now()
	}
	subs, err := scatter(ctx, c, func(ctx context.Context, s int, u *Unit) (subOut[T], error) {
		var out subOut[T]
		var begun time.Time
		if timed {
			begun = time.Now()
			out.wait = begun.Sub(dispatch)
			if c.queueWait != nil {
				c.queueWait[s].Observe(out.wait.Seconds())
			}
		}
		eng := u.Eng
		var cring *obs.TraceRing
		if clone {
			eng = eng.Clone()
			eng.SetSlowLog(nil)
			if capture {
				cring = obs.NewTraceRing(1)
				eng.SetTraces(cring)
			} else {
				eng.SetTraces(nil)
			}
		}
		v, err := run(ctx, eng, u)
		if timed {
			out.dur = time.Since(begun)
		}
		if cring != nil {
			if rec := cring.Recent(); len(rec) > 0 {
				out.child = rec[0]
				out.traced = true
			}
		}
		if err != nil {
			return out, err
		}
		out.v = v
		return out, nil
	})
	if err != nil {
		// The per-shard results (and their captured traces) are discarded by
		// scatter on error; the root still records the failed fan-out.
		if root != nil {
			ring.Add(root.Finish(c.ioNow()))
		}
		if slow != nil {
			c.slowObserve(kind, qstr, start, startIO, nil, err)
		}
		return zero, err
	}
	if root != nil {
		root.Begin(obs.PhaseMerge, c.ioNow()) // closes the fan-out span
		for s, sb := range subs {
			root.AddSpan(obs.Span{Phase: obs.PhaseQueueWait, Shard: s,
				DurationNanos: sb.wait.Nanoseconds()})
		}
		for _, sb := range subs {
			if sb.traced {
				root.AddChild(sb.child)
			}
		}
	}
	vals := make([]T, len(subs))
	for i, sb := range subs {
		vals[i] = sb.v
	}
	var mstart time.Time
	if c.mergeDur != nil {
		mstart = time.Now()
	}
	out := merge(vals)
	if c.mergeDur != nil {
		c.mergeDur.Observe(time.Since(mstart).Seconds())
	}
	if root != nil {
		ring.Add(root.Finish(c.ioNow()))
	}
	if slow != nil {
		timings := make([]obs.ShardTiming, len(subs))
		for s, sb := range subs {
			timings[s] = obs.ShardTiming{Shard: s,
				QueueNanos: sb.wait.Nanoseconds(), DurationNanos: sb.dur.Nanoseconds()}
		}
		c.slowObserve(kind, qstr, start, startIO, timings, nil)
	}
	return out, nil
}

// slowObserve appends a coordinator-level slow-log entry when the finished
// scatter-gather crossed the log's latency threshold.
func (c *Coordinator) slowObserve(kind, qstr string, start time.Time, startIO obs.IODelta, shards []obs.ShardTiming, err error) {
	d := time.Since(start)
	if d < c.slow.Threshold() {
		return
	}
	sq := obs.SlowQuery{
		Kind:           kind,
		Query:          qstr,
		Shard:          obs.ShardCoordinator,
		StartUnixNanos: start.UnixNano(),
		DurationNanos:  d.Nanoseconds(),
		IO:             c.ioNow().Sub(startIO),
		Shards:         shards,
	}
	if err != nil {
		sq.Error = err.Error()
		sq.Cancelled = isCancellation(err)
	}
	c.slow.Add(sq)
}

// queryName renders a query's display string only when an observability hook
// needs it, so the disabled scatter path never pays the rendering.
//
//grove:hotpath
func (c *Coordinator) queryName(s fmt.Stringer) string {
	if c.traces == nil && c.slow == nil {
		return ""
	}
	return s.String()
}

// --- graph queries -----------------------------------------------------------

// mergeResults combines per-shard graph-query results: the global answer is
// the offset-translated union of the (disjoint) per-shard answers. Plan is
// shard 0's, as the representative — shards share the schema and views, so
// the plans agree.
func (c *Coordinator) mergeResults(q *query.GraphQuery, subs []*query.Result) *query.Result {
	answers := make([]*bitmap.Bitmap, len(subs))
	for i, r := range subs {
		answers[i] = r.Answer
	}
	return &query.Result{
		Query:  q,
		Plan:   subs[0].Plan,
		Answer: c.mergeBitmaps(answers),
		Subs:   append([]*query.Result(nil), subs...), // retained: a batch worker reuses its buffer
	}
}

// MatchContext executes a structural graph query across all shards.
func (c *Coordinator) MatchContext(ctx context.Context, q *query.GraphQuery) (*query.Result, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.ExecuteGraphQueryContext(ctx, q)
	}
	rq := q.Resolved(c.reg) // once, not per shard
	return runScattered(ctx, c, obs.KindGraph, c.queryName(q),
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.Result, error) {
			return eng.ExecuteGraphQueryContext(ctx, rq)
		},
		func(subs []*query.Result) *query.Result { return c.mergeResults(q, subs) })
}

// EvalExprContext evaluates a boolean expression over graph queries across
// all shards. AND/OR/ANDNOT distribute over a disjoint record partition, so
// each shard evaluates the whole expression locally and the global answer is
// the translated union.
func (c *Coordinator) EvalExprContext(ctx context.Context, expr query.Expr) (*bitmap.Bitmap, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.EvalExprContext(ctx, expr)
	}
	return c.evalScattered(ctx, obs.KindExpr, c.queryName(expr), expr)
}

// evalScattered is the multi-shard expression evaluation body, parameterized
// on the trace/slow-log labels so sharded statements can reuse it under the
// "statement" kind with the statement's text.
func (c *Coordinator) evalScattered(ctx context.Context, kind, qstr string, expr query.Expr) (*bitmap.Bitmap, error) {
	return runScattered(ctx, c, kind, qstr,
		func(ctx context.Context, eng *query.Engine, u *Unit) (*bitmap.Bitmap, error) {
			return eng.EvalExprContext(ctx, expr)
		},
		func(subs []*bitmap.Bitmap) *bitmap.Bitmap { return c.mergeBitmaps(subs) })
}

// --- path aggregation --------------------------------------------------------

// mergeAgg combines per-shard path-aggregation results. Each record's
// per-path folds were computed entirely inside its shard — merging is pure
// reordering by ascending global id, never re-association of float folds —
// so an n-shard aggregate is bit-identical to the single-shard one,
// including NaN and signed-zero values. The per-shard rows are already
// ascending runs (global = local·N + s is monotone within a shard), so one
// linear k-way merge emits ids and copies values verbatim, and the answer
// bitmap is bulk-built from the merged ids.
func (c *Coordinator) mergeAgg(q *query.PathAggQuery, subs []*query.AggResult) *query.AggResult {
	total := 0
	for _, r := range subs {
		total += len(r.RecordIDs)
	}
	out := &query.AggResult{
		Query:           q,
		RecordIDs:       make([]uint32, total),
		Paths:           subs[0].Paths,
		SegmentsPerPath: subs[0].SegmentsPerPath,
		Values:          make([][]float64, len(subs[0].Values)),
	}
	cells := make([]float64, len(out.Values)*total)
	for p := range out.Values {
		out.Values[p] = cells[p*total : (p+1)*total : (p+1)*total]
	}
	sc := mergePool.Get().(*mergeScratch)
	sc.reset(len(subs))
	for s, r := range subs {
		sc.ids[s], sc.vals[s] = r.RecordIDs, r.Values
	}
	mergeRows(sc, out.RecordIDs, out.Values)
	sc.release()
	out.Answer = bitmap.FromSorted(out.RecordIDs)
	return out
}

// mergeBitmaps unions per-shard answers into one global-id bitmap: decode
// every shard's local ids into one pooled slab, k-way merge them into
// ascending global ids, bulk-build the result.
func (c *Coordinator) mergeBitmaps(subs []*bitmap.Bitmap) *bitmap.Bitmap {
	total := 0
	for _, b := range subs {
		total += b.Cardinality()
	}
	sc := mergePool.Get().(*mergeScratch)
	sc.reset(len(subs))
	if cap(sc.slab) < 2*total {
		sc.slab = make([]uint32, 0, 2*total)
	}
	slab := sc.slab[:0]
	for s, b := range subs {
		start := len(slab)
		slab = b.AppendInto(slab) // within capacity: earlier windows stay valid
		sc.ids[s] = slab[start:]
	}
	merged := slab[total : 2*total]
	mergeRows(sc, merged, nil)
	out := bitmap.FromSorted(merged)
	sc.release()
	return out
}

// mergeScratch is the pooled working state of one merge: per shard the
// ascending local ids, the value rows aligned with them (aggregates only) and
// the merge cursor, plus the slab bitmap merges decode into.
type mergeScratch struct {
	ids  [][]uint32
	vals [][][]float64
	pos  []int
	slab []uint32
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

func (sc *mergeScratch) reset(n int) {
	if cap(sc.ids) < n {
		sc.ids, sc.vals, sc.pos = make([][]uint32, n), make([][][]float64, n), make([]int, n)
	}
	sc.ids, sc.vals, sc.pos = sc.ids[:n], sc.vals[:n], sc.pos[:n]
	clear(sc.pos)
}

// release drops the references into per-shard results and returns the
// scratch to the pool.
func (sc *mergeScratch) release() {
	clear(sc.ids)
	clear(sc.vals)
	mergePool.Put(sc)
}

// mergeRows is the merge kernel: it fills outIDs (whose length is the total
// number of rows) with the ascending global ids of the per-shard local-id
// lists in sc, and outVals[p][j] with the value row of the record at outIDs[j]
// (outVals is nil for a bitmap merge). Each step takes the smallest head among
// the N shard cursors: N compares per row, no sort, no allocation.
//
//grove:hotpath
func mergeRows(sc *mergeScratch, outIDs []uint32, outVals [][]float64) {
	n := uint64(len(sc.ids))
	for j := range outIDs {
		best, bestG := 0, uint64(math.MaxUint64)
		for s, ids := range sc.ids {
			if p := sc.pos[s]; p < len(ids) {
				if g := uint64(ids[p])*n + uint64(s); g < bestG {
					best, bestG = s, g
				}
			}
		}
		i := sc.pos[best]
		sc.pos[best] = i + 1
		outIDs[j] = uint32(bestG)
		for p, row := range outVals {
			row[j] = sc.vals[best][p][i]
		}
	}
}

// AggregateContext executes a path-aggregation query across all shards.
func (c *Coordinator) AggregateContext(ctx context.Context, q *query.PathAggQuery) (*query.AggResult, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.ExecutePathAggQueryContext(ctx, q)
	}
	return c.aggregateScattered(ctx, obs.KindPathAgg, c.queryName(q), q)
}

// aggregateScattered is the multi-shard path-aggregation body, parameterized
// on the trace/slow-log labels (see evalScattered).
func (c *Coordinator) aggregateScattered(ctx context.Context, kind, qstr string, q *query.PathAggQuery) (*query.AggResult, error) {
	rq := q.Resolved(c.reg) // once, not per shard
	return runScattered(ctx, c, kind, qstr,
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.AggResult, error) {
			return eng.ExecutePathAggQueryContext(ctx, rq)
		},
		func(subs []*query.AggResult) *query.AggResult { return c.mergeAgg(q, subs) })
}

// AggregateScalarContext executes a path aggregation folded all the way down
// to one scalar across all shards. MIN/MAX queries scatter the scalar plan —
// each shard runs its (possibly zone-skipping) scan and the shard scalars
// merge with the query's own Fold, which is bit-identical to the global
// record-order fold because MIN/MAX are order-independent under the kernel
// total order. Any other function routes through the row-merging
// AggregateContext and folds the merged rows in ascending global record
// order, because float addition does not reassociate.
func (c *Coordinator) AggregateScalarContext(ctx context.Context, q *query.PathAggQuery) (*query.ScalarAggResult, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.ExecutePathAggScalarContext(ctx, q)
	}
	if q != nil && (q.Agg.Name == agg.Min.Name || q.Agg.Name == agg.Max.Name) {
		return runScattered(ctx, c, obs.KindPathAgg, c.queryName(q),
			func(ctx context.Context, eng *query.Engine, u *Unit) (*query.ScalarAggResult, error) {
				return eng.ExecutePathAggScalarContext(ctx, q)
			},
			func(subs []*query.ScalarAggResult) *query.ScalarAggResult { return mergeScalar(q, subs) })
	}
	res, err := c.AggregateContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return res.Scalar(), nil
}

// mergeScalar combines per-shard scalar aggregates of a MIN/MAX query in
// shard order. Each shard's Value is the total-order extremum of its local
// contributions, so folding the shard values yields the extremum of the whole
// multiset — independent of shard count and order, bit for bit (including
// signed zero). Shards with nothing to contribute report NaN and are skipped,
// exactly like NULL records in the single-shard fold.
func mergeScalar(q *query.PathAggQuery, subs []*query.ScalarAggResult) *query.ScalarAggResult {
	out := &query.ScalarAggResult{Query: q, ZoneSkipped: true}
	acc := q.Agg.Identity
	any := false
	for _, s := range subs {
		out.Records += s.Records
		out.Folded += s.Folded
		out.BlocksScanned += s.BlocksScanned
		out.BlocksSkipped += s.BlocksSkipped
		out.ZoneSkipped = out.ZoneSkipped && s.ZoneSkipped
		if !math.IsNaN(s.Value) {
			acc = q.Agg.Fold(acc, s.Value)
			any = true
		}
	}
	if !any {
		acc = math.NaN()
	}
	out.Value = acc
	return out
}

// --- statements --------------------------------------------------------------

// ExecuteStatementContext parses and executes one text-language statement
// across all shards.
func (c *Coordinator) ExecuteStatementContext(ctx context.Context, text string) (*query.StatementResult, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.ExecuteStatementContext(ctx, text)
	}
	stmt, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	// The coordinator parses once and scatters the parsed form, so — unlike
	// the single-shard path — the root trace carries no parse span; it is
	// labelled with the statement kind and text, and the per-shard children
	// trace under their own execution kind.
	if stmt.Agg != nil {
		res, err := c.aggregateScattered(ctx, obs.KindStatement, text, stmt.Agg)
		if err != nil {
			return nil, err
		}
		return &query.StatementResult{Agg: res}, nil
	}
	ids, err := c.evalScattered(ctx, obs.KindStatement, text, stmt.Expr)
	if err != nil {
		return nil, err
	}
	return &query.StatementResult{IDs: ids}, nil
}

// --- batches -----------------------------------------------------------------

// runBatch is the query-major batch body of a multi-shard coordinator. One
// pool of workers (query.RunWorkers: the pool, error slots, cancellation
// drain and panic isolation of a single-shard batch) hands out query indexes;
// each worker holds one engine clone per shard, and the worker that takes
// query i resolves it once against the shared registry, runs its N shard
// sub-queries inline and merges them in place — no per-shard pool, barrier or
// cross-goroutine hand-off, merges overlapping other queries' shard work, and
// workers still the batch's total concurrency.
//
// A query errors if it failed on any shard, a real error winning over a
// cancellation. For the gauges a batch is one scatter round: every shard
// counts one pending unit while the batch is in flight, and queueWait[s]
// observes once per batch, from dispatch to the start of the first sub-query
// on shard s. mergeDur observes each query's merge.
func runBatch[Q, R any](ctx context.Context, c *Coordinator, queries []Q, workers int,
	resolve func(q Q) Q,
	run func(ctx context.Context, eng *query.Engine, q Q) (R, error),
	merge func(q Q, subs []R) R) ([]R, []error) {

	type worker struct {
		engs []*query.Engine
		subs []R
	}
	c.addPending(1)
	defer c.addPending(-1)
	var dispatch time.Time
	var started []atomic.Bool
	if c.queueWait != nil {
		dispatch, started = time.Now(), make([]atomic.Bool, len(c.units))
	}
	out := make([]R, len(queries))
	errs := query.RunWorkers(ctx, c.metrics, workers, len(queries),
		func() *worker {
			w := &worker{engs: make([]*query.Engine, len(c.units)), subs: make([]R, len(c.units))}
			for s, u := range c.units {
				w.engs[s] = u.Eng.Clone()
			}
			return w
		},
		func(w *worker, i int) error {
			q := resolve(queries[i])
			var qerr error
			for s, eng := range w.engs {
				if started != nil && !started[s].Load() && started[s].CompareAndSwap(false, true) {
					c.queueWait[s].Observe(time.Since(dispatch).Seconds())
				}
				sub, err := run(ctx, eng, q)
				if err != nil {
					// A real error is the query's answer; after a cancellation
					// the remaining shards bail at their first check, unless
					// one of them has a real error to report instead.
					if qerr = preferErr(qerr, err); !isCancellation(err) {
						break
					}
				}
				w.subs[s] = sub
			}
			if qerr != nil {
				return qerr
			}
			var mstart time.Time
			if c.mergeDur != nil {
				mstart = time.Now()
			}
			out[i] = merge(queries[i], w.subs)
			if c.mergeDur != nil {
				c.mergeDur.Observe(time.Since(mstart).Seconds())
			}
			return nil
		})
	return out, errs
}

// addPending moves every shard's pending gauge by d.
func (c *Coordinator) addPending(d int64) {
	for _, u := range c.units {
		u.pending.Add(d)
	}
}

// ExecuteGraphBatchContext runs a batch of structural queries across all
// shards with up to workers queries in flight (see runBatch).
func (c *Coordinator) ExecuteGraphBatchContext(ctx context.Context, queries []*query.GraphQuery, workers int) ([]*query.Result, []error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return query.NewBatchExecutor(u.Eng, workers).ExecuteGraphQueriesContext(ctx, queries)
	}
	return runBatch(ctx, c, queries, workers,
		func(q *query.GraphQuery) *query.GraphQuery { return q.Resolved(c.reg) },
		func(ctx context.Context, eng *query.Engine, q *query.GraphQuery) (*query.Result, error) {
			return eng.ExecuteGraphQueryContext(ctx, q)
		},
		c.mergeResults)
}

// ExecutePathAggBatchContext is ExecuteGraphBatchContext for
// path-aggregation batches.
func (c *Coordinator) ExecutePathAggBatchContext(ctx context.Context, queries []*query.PathAggQuery, workers int) ([]*query.AggResult, []error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return query.NewBatchExecutor(u.Eng, workers).ExecutePathAggQueriesContext(ctx, queries)
	}
	return runBatch(ctx, c, queries, workers,
		func(q *query.PathAggQuery) *query.PathAggQuery { return q.Resolved(c.reg) },
		func(ctx context.Context, eng *query.Engine, q *query.PathAggQuery) (*query.AggResult, error) {
			return eng.ExecutePathAggQueryContext(ctx, q)
		},
		c.mergeAgg)
}
