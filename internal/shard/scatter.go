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
// results in shard order (fanOut), counting each shard's round on its
// pending gauge from dispatch until its goroutine returns. Every query
// caller has taken the n=1 early return first — one shard runs inline on the
// caller's goroutine, with the exact single-relation execution profile — so
// for queries scatter always has siblings.
func scatter[T any](ctx context.Context, c *Coordinator, fn func(ctx context.Context, s int, u *Unit) (T, error)) ([]T, error) {
	c.addPending(1)
	return fanOut(ctx, len(c.units), func(ctx context.Context, s int) (T, error) {
		u := c.units[s]
		defer u.pending.Add(-1)
		return fn(ctx, s, u)
	})
}

// fanOut runs fn for every shard index in [0, n) and gathers the results in
// index order. With one index, fn runs inline on the caller's goroutine.
// Otherwise each index runs on its own goroutine, and the first failure
// cancels the siblings' sub-context, so a cancelled or failed query promptly
// abandons all shard sub-queries instead of letting the stragglers run to
// completion. A panic in a shard goroutine is recovered into an error (on
// the single-relation path a panic unwinds the caller's goroutine; here it
// would kill the process otherwise). The error returned is scatterError's
// pick: the lowest shard's real error.
func fanOut[T any](ctx context.Context, n int, fn func(ctx context.Context, s int) (T, error)) ([]T, error) {
	if n == 1 {
		v, err := fn(ctx, 0)
		if err != nil {
			return nil, err
		}
		return []T{v}, nil
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[s] = fmt.Errorf("shard %d: panicked: %v", s, p)
					cancel()
				}
			}()
			v, err := fn(sctx, s)
			if err != nil {
				errs[s] = err
				cancel() // abandon the sibling sub-queries promptly
				return
			}
			results[s] = v
		}(s)
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
// queue wait.
type subOut[T any] struct {
	v      T
	child  obs.Trace
	traced bool
	wait   time.Duration
}

// runScattered executes one logical query across every shard of a multi-shard
// coordinator and merges the partials. kind and qstr name the query for the
// root trace (qstr may be empty when tracing is off — callers skip rendering
// it to keep the disabled path allocation-free).
//
// With no observability hooks attached this is exactly scatter + merge. With
// tracing on, each shard sub-query runs on an engine clone holding a private
// one-slot capture ring, and the coordinator records one hierarchical root
// trace: a fan-out span covering the scatter, one queue-wait span per shard
// (dispatch → sub-query start), the per-shard engine traces as children, and
// a merge span; a failed query's root carries its error. Queue-wait and merge
// histograms are observed when attached.
func runScattered[T, R any](ctx context.Context, c *Coordinator, kind, qstr string,
	run func(ctx context.Context, eng *query.Engine, u *Unit) (T, error),
	merge func(subs []T) R) (R, error) {

	var zero R
	ring := c.traces
	var root *obs.ActiveTrace
	if ring != nil {
		root = obs.StartTrace(kind, qstr, obs.PhaseFanOut, c.IOStats())
		root.SetShard(obs.ShardCoordinator)
	}
	timed := root != nil || c.queueWait != nil
	var dispatch time.Time
	if timed {
		dispatch = time.Now()
	}
	subs, err := scatter(ctx, c, func(ctx context.Context, s int, u *Unit) (subOut[T], error) {
		var out subOut[T]
		if timed {
			out.wait = time.Since(dispatch)
			if c.queueWait != nil {
				c.queueWait[s].Observe(out.wait.Seconds())
			}
		}
		eng := u.Eng
		var cring *obs.TraceRing
		if root != nil {
			eng = eng.Clone()
			cring = obs.NewTraceRing(1)
			eng.SetTraces(cring)
		}
		v, err := run(ctx, eng, u)
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
			ring.Record(root, c.IOStats(), err)
		}
		return zero, err
	}
	if root != nil {
		root.Begin(obs.PhaseMerge, c.IOStats()) // closes the fan-out span
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
		ring.Record(root, c.IOStats(), nil)
	}
	return out, nil
}

// queryName renders a query's display string only when an observability hook
// needs it, so the disabled scatter path never pays the rendering.
//
//grove:hotpath
func (c *Coordinator) queryName(s fmt.Stringer) string {
	if c.traces == nil {
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
	rq := q.Resolved(c.reg) // once, not per shard
	return runScattered(ctx, c, obs.KindPathAgg, c.queryName(q),
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.AggResult, error) {
			return eng.ExecutePathAggQueryContext(ctx, rq)
		},
		func(subs []*query.AggResult) *query.AggResult { return c.mergeAgg(q, subs) })
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

// Execute runs one statement across all shards. AND, OR and AND NOT
// distribute over the disjoint record partition, so each shard evaluates a
// whole boolean expression and the answer is the translated union; a path
// aggregation's rows merge as AggregateContext's do, and a scalar merges as
// mergeStatement says.
func (c *Coordinator) Execute(ctx context.Context, st query.Statement) (*query.StatementResult, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.Execute(ctx, st)
	}
	name := ""
	if c.traces != nil {
		name = st.String()
	}
	rst := c.resolveStatement(st)
	return runScattered(ctx, c, st.Kind(), name,
		func(ctx context.Context, eng *query.Engine, u *Unit) (*query.StatementResult, error) {
			return c.runStatement(ctx, eng, rst)
		},
		func(subs []*query.StatementResult) *query.StatementResult { return c.mergeStatement(st, subs) })
}

// resolveStatement resolves a path aggregation once against the shared
// registry, not once per shard.
func (c *Coordinator) resolveStatement(st query.Statement) query.Statement {
	if st.Agg != nil {
		st.Agg = st.Agg.Resolved(c.reg)
	}
	return st
}

// runStatement runs one shard's part of a statement. On several shards a
// scalar other than MIN or MAX runs as rows: float addition does not
// reassociate, so its fold must take every record in ascending global order,
// which only the merged rows give.
func (c *Coordinator) runStatement(ctx context.Context, eng *query.Engine, st query.Statement) (*query.StatementResult, error) {
	if len(c.units) > 1 && st.Agg != nil && st.Agg.Scalar && !orderFree(st.Agg) {
		res, err := eng.ExecutePathAggQueryContext(ctx, st.Agg)
		if err != nil {
			return nil, err
		}
		return &query.StatementResult{Agg: res}, nil
	}
	return eng.Execute(ctx, st)
}

// orderFree reports whether q's fold gives the same bits in any order: MIN
// and MAX under the kernels' total order.
func orderFree(q *query.PathAggQuery) bool {
	return q.Agg.Name == agg.Min.Name || q.Agg.Name == agg.Max.Name
}

// mergeStatement combines per-shard statement answers: id sets by translated
// union, rows by mergeAgg, MIN/MAX scalars by mergeScalar, and any other
// scalar by folding the merged rows in ascending global record order.
func (c *Coordinator) mergeStatement(st query.Statement, subs []*query.StatementResult) *query.StatementResult {
	switch {
	case st.Agg == nil:
		ids := make([]*bitmap.Bitmap, len(subs))
		for i, r := range subs {
			ids[i] = r.IDs
		}
		return &query.StatementResult{IDs: c.mergeBitmaps(ids)}
	case subs[0].Scalar != nil:
		scalars := make([]*query.ScalarAggResult, len(subs))
		for i, r := range subs {
			scalars[i] = r.Scalar
		}
		return &query.StatementResult{Scalar: mergeScalar(st.Agg, scalars)}
	default:
		rows := make([]*query.AggResult, len(subs))
		for i, r := range subs {
			rows[i] = r.Agg
		}
		res := c.mergeAgg(st.Agg, rows)
		if st.Agg.Scalar {
			return &query.StatementResult{Scalar: res.Scalar()}
		}
		return &query.StatementResult{Agg: res}
	}
}

// --- batches -----------------------------------------------------------------

// runBatch is the body of every coordinator batch, on one pool of workers
// (query.RunWorkers: the pool, error slots, cancellation drain and panic
// isolation). Workers share the shard engines, which keep no per-query
// state. On one shard each worker runs the queries it takes as they are. On
// several the batch is query-major: the worker that takes query i resolves
// it once against the shared registry, runs its N shard sub-queries inline
// into its own sub-answer buffer and merges them in place — no per-shard
// pool, barrier or cross-goroutine hand-off, merges overlapping other
// queries' shard work, and workers still the batch's total concurrency.
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

	c.addPending(1)
	defer c.addPending(-1)
	out := make([]R, len(queries))
	if len(c.units) == 1 {
		shared := func() *query.Engine { return c.units[0].Eng }
		return out, query.RunWorkers(ctx, c.metrics, workers, len(queries), shared,
			func(eng *query.Engine, i int) (err error) {
				out[i], err = run(ctx, eng, queries[i])
				return err
			})
	}
	var dispatch time.Time
	var started []atomic.Bool
	if c.queueWait != nil {
		dispatch, started = time.Now(), make([]atomic.Bool, len(c.units))
	}
	errs := query.RunWorkers(ctx, c.metrics, workers, len(queries),
		func() []R { return make([]R, len(c.units)) },
		func(subs []R, i int) error {
			q := resolve(queries[i])
			var qerr error
			for s, u := range c.units {
				if started != nil && !started[s].Load() && started[s].CompareAndSwap(false, true) {
					c.queueWait[s].Observe(time.Since(dispatch).Seconds())
				}
				sub, err := run(ctx, u.Eng, q)
				if err != nil {
					// A real error is the query's answer; after a cancellation
					// the remaining shards bail at their first check, unless
					// one of them has a real error to report instead.
					if qerr = preferErr(qerr, err); !isCancellation(err) {
						break
					}
				}
				subs[s] = sub
			}
			if qerr != nil {
				return qerr
			}
			var mstart time.Time
			if c.mergeDur != nil {
				mstart = time.Now()
			}
			out[i] = merge(queries[i], subs)
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
	return runBatch(ctx, c, queries, workers,
		func(q *query.PathAggQuery) *query.PathAggQuery { return q.Resolved(c.reg) },
		func(ctx context.Context, eng *query.Engine, q *query.PathAggQuery) (*query.AggResult, error) {
			return eng.ExecutePathAggQueryContext(ctx, q)
		},
		c.mergeAgg)
}

// ExecuteStatementBatchContext is ExecuteGraphBatchContext for statements of
// either kind.
func (c *Coordinator) ExecuteStatementBatchContext(ctx context.Context, stmts []query.Statement, workers int) ([]*query.StatementResult, []error) {
	return runBatch(ctx, c, stmts, workers, c.resolveStatement, c.runStatement, c.mergeStatement)
}
