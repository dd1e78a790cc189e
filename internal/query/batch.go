package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"grove/internal/obs"
)

// BatchExecutor fans a slice of queries across a bounded worker pool. The
// paper's experiments (Figs. 3, 6–8) all evaluate batches of 100 queries;
// a batch is embarrassingly parallel once the relation read path is
// concurrent-safe, so the executor simply hands out query indexes to
// workers, each running its own Engine clone (shared relation, registry and
// result cache; private scratch).
//
// Results are deterministic: result slot i always holds the answer of query
// i, whichever worker computed it, and error slot i its error. A query that
// panics (a malformed plan, a kernel bug) surfaces as that query's error, not
// as a crashed batch, and a cancelled context fails the not-yet-started
// queries promptly with the context's error while queries already running
// finish their current cancellation check.
type BatchExecutor struct {
	eng     *Engine
	workers int
}

// NewBatchExecutor wraps an engine for batch execution with the given
// worker count (≤ 0 selects runtime.NumCPU()).
func NewBatchExecutor(eng *Engine, workers int) *BatchExecutor {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &BatchExecutor{eng: eng, workers: workers}
}

// Workers returns the configured worker-pool size.
func (b *BatchExecutor) Workers() int { return b.workers }

// ExecuteGraphQueriesContext runs every query under ctx and returns the
// results in query order and one error slot per query (nil on success).
// Queries not yet started when ctx is cancelled fail with ctx's error; a
// panicking query fails alone while the rest of the batch completes. A
// single worker (or a single query) degrades to a plain sequential loop with
// no goroutine or synchronization overhead.
func (b *BatchExecutor) ExecuteGraphQueriesContext(ctx context.Context, queries []*GraphQuery) ([]*Result, []error) {
	results := make([]*Result, len(queries))
	errs := b.run(ctx, len(queries), func(eng *Engine, i int) error {
		res, err := eng.ExecuteGraphQueryContext(ctx, queries[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	return results, errs
}

// ExecutePathAggQueriesContext is ExecuteGraphQueriesContext for
// path-aggregation queries.
func (b *BatchExecutor) ExecutePathAggQueriesContext(ctx context.Context, queries []*PathAggQuery) ([]*AggResult, []error) {
	results := make([]*AggResult, len(queries))
	errs := b.run(ctx, len(queries), func(eng *Engine, i int) error {
		res, err := eng.ExecutePathAggQueryContext(ctx, queries[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	return results, errs
}

// run executes fn(engine, i) for i in [0, n) on the executor's pool, each
// worker holding one engine clone (and thereby one scratch) for its whole
// share.
func (b *BatchExecutor) run(ctx context.Context, n int, fn func(eng *Engine, i int) error) []error {
	return RunWorkers(ctx, b.eng.metrics, b.workers, n, b.eng.Clone, fn)
}

// RunWorkers is the worker pool under every batch: it executes fn(state, i)
// for i in [0, n) on up to workers goroutines (≤ 0 selects runtime.NumCPU())
// and returns one error slot per index. Each worker builds its private state
// once with newState — an engine clone here, one clone per shard in the
// sharded coordinator — and keeps it for its whole share. Work is distributed
// by an atomic cursor, so fast workers take more indexes and stragglers never
// gate the batch. Once ctx is cancelled, remaining indexes drain immediately
// with ctx's error; a panic in fn(state, i) becomes slot i's error. One call
// is one logical batch on m (nil disables): a batch and n queries, however
// many engines the state spans. The caller's goroutine is one of the workers,
// so a single worker (or a single index) is a plain loop with no goroutine,
// and w workers cost w-1 spawns.
func RunWorkers[S any](ctx context.Context, m *obs.QueryMetrics, workers, n int, newState func() S, fn func(state S, i int) error) []error {
	if n == 0 {
		return nil
	}
	if m != nil {
		m.BatchBatches.Inc()
		m.BatchQueries.Add(int64(n))
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go drain(ctx, m, &wg, &cursor, errs, newState, fn)
	}
	drain(ctx, m, &wg, &cursor, errs, newState, fn)
	wg.Wait()
	return errs
}

// drain is one worker of RunWorkers: it takes indexes off the shared cursor
// until none are left.
func drain[S any](ctx context.Context, m *obs.QueryMetrics, wg *sync.WaitGroup, cursor *atomic.Int64, errs []error, newState func() S, fn func(state S, i int) error) {
	defer wg.Done()
	if m != nil {
		m.BatchWorkersBusy.Add(1)
		defer m.BatchWorkersBusy.Add(-1)
	}
	state := newState()
	for {
		i := int(cursor.Add(1)) - 1
		if i >= len(errs) {
			return
		}
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		errs[i] = safeCall(state, i, fn)
	}
}

// safeCall runs one query, converting a panic into that query's error so a
// single bad query cannot take down the whole batch (or leak a worker's
// goroutine). The engine's locked sections release their read locks via
// defer, so the relation stays usable after a recovered panic.
func safeCall[S any](state S, i int, fn func(state S, i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("query panicked: %v", p)
		}
	}()
	return fn(state, i)
}
