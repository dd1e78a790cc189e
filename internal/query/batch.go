package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"grove/internal/obs"
)

// RunWorkers is the worker pool under every batch: it executes fn(state, i)
// for i in [0, n) on up to workers goroutines (≤ 0 selects runtime.NumCPU())
// and returns one error slot per index. Each worker builds its private state
// once with newState — a sharded batch's per-shard sub-answer buffer — and
// keeps it for its whole share. Work is distributed by an atomic cursor, so fast
// workers take more indexes and stragglers never gate the batch. Once ctx is cancelled, remaining indexes drain immediately
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
