package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"grove/internal/query"
)

// sequentialGraphWorkload times a plain one-query-at-a-time run and returns
// the results so the parallel run can be checked against them.
func sequentialGraphWorkload(ctx context.Context, eng *query.Engine, queries []*query.GraphQuery) ([]*query.Result, time.Duration, error) {
	results := make([]*query.Result, len(queries))
	start := time.Now()
	for i, q := range queries {
		res, err := eng.ExecuteGraphQueryContext(ctx, q)
		if err != nil {
			return nil, 0, err
		}
		results[i] = res
	}
	return results, time.Since(start), nil
}

// parallelGraphWorkload times the same batch through the worker pool.
func parallelGraphWorkload(ctx context.Context, eng *query.Engine, queries []*query.GraphQuery, workers int) ([]*query.Result, time.Duration, error) {
	be := query.NewBatchExecutor(eng, workers)
	start := time.Now()
	results, errs := be.ExecuteGraphQueriesContext(ctx, queries)
	d := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return results, d, nil
}

// ExpBatch measures the tentpole: batch query execution across a worker pool
// vs the sequential baseline, on the NY-like dataset with 100 uniform
// queries. The parallel answers are checked bit-for-bit against the
// sequential ones before any timing is reported.
func ExpBatch(ctx context.Context, sc Scale) (*Table, error) {
	workers := sc.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	t := &Table{
		Title: fmt.Sprintf("Batch execution: %d uniform graph queries, NY, %d workers vs sequential",
			sc.NumQueries, workers),
		Columns: []string{"Mode", "Total (ms)", "Speedup"},
	}
	ds, err := buildNY(sc, false)
	if err != nil {
		return nil, err
	}
	eng := query.NewEngine(ds.Rel, ds.Reg)
	graphs := ds.Gen.UniformQueries(sc.NumQueries, 16)
	queries := make([]*query.GraphQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewGraphQuery(g)
	}

	// Warm-up pass so page-in and allocator noise doesn't land on either side.
	if _, _, err := sequentialGraphWorkload(ctx, eng, queries); err != nil {
		return nil, err
	}
	seq, seqDur, err := sequentialGraphWorkload(ctx, eng, queries)
	if err != nil {
		return nil, err
	}
	par, parDur, err := parallelGraphWorkload(ctx, eng, queries, workers)
	if err != nil {
		return nil, err
	}
	for i := range seq {
		if !par[i].Answer.Equals(seq[i].Answer) {
			return nil, fmt.Errorf("bench: parallel answer %d differs from sequential", i)
		}
	}

	speedup := float64(seqDur) / float64(parDur)
	t.AddRow("Sequential", fmtMS(float64(seqDur.Microseconds())/1000), "1.00x")
	t.AddRow(fmt.Sprintf("Parallel (%d workers)", workers),
		fmtMS(float64(parDur.Microseconds())/1000), fmt.Sprintf("%.2fx", speedup))
	t.AddNote(fmt.Sprintf("answers bit-identical across modes; GOMAXPROCS=%d — speedup tracks available cores", runtime.GOMAXPROCS(0)))
	return t, nil
}

// batchBenchQueries builds the benchmark workload shared by the Go
// benchmarks below.
func batchBenchQueries(sc Scale) (*query.Engine, []*query.GraphQuery, error) {
	ds, err := buildNY(sc, false)
	if err != nil {
		return nil, nil, err
	}
	graphs := ds.Gen.UniformQueries(sc.NumQueries, 16)
	queries := make([]*query.GraphQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewGraphQuery(g)
	}
	return query.NewEngine(ds.Rel, ds.Reg), queries, nil
}
