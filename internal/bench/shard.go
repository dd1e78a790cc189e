package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/shard"
	"grove/internal/workload"
)

// shardCounts is the sweep of the sharding experiment: single-shard baseline
// doubling up to 8 shards.
var shardCounts = []int{1, 2, 4, 8}

// concurrentLoad times writers concurrent Add calls pushing every record
// into a fresh n-shard coordinator and returns the elapsed wall time.
func concurrentLoad(n, writers int, records []*graph.Record) time.Duration {
	c := shard.New(n, 0)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		//grovevet:ignore goroleak bench harness: a panicking writer should crash the run loudly, not be recovered into a bogus timing
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(records); i += writers {
				c.Add(records[i])
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// sequentialCoordinator loads the records one by one so record ids equal
// arrival order on every shard count — the invariant that makes answers
// comparable bit-for-bit across the sweep.
func sequentialCoordinator(n int, records []*graph.Record) *shard.Coordinator {
	c := shard.New(n, 0)
	for _, rec := range records {
		c.Add(rec)
	}
	c.Optimize()
	return c
}

// ExpShard measures the sharded scatter-gather tentpole: concurrent-writer
// ingest throughput and batch query latency as the shard count doubles from
// 1 to 8. Every shard count's batch answers are checked bit-for-bit against
// the single-shard baseline before any timing is reported.
func ExpShard(ctx context.Context, sc Scale) (*Table, error) {
	workers := sc.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	const writers = 8
	spec := workload.NYSpec(sc.NYRecords, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	records := ds.Records
	graphs := ds.Gen.UniformQueries(sc.NumQueries, 16)
	queries := make([]*query.GraphQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewGraphQuery(g)
	}

	t := &Table{
		Title: fmt.Sprintf("Sharded scatter-gather: %d records, %d concurrent writers, %d-query batches",
			len(records), writers, len(queries)),
		Columns: []string{"Shards", "Ingest (ms)", "Ingest speedup", "Ingest (rec/s)", "Batch (ms)", "Batch speedup"},
	}

	var baseline []*query.Result
	var baseWrite, baseBatch time.Duration
	for _, n := range shardCounts {
		// Warm-up load absorbs allocator growth; the best of two GC-separated
		// timed runs damps collector noise on small machines.
		concurrentLoad(n, writers, records)
		writeDur := time.Duration(1<<62 - 1)
		for run := 0; run < 2; run++ {
			runtime.GC()
			if d := concurrentLoad(n, writers, records); d < writeDur {
				writeDur = d
			}
		}

		c := sequentialCoordinator(n, records)
		if _, errs := c.ExecuteGraphBatchContext(ctx, queries, workers); errs != nil {
			for _, e := range errs {
				if e != nil {
					return nil, e
				}
			}
		}
		batchDur := time.Duration(1<<62 - 1)
		var results []*query.Result
		for run := 0; run < 2; run++ {
			runtime.GC()
			start := time.Now()
			res, errs := c.ExecuteGraphBatchContext(ctx, queries, workers)
			d := time.Since(start)
			for i, e := range errs {
				if e != nil {
					return nil, fmt.Errorf("bench: shard=%d query %d: %w", n, i, e)
				}
			}
			if d < batchDur {
				batchDur, results = d, res
			}
		}
		if n == shardCounts[0] {
			baseline, baseWrite, baseBatch = results, writeDur, batchDur
		} else {
			for i := range results {
				if !results[i].Answer.Equals(baseline[i].Answer) {
					return nil, fmt.Errorf("bench: shard=%d answer %d differs from single-shard baseline", n, i)
				}
			}
		}

		recPerSec := float64(len(records)) / writeDur.Seconds()
		t.AddRow(fmt.Sprint(n),
			fmtMS(float64(writeDur.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(baseWrite)/float64(writeDur)),
			fmt.Sprintf("%.0f", recPerSec),
			fmtMS(float64(batchDur.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(baseBatch)/float64(batchDur)))
	}
	t.AddNote(fmt.Sprintf("batch answers bit-identical to single-shard at every shard count; GOMAXPROCS=%d — write/query speedup tracks available cores (parity expected on 1 core)", runtime.GOMAXPROCS(0)))
	return t, nil
}
