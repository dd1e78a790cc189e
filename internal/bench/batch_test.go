package bench

import (
	"context"
	"runtime"
	"testing"

	"grove/internal/query"
)

// benchScale is a NY-like dataset small enough to rebuild per benchmark but
// large enough that per-query work dominates the pool overhead.
func benchScale() Scale {
	return Scale{
		SensitivityRecords: 500,
		NYRecords:          5000,
		GNURecords:         2000,
		Fig5Records:        200,
		NumQueries:         100,
		Seed:               42,
	}
}

func benchmarkBatch(b *testing.B, workers int) {
	eng, queries, err := batchBenchQueries(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	be := query.NewBatchExecutor(eng, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := be.ExecuteGraphQueriesContext(context.Background(), queries)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchSequential is the 100-query baseline (one worker).
func BenchmarkBatchSequential(b *testing.B) { benchmarkBatch(b, 1) }

// BenchmarkBatchParallel runs the same batch across runtime.NumCPU() workers;
// compare ns/op against BenchmarkBatchSequential for the speedup.
func BenchmarkBatchParallel(b *testing.B) { benchmarkBatch(b, runtime.NumCPU()) }

// TestBatchExperimentAnswersIdentical runs the registered batch experiment at
// a small scale; ExpBatch itself fails if parallel answers deviate from the
// sequential baseline.
func TestBatchExperimentAnswersIdentical(t *testing.T) {
	sc := benchScale()
	sc.NYRecords = 1000
	sc.NumQueries = 30
	sc.Workers = 4
	if _, err := ExpBatch(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
}
