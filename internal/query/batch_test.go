package query

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/graph"
)

// batchFixtureQueries builds a mixed batch over a randomized fixture: mostly
// answerable queries plus a few misses.
func batchFixtureQueries(f *randFixture, rng *rand.Rand, n int) []*GraphQuery {
	queries := make([]*GraphQuery, n)
	for i := range queries {
		queries[i] = NewGraphQuery(f.randomQueryGraph(rng, 4))
	}
	return queries
}

// runBatch runs queries on the worker pool every batch runs on, one engine
// clone per worker, the way a one-shard coordinator does: result slot i
// holds query i's answer, error slot i its error.
func runBatch[Q, R any](ctx context.Context, eng *Engine, workers int, queries []Q, exec func(*Engine, context.Context, Q) (R, error)) ([]R, []error) {
	out := make([]R, len(queries))
	return out, RunWorkers(ctx, eng.metrics, workers, len(queries), eng.Clone, func(eng *Engine, i int) (err error) {
		out[i], err = exec(eng, ctx, queries[i])
		return err
	})
}

// TestBatchMatchesSequential pins the tentpole correctness contract: the
// parallel batch returns bit-for-bit the answers of a sequential run, in
// query order, across worker counts.
func TestBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := newRandomFixture(t, rng, 200)
	queries := batchFixtureQueries(f, rng, 100)

	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 2, 4, 8} {
		got, errs := runBatch(context.Background(), f.eng, workers, queries, (*Engine).ExecuteGraphQueryContext)
		if err := firstErr(errs); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Query != queries[i] {
				t.Fatalf("workers=%d: result %d is for the wrong query", workers, i)
			}
			if !got[i].Answer.Equals(want[i].Answer) {
				t.Fatalf("workers=%d: query %d answer card %d, want %d",
					workers, i, got[i].Answer.Cardinality(), want[i].Answer.Cardinality())
			}
		}
	}
}

// TestRepeatedBatchBitIdentical runs the same batch twice: the rerun must
// be bit-identical, and every answer a fresh bitmap rather than one the
// first pass handed out.
func TestRepeatedBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := newRandomFixture(t, rng, 150)
	queries := batchFixtureQueries(f, rng, 60)

	first, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecuteGraphQueryContext)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	second, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecuteGraphQueryContext)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !second[i].Answer.Equals(first[i].Answer) {
			t.Fatalf("query %d: rerun answer differs", i)
		}
		if second[i].Answer == first[i].Answer {
			t.Fatalf("query %d: rerun returned the first pass's answer bitmap", i)
		}
	}
}

// TestBatchAggMatchesSequential checks deterministic ordering and value
// equality for path-aggregation batches.
func TestBatchAggMatchesSequential(t *testing.T) {
	f := newFig2Fixture(t)
	var queries []*PathAggQuery
	for i := 0; i < 30; i++ {
		var q *PathAggQuery
		switch i % 3 {
		case 0:
			q = NewPathAggQuery(pathQuery("A", "C", "E", "F").G, Sum)
		case 1:
			q = NewPathAggQuery(pathQuery("A", "D", "E").G, Sum)
		default:
			q = NewPathAggQuery(pathQuery("E", "F", "G").G, Sum)
		}
		queries = append(queries, q)
	}
	want := make([]*AggResult, len(queries))
	for i, q := range queries {
		res, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecutePathAggQueryContext)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Answer.Equals(want[i].Answer) {
			t.Fatalf("query %d: answer differs", i)
		}
		for p := range want[i].Values {
			for j := range want[i].Values[p] {
				wv, gv := want[i].Values[p][j], got[i].Values[p][j]
				if wv != gv && !(wv != wv && gv != gv) { // NaN-tolerant compare
					t.Fatalf("query %d path %d rec %d: %v != %v", i, p, j, gv, wv)
				}
			}
		}
	}
}

// TestBatchErrorLowestIndex pins the error contract: the lowest-index failing
// slot is the first query a sequential run fails on, with the same error.
func TestBatchErrorLowestIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := newRandomFixture(t, rng, 50)
	queries := batchFixtureQueries(f, rng, 20)
	queries[7] = &GraphQuery{G: graph.NewGraph()} // empty → error
	queries[13] = &GraphQuery{G: graph.NewGraph()}

	_, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecuteGraphQueryContext)
	err := firstErr(errs)
	if err == nil {
		t.Fatal("batch with invalid queries did not fail")
	}
	var seqErr error
	for i, q := range queries {
		if _, e := f.eng.ExecuteGraphQueryContext(context.Background(), q); e != nil {
			seqErr = fmt.Errorf("query %d: %w", i, e)
			break
		}
	}
	if err.Error() != seqErr.Error() {
		t.Fatalf("batch error %q, want %q", err, seqErr)
	}
}

// firstErr labels the lowest-index failing slot of a batch with its index.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// TestConcurrentQueriesWithWriter is the query-layer half of the ISSUE's
// concurrency satellite: engine clones query while a writer loads records
// and materializes views. Under -race this exercises the Relation RWMutex
// and the registry; correctness-wise no answer may lose a record that
// matched before the writer started (never partial state), and once the
// writer stops the shared engine must agree with a fresh one.
func TestConcurrentQueriesWithWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := newRandomFixture(t, rng, 100)

	queries := batchFixtureQueries(f, rng, 40)
	base := make([]*bitmap.Bitmap, len(queries))
	for i, q := range queries {
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = res.Answer
	}
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup

	// Writer: keeps appending records copied from existing ones.
	writer.Add(1)
	go func() {
		defer writer.Done()
		wrng := rand.New(rand.NewSource(43))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := f.records[wrng.Intn(len(f.records))]
			rec := graph.NewRecord()
			for _, el := range src.Elements() {
				if el.IsNode() {
					continue
				}
				if err := rec.SetEdge(el.From, el.To, 1); err != nil {
					t.Error(err)
					return
				}
			}
			// A brand-new edge per record forces registry id assignment
			// concurrent with reader lookups.
			if err := rec.SetEdge(fmt.Sprintf("W%d", i), "A0", 1); err != nil {
				t.Error(err)
				return
			}
			graph.LoadRecord(f.rel, f.reg, rec)
		}
	}()

	// Readers: each goroutine runs its own engine clone over the batch.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			eng := f.eng.Clone()
			qrng := rand.New(rand.NewSource(seed))
			for round := 0; round < 50; round++ {
				qi := qrng.Intn(len(queries))
				res, err := eng.ExecuteGraphQueryContext(context.Background(), queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				// Monotonicity: the writer only appends records, so an answer
				// can never shrink below the records that matched at
				// fixture-build time.
				if lost := base[qi].AndNot(res.Answer); !lost.IsEmpty() {
					t.Errorf("query %d lost records %v under a concurrent writer", qi, lost.ToSlice())
					return
				}
			}
		}(int64(100 + g))
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	// After the dust settles, the shared engine must reflect the final
	// state: a fresh engine must agree with it.
	fresh := NewEngine(f.rel, f.reg)
	for _, q := range queries[:10] {
		shared, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := fresh.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !shared.Answer.Equals(plain.Answer) {
			t.Fatalf("stale answer: shared engine card %d, fresh card %d",
				shared.Answer.Cardinality(), plain.Answer.Cardinality())
		}
	}
}
