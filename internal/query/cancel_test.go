package query

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"grove/internal/agg"
	"grove/internal/graph"
	"grove/internal/obs"
)

func TestExecuteGraphQueryContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := newRandomFixture(t, rng, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.eng.ExecuteGraphQueryContext(ctx, NewGraphQuery(f.randomQueryGraph(rng, 3))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The read lock must have been released: a writer must not block.
	done := make(chan struct{})
	go func() {
		f.rel.AppendEdge(0, 1, "", 1, true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked after cancelled query: read lock leaked")
	}
}

func TestPathAggContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := newRandomFixture(t, rng, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := NewPathAggQuery(f.randomQueryGraph(rng, 3), agg.Sum)
	if _, err := f.eng.ExecutePathAggQueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelledTraceSpan: a cancelled query's lifecycle trace must end in a
// "cancelled" span, so EXPLAIN ANALYZE and the trace ring show why the
// query produced no answer.
func TestCancelledTraceSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newRandomFixture(t, rng, 50)
	ring := obs.NewTraceRing(8)
	f.eng.SetTraces(ring)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.eng.ExecuteGraphQueryContext(ctx, NewGraphQuery(f.randomQueryGraph(rng, 3))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	traces := ring.Recent()
	if len(traces) == 0 {
		t.Fatal("no trace recorded")
	}
	spans := traces[0].Spans
	if len(spans) == 0 || spans[len(spans)-1].Phase != obs.PhaseCancelled {
		t.Fatalf("trace spans = %+v, want terminal %q span", spans, obs.PhaseCancelled)
	}
}

// TestBatchContextCancelledPromptly: an already-cancelled context fails
// every query of the batch with context.Canceled without executing any.
func TestBatchContextCancelledPromptly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := newRandomFixture(t, rng, 100)
	queries := batchFixtureQueries(f, rng, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		start := time.Now()
		results, errs := runBatch(ctx, f.eng, workers, queries, (*Engine).ExecuteGraphQueryContext)
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancelled batch took %v", workers, elapsed)
		}
		if len(errs) != len(queries) {
			t.Fatalf("workers=%d: %d error slots, want %d", workers, len(errs), len(queries))
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: query %d err = %v, want context.Canceled", workers, i, err)
			}
			if results[i] != nil {
				t.Fatalf("workers=%d: query %d has a result despite cancellation", workers, i)
			}
		}
	}
}

// TestBatchPanicIsolatedPerQuery: a panicking query surfaces as its own
// error slot while the rest of the batch completes with real answers, and
// the relation stays writable afterwards (no leaked read lock).
func TestBatchPanicIsolatedPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := newRandomFixture(t, rng, 100)
	panicky := AggFunc{
		Name:     "BOOM",
		Identity: 0,
		Lift:     func(v float64) float64 { return v },
		Fold:     func(a, b float64) float64 { panic("kernel exploded") },
	}
	queries := make([]*PathAggQuery, 12)
	for i := range queries {
		fn := agg.Sum
		if i == 5 {
			fn = panicky
		}
		queries[i] = NewPathAggQuery(f.randomQueryGraph(rng, 3), fn)
	}
	for _, workers := range []int{1, 4} {
		results, errs := runBatch(context.Background(), f.eng, workers, queries, (*Engine).ExecutePathAggQueryContext)
		for i := range queries {
			if i == 5 {
				if errs[i] == nil || !strings.Contains(errs[i].Error(), "panicked") {
					t.Fatalf("workers=%d: panicking query err = %v", workers, errs[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d: query %d err = %v", workers, i, errs[i])
			}
			if results[i] == nil {
				t.Fatalf("workers=%d: query %d missing result", workers, i)
			}
		}
	}
	// The recovered panic must not have leaked the relation read lock.
	done := make(chan struct{})
	go func() {
		f.rel.AppendEdge(0, 1, "", 1, true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked after recovered panic: read lock leaked")
	}
}

// TestBatchContextMatchesPlain: with a background context and no faults the
// batch returns exactly what plain one-at-a-time execution returns.
func TestBatchContextMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := newRandomFixture(t, rng, 80)
	queries := batchFixtureQueries(f, rng, 30)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecuteGraphQueryContext)
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d err = %v", i, errs[i])
		}
		if !got[i].Answer.Equals(want[i].Answer) {
			t.Fatalf("query %d answers differ", i)
		}
	}
}

// TestBatchErrorQueryKeepsBatchAlive: an invalid (empty) query errors alone;
// its neighbours still answer, and the lowest failing slot is labelled with
// its index.
func TestBatchErrorQueryKeepsBatchAlive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := newRandomFixture(t, rng, 50)
	queries := batchFixtureQueries(f, rng, 10)
	queries[3] = &GraphQuery{G: graph.NewGraph()} // empty → error
	results, errs := runBatch(context.Background(), f.eng, 4, queries, (*Engine).ExecuteGraphQueryContext)
	for i := range queries {
		if i == 3 {
			if errs[i] == nil {
				t.Fatal("empty query did not error")
			}
			continue
		}
		if errs[i] != nil || results[i] == nil {
			t.Fatalf("query %d err=%v result=%v", i, errs[i], results[i])
		}
	}
	if err := firstErr(errs); err == nil || !strings.HasPrefix(err.Error(), "query 3: ") {
		t.Fatalf("firstErr = %v", err)
	}
}

// TestPathAggPanicNaNUnaffected guards the panic recovery against false
// positives: NaN measures and empty answers must not be reported as panics.
func TestPathAggPanicNaNUnaffected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := newRandomFixture(t, rng, 30)
	q := NewPathAggQuery(f.randomQueryGraph(rng, 2), agg.Sum)
	results, errs := runBatch(context.Background(), f.eng, 2, []*PathAggQuery{q}, (*Engine).ExecutePathAggQueryContext)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, vals := range results[0].Values {
		for _, v := range vals {
			_ = math.IsNaN(v) // NaN is a legal NULL marker, not an error
		}
	}
}
