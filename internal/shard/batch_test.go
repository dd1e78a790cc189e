package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grove/internal/bitmap"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
)

// Tests of the query-major batch body and the linear merges under it. The
// scheduling contract (error precedence, panic isolation, gauges) is pinned
// through runBatch with stand-in sub-queries, where every interleaving can
// be forced; the real engines are driven by the differentials in
// diff_test.go and by TestBatchCancelledMidway below.

func TestRunBatchSchedulingContract(t *testing.T) {
	const shards = 3
	c := New(shards, 0)
	waits := make([]*obs.Histogram, shards)
	for s := range waits {
		waits[s] = obs.NewHistogram(nil)
	}
	merges := obs.NewHistogram(nil)
	c.SetScatterHistograms(waits, merges)
	metrics := obs.NewQueryMetrics(obs.NewRegistry())
	c.SetMetrics(metrics)

	boom := errors.New("boom")
	var ran [8][shards]atomic.Int32
	for _, workers := range []int{1, 2, 12} {
		for i := range ran {
			for s := range ran[i] {
				ran[i][s].Store(0)
			}
		}
		queries := []int{0, 1, 2, 3, 4, 5, 6, 7}
		var resolved atomic.Int32
		out, errs := runBatch(context.Background(), c, queries, workers,
			func(q int) int {
				resolved.Add(1)
				return q + 100
			},
			func(ctx context.Context, eng *query.Engine, q int) (int, error) {
				s := eng.Shard()
				q -= 100
				ran[q][s].Add(1)
				for u := 0; u < shards; u++ {
					if p := c.Unit(u).Pending(); p != 1 {
						t.Errorf("workers=%d: shard %d pending = %d inside a batch, want 1", workers, u, p)
					}
				}
				switch {
				case q == 2 && s == 0:
					return 0, fmt.Errorf("shard 0 gave up: %w", context.Canceled)
				case q == 2 && s == 1:
					return 0, boom
				case q == 4 && s == 0:
					return 0, boom
				case q == 5 && s == 1:
					panic("kernel exploded")
				case q == 6 && s == 2:
					return 0, context.DeadlineExceeded
				}
				return 10*q + s, nil
			},
			func(q int, subs []int) int {
				total := 1000 * q
				for _, v := range subs {
					total += v
				}
				return total
			})
		if int(resolved.Load()) != len(queries) {
			t.Fatalf("workers=%d: %d resolves for %d queries, want one each", workers, resolved.Load(), len(queries))
		}
		for _, q := range []int{0, 1, 3, 7} {
			if want := 1000*q + 30*q + 0 + 1 + 2; errs[q] != nil || out[q] != want {
				t.Fatalf("workers=%d: slot %d = %d, %v; want %d", workers, q, out[q], errs[q], want)
			}
		}
		// A real error beats the cancellation an earlier shard reported, and
		// ends the query: shard 2 never runs.
		if !errors.Is(errs[2], boom) || ran[2][2].Load() != 0 {
			t.Fatalf("workers=%d: slot 2 = %v (shard 2 ran %d times), want boom and no third sub-query", workers, errs[2], ran[2][2].Load())
		}
		if !errors.Is(errs[4], boom) || ran[4][1].Load()+ran[4][2].Load() != 0 {
			t.Fatalf("workers=%d: slot 4 = %v, later shards ran %d times", workers, errs[4], ran[4][1].Load()+ran[4][2].Load())
		}
		if errs[5] == nil || !strings.Contains(errs[5].Error(), "panicked") {
			t.Fatalf("workers=%d: slot 5 = %v, want a recovered panic", workers, errs[5])
		}
		if !errors.Is(errs[6], context.DeadlineExceeded) {
			t.Fatalf("workers=%d: slot 6 = %v, want the deadline error", workers, errs[6])
		}
		for u := 0; u < shards; u++ {
			if p := c.Unit(u).Pending(); p != 0 {
				t.Fatalf("workers=%d: shard %d pending = %d after the batch", workers, u, p)
			}
		}
	}
	// Three batches: one queue-wait observation per shard per batch, one
	// merge observation per merged query (4 of 8), one logical batch each.
	for s, h := range waits {
		if h.Count() != 3 {
			t.Fatalf("shard %d queue-wait observations = %d, want 3 (one per batch)", s, h.Count())
		}
	}
	if merges.Count() != 3*4 {
		t.Fatalf("merge observations = %d, want 12", merges.Count())
	}
	if b, q, busy := metrics.BatchBatches.Value(), metrics.BatchQueries.Value(), metrics.BatchWorkersBusy.Value(); b != 3 || q != 24 || busy != 0 {
		t.Fatalf("batches = %d, queries = %d, busy = %d; want 3, 24, 0", b, q, busy)
	}
}

// TestBatchCancelledMidway cancels the context from inside query 5 of a
// one-worker batch on real engines: earlier slots hold their answers, the
// cancelling query and every later slot — an empty query among them, never
// started — carry the context's error, and no goroutine outlives the call.
func TestBatchCancelledMidway(t *testing.T) {
	c := New(4, 0)
	for i := 0; i < 40; i++ {
		c.Add(smallRecord(t, float64(i)))
	}
	want, errs := c.ExecutePathAggBatchContext(context.Background(),
		[]*query.PathAggQuery{query.NewPathAggQuery(pathAB().ToGraph(), query.Sum)}, 1)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}

	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		queries := make([]*query.PathAggQuery, 12)
		for i := range queries {
			queries[i] = query.NewPathAggQuery(pathAB().ToGraph(), query.Sum)
		}
		queries[5] = query.NewPathAggQuery(pathAB().ToGraph(), query.AggFunc{
			Name: "CANCEL",
			Lift: func(v float64) float64 { cancel(); return v },
			Fold: func(a, b float64) float64 { return a + b },
		})
		queries[8] = query.NewPathAggQuery(graph.NewGraph(), query.Sum)
		res, errs := c.ExecutePathAggBatchContext(ctx, queries, workers)
		cancel()

		if !errors.Is(errs[5], context.Canceled) {
			t.Fatalf("workers=%d: the cancelling query's slot = %v, want context.Canceled (its later shards must bail)", workers, errs[5])
		}
		for i, err := range errs {
			switch {
			case err == nil:
				if i > 5 && workers == 1 {
					t.Fatalf("slot %d answered after the cancellation", i)
				}
				assertAggEqual(t, fmt.Sprintf("workers=%d slot %d", workers, i), want[0], res[i])
			case !errors.Is(err, context.Canceled):
				if i != 8 {
					t.Fatalf("workers=%d: slot %d = %v, want context.Canceled", workers, i, err)
				}
			case res[i] != nil:
				t.Fatalf("workers=%d: slot %d carries both a result and %v", workers, i, err)
			}
		}
		if workers == 1 {
			for i := 0; i < 5; i++ {
				if errs[i] != nil {
					t.Fatalf("slot %d, finished before the cancellation, reports %v", i, errs[i])
				}
			}
			if !errors.Is(errs[8], context.Canceled) {
				t.Fatalf("the unstarted empty query reports %v, want context.Canceled", errs[8])
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after the batch, %d before", workers, n, before)
		}
	}
}

// mergeFixture builds per-shard partial results the way n shards would
// return them for one query: ascending local ids per shard, value rows
// aligned with them, every cell's bits unique so a misplaced copy shows.
func mergeFixture(n, perShard, paths int) ([]*query.AggResult, []*bitmap.Bitmap) {
	rng := rand.New(rand.NewSource(int64(n*1000 + perShard)))
	subs := make([]*query.AggResult, n)
	answers := make([]*bitmap.Bitmap, n)
	for s := range subs {
		local := uint32(0)
		r := &query.AggResult{Values: make([][]float64, paths), SegmentsPerPath: make([][2]int, paths)}
		for i := 0; i < perShard; i++ {
			local += 1 + uint32(rng.Intn(3))
			r.RecordIDs = append(r.RecordIDs, local)
		}
		for p := range r.Values {
			r.Values[p] = make([]float64, len(r.RecordIDs))
			for i, id := range r.RecordIDs {
				// NaN payloads and signed zeros included: verbatim means bits.
				r.Values[p][i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(p)<<40 | uint64(s)<<32 | uint64(id))
				if i%5 == 0 {
					r.Values[p][i] = math.Copysign(0, -1)
				}
			}
		}
		r.Answer = bitmap.FromSorted(r.RecordIDs)
		subs[s], answers[s] = r, r.Answer
	}
	return subs, answers
}

func TestLinearMergesMatchSortedReference(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		for _, perShard := range []int{0, 1, 7, 500} {
			c := New(n, 0)
			subs, answers := mergeFixture(n, perShard, 3)
			if n == 3 && perShard == 7 {
				subs[1].RecordIDs, subs[1].Answer, answers[1] = nil, bitmap.New(), bitmap.New() // one shard with nothing
				for p := range subs[1].Values {
					subs[1].Values[p] = nil
				}
			}
			type row struct {
				g    uint32
				s, i int
			}
			var rows []row
			for s, r := range subs {
				for i, local := range r.RecordIDs {
					rows = append(rows, row{c.globalID(s, local), s, i})
				}
			}
			slices.SortFunc(rows, func(a, b row) int { return int(a.g) - int(b.g) })

			got := c.mergeAgg(nil, subs)
			if len(got.RecordIDs) != len(rows) || got.Answer.Cardinality() != len(rows) {
				t.Fatalf("n=%d per=%d: merged %d ids / %d bits, want %d", n, perShard, len(got.RecordIDs), got.Answer.Cardinality(), len(rows))
			}
			for j, r := range rows {
				if got.RecordIDs[j] != r.g || !got.Answer.Contains(r.g) {
					t.Fatalf("n=%d per=%d: row %d is record %d, want %d", n, perShard, j, got.RecordIDs[j], r.g)
				}
				for p := range got.Values {
					if g, w := math.Float64bits(got.Values[p][j]), math.Float64bits(subs[r.s].Values[p][r.i]); g != w {
						t.Fatalf("n=%d per=%d: cell [%d][%d] = %x, shard %d holds %x", n, perShard, p, j, g, r.s, w)
					}
				}
			}
			if ids := c.mergeBitmaps(answers).ToSlice(); !slices.Equal(ids, got.RecordIDs) {
				t.Fatalf("n=%d per=%d: mergeBitmaps holds %d ids, mergeAgg %d", n, perShard, len(ids), len(got.RecordIDs))
			}
		}
	}
}

// TestMergeAllocations bounds what a merge allocates: the kernel nothing, a
// whole aggregate merge its output (result, id slice, row headers, one cell
// slab, the bulk-built bitmap: nine allocations whatever the row count), a
// bitmap merge the bulk-built bitmap (five). The bounds leave room for a
// missed scratch-pool Get, which the race detector forces at random.
func TestMergeAllocations(t *testing.T) {
	c := New(4, 0)
	subs, answers := mergeFixture(4, 2000, 3)
	out := c.mergeAgg(nil, subs)
	sc := new(mergeScratch)
	kernel := testing.AllocsPerRun(20, func() {
		sc.reset(len(subs))
		for s, r := range subs {
			sc.ids[s], sc.vals[s] = r.RecordIDs, r.Values
		}
		mergeRows(sc, out.RecordIDs, out.Values)
	})
	if kernel != 0 {
		t.Fatalf("mergeRows allocates %.1f times per call, want 0", kernel)
	}
	if agg := testing.AllocsPerRun(20, func() { c.mergeAgg(nil, subs) }); agg > 14 {
		t.Fatalf("mergeAgg allocates %.1f times per call for 8 000 rows, want its fixed handful (≤ 14)", agg)
	}
	if bm := testing.AllocsPerRun(20, func() { c.mergeBitmaps(answers) }); bm > 11 {
		t.Fatalf("mergeBitmaps allocates %.1f times per call for 8 000 ids, want its fixed handful (≤ 11)", bm)
	}
}

// BenchmarkMergeAgg is the bench-smoke probe of the aggregate merge at the
// batch-sharded workload's shape: 4 shards × ≈ 2 000 ids × 3 paths.
func BenchmarkMergeAgg(b *testing.B) {
	c := New(4, 0)
	subs, _ := mergeFixture(4, 2000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mergeAgg(nil, subs)
	}
}

// BenchmarkMergeBitmaps is BenchmarkMergeAgg for structural answers.
func BenchmarkMergeBitmaps(b *testing.B) {
	c := New(4, 0)
	_, answers := mergeFixture(4, 2000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mergeBitmaps(answers)
	}
}
