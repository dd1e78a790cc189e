package shard

import (
	"context"
	"fmt"
	"testing"

	"grove/internal/agg"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/wal"
	"grove/internal/workload"
)

// benchCoordinator builds an n-shard coordinator holding count path records
// over a small edge universe, plus a mixed query batch.
func benchCoordinator(b *testing.B, n, count int) (*Coordinator, []*query.GraphQuery) {
	b.Helper()
	c := New(n, 0)
	nodes := []string{"A", "B", "C", "D", "E", "F"}
	for i := 0; i < count; i++ {
		rec := graph.NewRecord()
		for j := 0; j < 3; j++ {
			from := nodes[(i+j)%len(nodes)]
			to := nodes[(i+j+1)%len(nodes)]
			if err := rec.SetEdge(from, to, float64(i+j)); err != nil {
				b.Fatal(err)
			}
		}
		c.Add(rec)
	}
	c.Optimize()
	var queries []*query.GraphQuery
	for j := 0; j < len(nodes)-1; j++ {
		queries = append(queries, query.FromPath(gpath.Closed(nodes[j], nodes[j+1])))
	}
	return c, queries
}

// BenchmarkShardedBatch is the bench-smoke probe for the scatter-gather
// path: a mixed graph-query batch fanned across 4 shards.
func BenchmarkShardedBatch(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c, queries := benchCoordinator(b, n, 2000)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, errs := c.ExecuteGraphBatchContext(ctx, queries, 4); errs != nil {
					for _, err := range errs {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkShardedConcurrentAdd is the bench-smoke probe for multi-core
// writes: parallel Add calls routed round-robin across 4 shards.
func BenchmarkShardedConcurrentAdd(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c := New(n, 0)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					rec := graph.NewRecord()
					if err := rec.SetEdge("A", "B", float64(i)); err != nil {
						b.Fatal(err)
					}
					c.Add(rec)
					i++
				}
			})
		})
	}
}

// writeReplayFixture leaves in dir what a crash leaves: a one-shard snapshot
// of snap NY-like records (35–100 edges each) under views views — half graph
// views, half SUM aggregate views, on 2- and 3-edge paths of the same walks —
// and, past it, an un-checkpointed log of ops add-record frames.
func writeReplayFixture(tb testing.TB, dir string, snap, ops, views int) {
	tb.Helper()
	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, 7)
	if err != nil {
		tb.Fatal(err)
	}
	c := New(1, 0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			rec, err := gen.NextRecord()
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := c.Append(rec); err != nil {
				tb.Fatal(err)
			}
		}
	}
	add(snap)
	for v := 0; v < views; v++ {
		nodes := gen.QueryPath(2 + v%2)
		path := make([]colstore.EdgeID, len(nodes)-1)
		for i := range path {
			path[i] = c.Registry().ID(graph.E(nodes[i], nodes[i+1]))
		}
		name := fmt.Sprintf("v%d", v)
		if v%2 == 0 {
			err = c.MaterializeView(name, path)
		} else {
			err = c.MaterializeAggViewOn(name, path, agg.Sum, "")
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncNever}); err != nil {
		tb.Fatal(err)
	}
	add(ops)
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkReplayWAL is recovery as LoadStore runs it: a 1 000-record
// snapshot with 100 views to maintain, then 2 000 logged records replayed on
// top. ns/op ÷ 2 000 is the per-op replay cost the recover-wal workload
// reports.
func BenchmarkReplayWAL(b *testing.B) {
	dir := b.TempDir()
	writeReplayFixture(b, dir, 1000, 2000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := LoadFS(fsio.OS(), dir)
		if err != nil {
			b.Fatal(err)
		}
		if got := c.WALStats().ReplayedOps; got != 2000 {
			b.Fatalf("replayed %d ops, want 2000", got)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
