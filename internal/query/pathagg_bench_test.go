package query

import (
	"context"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
)

// The PathAgg benchmarks size the vectorized measure path: a 5-edge chain
// query over records dense (every record matches: the merge-gather path) or
// sparse (few records match: the batch-rank path) in the chain's columns.
// Run with `make bench-smoke` (or -bench=PathAgg); end to end, the
// benchmark's agg-uniform and agg-paged-1pct workloads measure the same path.

func benchmarkPathAgg(b *testing.B, numRecords int, density float64, parallel bool) {
	f, nodes := pathChainFixture(b, numRecords, density)
	f.eng.ParallelPaths = parallel
	q := NewPathAggQueryAlong(gpath.Closed(nodes...), Sum, "")
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathAggDense(b *testing.B)  { benchmarkPathAgg(b, 50000, 1.0, false) }
func BenchmarkPathAggSparse(b *testing.B) { benchmarkPathAgg(b, 50000, 0.5, false) }

// BenchmarkPathAggMultiPath aggregates along the same chain split into
// several explicit paths, sequentially and with ParallelPaths.
func benchmarkPathAggMultiPath(b *testing.B, parallel bool) {
	f, nodes := pathChainFixture(b, 50000, 1.0)
	f.eng.ParallelPaths = parallel
	q := &PathAggQuery{G: gpath.Closed(nodes...).ToGraph(), Agg: Sum, Paths: []gpath.Path{
		gpath.Closed(nodes[:3]...), gpath.Closed(nodes[1:4]...),
		gpath.Closed(nodes[2:5]...), gpath.Closed(nodes[3:]...),
	}}
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathAggMultiPathSequential(b *testing.B) { benchmarkPathAggMultiPath(b, false) }
func BenchmarkPathAggMultiPathParallel(b *testing.B)   { benchmarkPathAggMultiPath(b, true) }

// The PathAggScalar benchmarks compare the two ways to a scalar MIN over one
// edge of a *paged* (saved-and-reloaded) store: the row plan (per-record
// aggregates, then fold — which must decode every value block) against the
// zone-skipping scalar plan (which proves most blocks irrelevant from their
// zone maps and never decodes them).
func benchmarkPathAggScalar(b *testing.B, zoneSkip bool) {
	f, nodes := pathChainFixture(b, 50000, 1.0)
	// Monotonic measures on the benchmarked edge: only the first block can
	// hold the minimum, so the zone maps prove the rest skippable — the
	// selective-scan regime the plan targets.
	ab, ok := f.reg.Lookup(graph.E(nodes[0], nodes[1]))
	if !ok {
		b.Fatal("fixture lost its first edge")
	}
	for rec := uint32(0); rec < uint32(f.rel.NumRecords()); rec++ {
		f.rel.SetEdgeMeasure(rec, ab, float64(1<<20)+float64(rec))
	}
	dir := b.TempDir()
	if err := f.rel.Save(dir); err != nil {
		b.Fatal(err)
	}
	rel, err := colstore.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer rel.Close()
	// A tight budget keeps the column cold, so each run pays the decode cost
	// its plan actually incurs — the regime paging exists for.
	rel.SetPageCacheBytes(1 << 14)
	eng := NewEngine(rel, f.reg)
	q := NewPathAggQueryAlong(gpath.Closed(nodes[0], nodes[1]), Min, "")
	run := func() {
		if zoneSkip {
			res, err := eng.ExecutePathAggScalarContext(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			if !res.ZoneSkipped {
				b.Fatal("scalar plan did not engage")
			}
		} else {
			res, err := eng.ExecutePathAggQueryContext(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			res.FoldAcrossPaths()
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkPathAggScalarMinRows(b *testing.B)     { benchmarkPathAggScalar(b, false) }
func BenchmarkPathAggScalarMinZoneSkip(b *testing.B) { benchmarkPathAggScalar(b, true) }

// BenchmarkPathAggPagedCold is BenchmarkPathAggDense on a saved-and-reloaded
// store whose buffer pool holds 1% of the measures: every query faults all 65
// blocks of the chain's five columns in, so ns/op is the price of page faults
// (read, decode, frame turnover) over the in-memory run next to it.
func BenchmarkPathAggPagedCold(b *testing.B) {
	f, nodes := pathChainFixture(b, 50000, 1.0)
	dir := b.TempDir()
	if err := f.rel.Save(dir); err != nil {
		b.Fatal(err)
	}
	rel, err := colstore.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer rel.Close()
	rel.SetPageCacheBytes(rel.StorageStats().LogicalBytes / 100)
	eng := NewEngine(rel, f.reg)
	q := NewPathAggQueryAlong(gpath.Closed(nodes...), Sum, "")
	if _, err := eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	before := rel.PagePoolStats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rel.PagePoolStats().Misses-before)/float64(b.N), "faults/op")
}

// BenchmarkPathAggFetchMeasures times the graph-query measure phase (the
// fused AggregateInto scan) over a fixed structural answer.
func BenchmarkPathAggFetchMeasures(b *testing.B) {
	f, nodes := pathChainFixture(b, 50000, 1.0)
	res, err := f.eng.ExecuteGraphQueryContext(context.Background(), pathQuery(nodes...))
	if err != nil {
		b.Fatal(err)
	}
	res.FetchMeasures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.FetchMeasures()
	}
}
