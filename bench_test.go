// One testing.B benchmark per table and figure of the paper's evaluation
// (§7). Each benchmark times the operation the figure measures over small
// deterministic fixtures; the full row/series regeneration (with the larger
// default datasets) lives in cmd/grovebench, e.g.
//
//	go run ./cmd/grovebench -exp fig6
//
// Measurements that are not paper figures — batches, shards, the WAL,
// tracing overhead, paged reads — are workloads of the end-to-end benchmark
// (go run ./benchmark). Run everything here with: go test -bench=. -benchmem
package grove_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"grove/internal/bench"
	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/workload"
)

// benchScale sizes the benchmark fixtures: large enough for stable relative
// numbers, small enough for -bench=. to finish in minutes on one core.
func benchScale() bench.Scale {
	return bench.Scale{
		SensitivityRecords: 1000,
		NYRecords:          5000,
		GNURecords:         3000,
		Fig5Records:        200,
		NumQueries:         50,
		Seed:               42,
	}
}

// fixtures are shared across benchmarks and built once.
var (
	fixOnce sync.Once
	fixNY   *workload.Dataset // with records kept (baseline loading)
	fixGNU  *workload.Dataset
	fixErr  error
)

func fixtures(b *testing.B) (*workload.Dataset, *workload.Dataset) {
	b.Helper()
	fixOnce.Do(func() {
		sc := benchScale()
		spec := workload.NYSpec(sc.NYRecords, sc.Seed)
		spec.KeepRecords = true
		fixNY, fixErr = workload.Build(spec)
		if fixErr != nil {
			return
		}
		gspec := workload.GNUSpec(sc.GNURecords, sc.Seed+1)
		gspec.KeepRecords = true
		fixGNU, fixErr = workload.Build(gspec)
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixNY, fixGNU
}

// BenchmarkTable2_DatasetStats times dataset synthesis + loading, the
// operation behind Table 2's statistics.
func BenchmarkTable2_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := workload.Build(workload.NYSpec(500, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if ds.Stats.NumRecords != 500 {
			b.Fatal("bad dataset")
		}
	}
}

// BenchmarkFig3a_DatasetSize times the 4 systems on the uniform-query
// workload as the dataset grows (Fig. 3a).
func BenchmarkFig3a_DatasetSize(b *testing.B) {
	sc := benchScale()
	for _, mult := range []int{1, 5} {
		spec := workload.NYSpec(sc.SensitivityRecords*mult, sc.Seed)
		spec.KeepRecords = true
		ds, err := workload.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		queries := ds.Gen.UniformQueries(sc.NumQueries, 4)
		elems := make([][]graph.EdgeKey, len(queries))
		for i, q := range queries {
			elems[i] = q.Elements()
		}
		for _, sys := range bench.AllSystems(context.Background(), ds) {
			b.Run(fmt.Sprintf("records=%d/%s", spec.NumRecords, sys.Name()), func(b *testing.B) {
				matched := 0
				for i := 0; i < b.N; i++ {
					for _, q := range elems {
						matched += sys.RunQuery(q)
					}
				}
				b.ReportMetric(float64(matched)/float64(b.N), "records/op")
			})
		}
	}
}

// BenchmarkFig3b_QuerySize times the column store as the query graph grows
// from 1 to 1000 edges (Fig. 3b).
func BenchmarkFig3b_QuerySize(b *testing.B) {
	ny, _ := fixtures(b)
	sys := bench.NewColumnSystem(context.Background(), ny)
	for _, qe := range []int{1, 10, 100, 1000} {
		queries := ny.Gen.UniformQueries(20, qe)
		elems := make([][]graph.EdgeKey, len(queries))
		for i, q := range queries {
			elems[i] = q.Elements()
		}
		b.Run(fmt.Sprintf("edges=%d", qe), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range elems {
					sys.RunQuery(q)
				}
			}
		})
	}
}

// BenchmarkFig3c_Density times the column store across record densities
// (Fig. 3c).
func BenchmarkFig3c_Density(b *testing.B) {
	sc := benchScale()
	for _, density := range []float64{0.10, 0.20, 0.50} {
		ds, err := workload.BuildDense("NY", 1000, sc.SensitivityRecords/2, density, sc.Seed, false)
		if err != nil {
			b.Fatal(err)
		}
		sys := bench.NewColumnSystem(context.Background(), ds)
		queries := ds.Gen.UniformQueries(20, int(density*40))
		elems := make([][]graph.EdgeKey, len(queries))
		for i, q := range queries {
			elems[i] = q.Elements()
		}
		b.Run(fmt.Sprintf("density=%.0f%%", density*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range elems {
					sys.RunQuery(q)
				}
			}
		})
	}
}

// BenchmarkFig4_DiskSpace measures the storage footprint of the 4 systems
// (Fig. 4), reported as bytes metrics.
func BenchmarkFig4_DiskSpace(b *testing.B) {
	sc := benchScale()
	ds, err := workload.BuildDense("NY", 1000, sc.SensitivityRecords/2, 0.2, sc.Seed, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range bench.AllSystems(context.Background(), ds) {
		b.Run(sys.Name(), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = sys.DiskSizeBytes()
			}
			b.ReportMetric(float64(total), "bytes")
		})
	}
}

// BenchmarkFig5_EdgeDomain times the column store as the edge domain grows
// past one vertical partition (Fig. 5).
func BenchmarkFig5_EdgeDomain(b *testing.B) {
	sc := benchScale()
	for _, domain := range []int{1000, 5000, 10000} {
		ds, err := workload.BuildDense("NY", domain, sc.Fig5Records, 0.10, sc.Seed, false)
		if err != nil {
			b.Fatal(err)
		}
		sys := bench.NewColumnSystem(context.Background(), ds)
		queries := ds.Gen.UniformQueries(20, 10)
		elems := make([][]graph.EdgeKey, len(queries))
		for i, q := range queries {
			elems[i] = q.Elements()
		}
		b.Run(fmt.Sprintf("domain=%d/partitions=%d", domain, ds.Rel.NumPartitions()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range elems {
					sys.RunQuery(q)
				}
			}
		})
	}
}

// BenchmarkFig6_GraphViews times the uniform graph-query workload with and
// without materialized graph views (Fig. 6's endpoints).
func BenchmarkFig6_GraphViews(b *testing.B) {
	ny, _ := fixtures(b)
	sc := benchScale()
	queries := ny.Gen.UniformQueries(sc.NumQueries, 8)
	eng := query.NewEngine(ny.Rel, ny.Reg)
	adv := view.NewAdvisor(ny.Rel, ny.Reg)

	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, qg := range queries {
				res, err := eng.ExecuteGraphQueryContext(context.Background(), query.NewGraphQuery(qg))
				if err != nil {
					b.Fatal(err)
				}
				res.FetchMeasures()
			}
		}
	}
	ny.Rel.DropAllViews()
	b.Run("budget=0%", run)
	if _, err := adv.MaterializeGraphViews(queries, sc.NumQueries); err != nil {
		b.Fatal(err)
	}
	b.Run("budget=100%", run)
	ny.Rel.DropAllViews()
}

// BenchmarkFig7_AggViews times the aggregate-query workload with and without
// aggregate graph views (Fig. 7's endpoints).
func BenchmarkFig7_AggViews(b *testing.B) {
	_, gnu := fixtures(b)
	sc := benchScale()
	queries := gnu.Gen.UniformPathQueries(sc.NumQueries, 4, 8)
	eng := query.NewEngine(gnu.Rel, gnu.Reg)
	adv := view.NewAdvisor(gnu.Rel, gnu.Reg)

	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, qg := range queries {
				if _, err := eng.ExecutePathAggQueryContext(context.Background(), query.NewPathAggQuery(qg, query.Sum)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	gnu.Rel.DropAllViews()
	b.Run("budget=0%", run)
	if _, err := adv.MaterializeAggViews(queries, query.Sum, sc.NumQueries); err != nil {
		b.Fatal(err)
	}
	b.Run("budget=100%", run)
	gnu.Rel.DropAllViews()
}

// BenchmarkFig8_Zipf times the Zipf graph-query workload with and without
// views (Fig. 8's NY graph-query series endpoints).
func BenchmarkFig8_Zipf(b *testing.B) {
	ny, _ := fixtures(b)
	sc := benchScale()
	queries := ny.Gen.ZipfQueries(sc.NumQueries, 25, 8, false)
	eng := query.NewEngine(ny.Rel, ny.Reg)
	adv := view.NewAdvisor(ny.Rel, ny.Reg)

	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, qg := range queries {
				res, err := eng.ExecuteGraphQueryContext(context.Background(), query.NewGraphQuery(qg))
				if err != nil {
					b.Fatal(err)
				}
				res.FetchMeasures()
			}
		}
	}
	ny.Rel.DropAllViews()
	b.Run("budget=0%", run)
	if _, err := adv.MaterializeGraphViews(queries, sc.NumQueries); err != nil {
		b.Fatal(err)
	}
	b.Run("budget=100%", run)
	ny.Rel.DropAllViews()
}

// BenchmarkFig9_Candidates times candidate-view generation across minimum
// supports (Fig. 9's x-axis), for both generators.
func BenchmarkFig9_Candidates(b *testing.B) {
	ny, _ := fixtures(b)
	sc := benchScale()
	queries := ny.Gen.ZipfQueries(sc.NumQueries, 25, 8, false)
	adv := view.NewAdvisor(ny.Rel, ny.Reg)
	sets := adv.WorkloadEdgeSets(queries)
	for _, minSup := range []int{0, 5, 25} {
		b.Run(fmt.Sprintf("minSup=%d", minSup), func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				cands, err := view.Candidates(sets, minSup)
				if err != nil {
					b.Fatal(err)
				}
				n = len(cands)
			}
			b.ReportMetric(float64(n), "candidates")
		})
	}
}

// BenchmarkFig10_GIndex times fragment mining + discriminative selection,
// the preprocessing Figs. 10–11 compare against view selection.
func BenchmarkFig10_GIndex(b *testing.B) {
	ny, _ := fixtures(b)
	sample := ny.Records[:400]
	b.Run("mine+select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frags, err := minedFragments(sample)
			if err != nil {
				b.Fatal(err)
			}
			if len(frags) == 0 {
				b.Fatal("no fragments")
			}
		}
	})
	// View selection over the same workload, for the preprocessing-cost
	// comparison (paper: 1.5h gSpan vs <1s view selection).
	sc := benchScale()
	queries := ny.Gen.UniformQueries(sc.NumQueries, 8)
	adv := view.NewAdvisor(ny.Rel, ny.Reg)
	b.Run("view-selection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adv.SelectGraphViews(queries, sc.NumQueries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11_GIndexAgg times the aggregate-query workload with fragment
// bitmap columns vs aggregate views (Fig. 11's comparison at full budget).
func BenchmarkFig11_GIndexAgg(b *testing.B) {
	ny, _ := fixtures(b)
	sc := benchScale()
	queries := ny.Gen.UniformPathQueries(sc.NumQueries, 4, 8)
	eng := query.NewEngine(ny.Rel, ny.Reg)
	adv := view.NewAdvisor(ny.Rel, ny.Reg)

	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, qg := range queries {
				if _, err := eng.ExecutePathAggQueryContext(context.Background(), query.NewPathAggQuery(qg, query.Sum)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Fragments as plain bitmap columns.
	ny.Rel.DropAllViews()
	frags, err := minedFragments(ny.Records[:400])
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, f := range frags {
		if n >= sc.NumQueries {
			break
		}
		if _, err := ny.Rel.MaterializeView(fmt.Sprintf("frag%d", n), ny.Reg.IDs(f.Edges)); err == nil {
			n++
		}
	}
	b.Run("gindex-fragments", run)

	// Aggregate views selected by the advisor.
	ny.Rel.DropAllViews()
	if _, err := adv.MaterializeAggViews(queries, query.Sum, sc.NumQueries); err != nil {
		b.Fatal(err)
	}
	b.Run("aggregate-views", run)
	ny.Rel.DropAllViews()
}
