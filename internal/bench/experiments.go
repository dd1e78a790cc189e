package bench

import (
	"context"
	"fmt"
	"time"

	"grove/internal/graph"
	"grove/internal/graphdb"
	"grove/internal/query"
	"grove/internal/workload"
)

// Scale sets the dataset sizes the experiments run at. The paper's full
// datasets (320M/100M records) would take days on one core; the defaults
// below preserve every comparison while finishing in minutes. Scale up via
// cmd/grovebench flags to approach the paper's regime.
type Scale struct {
	// SensitivityRecords is the ×1 unit of Fig. 3(a) (the paper's 1M).
	SensitivityRecords int
	// NYRecords / GNURecords size the full-scale view experiments
	// (Figs. 6–8; the paper's 320M / 100M).
	NYRecords  int
	GNURecords int
	// Fig5Records sizes the edge-domain sweep datasets (the paper's 10M).
	Fig5Records int
	// NumQueries per workload (the paper uses 100).
	NumQueries int
	// Workers bounds the batch-executor pool for the parallel experiments;
	// 0 means runtime.NumCPU().
	Workers int
	// Seed makes every dataset and workload draw deterministic.
	Seed int64

	// ReplayLog, when set, switches the replay experiment from its
	// self-contained record→replay round trip to replaying this captured
	// workload log against the saved store at ReplayStore.
	ReplayLog   string
	ReplayStore string
}

// DefaultScale finishes the whole suite in a few minutes on one core.
func DefaultScale() Scale {
	return Scale{
		SensitivityRecords: 2000,
		NYRecords:          30000,
		GNURecords:         15000,
		Fig5Records:        400,
		NumQueries:         100,
		Seed:               42,
	}
}

// Table2 rebuilds the dataset-statistics table (§7.1, Table 2) at the given
// scale.
func Table2(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Table 2: Description of Datasets (scaled stand-ins)",
		Columns: []string{"Statistic", "NY", "GNU"},
	}
	ny, err := workload.Build(workload.NYSpec(sc.NYRecords, sc.Seed))
	if err != nil {
		return nil, err
	}
	gnu, err := workload.Build(workload.GNUSpec(sc.GNURecords, sc.Seed+1))
	if err != nil {
		return nil, err
	}
	a, b := ny.Stats, gnu.Stats
	t.AddRow("Number of graph records", fmt.Sprint(a.NumRecords), fmt.Sprint(b.NumRecords))
	t.AddRow("Total number of measures", fmt.Sprint(a.TotalMeasures), fmt.Sprint(b.TotalMeasures))
	t.AddRow("Size on disk (MB)", fmtMB(a.SizeBytes), fmtMB(b.SizeBytes))
	t.AddRow("Distinct number of edge ids", fmt.Sprint(a.DistinctEdges), fmt.Sprint(b.DistinctEdges))
	t.AddRow("Min edges per record", fmt.Sprint(a.MinEdgesPerRec), fmt.Sprint(b.MinEdgesPerRec))
	t.AddRow("Max edges per record", fmt.Sprint(a.MaxEdgesPerRec), fmt.Sprint(b.MaxEdgesPerRec))
	t.AddRow("Avg edges per record", fmt.Sprintf("%.1f", a.AvgEdgesPerRec), fmt.Sprintf("%.1f", b.AvgEdgesPerRec))
	t.AddNote("paper: 320M/100M records, 27.3B/7.5B measures, 241/68 GB — scaled by the record counts above")
	return t, nil
}

// Fig3a measures total execution time of NumQueries uniform graph queries
// on all four systems as the dataset grows ×1, ×5, ×10 (Fig. 3(a)).
func Fig3a(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 3(a): Query time vs dataset size (ms total, 100 uniform queries)",
		Columns: []string{"Records", "Column Store", "Neo4j-like Store", "RDF Store", "Row Store"},
	}
	for _, mult := range []int{1, 5, 10} {
		n := sc.SensitivityRecords * mult
		spec := workload.NYSpec(n, sc.Seed)
		spec.KeepRecords = true
		ds, err := workload.Build(spec)
		if err != nil {
			return nil, err
		}
		queries := queriesToElements(ds.Gen.UniformQueries(sc.NumQueries, 4))
		row := []string{fmt.Sprint(n)}
		for _, sys := range AllSystems(ctx, ds) {
			d, _ := runWorkload(sys, queries)
			row = append(row, fmtMS(float64(d.Microseconds())/1000))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: column store lowest by orders of magnitude; row store highest; all linear in dataset size")
	return t, nil
}

// Fig3b measures query time as the query graph grows from 1 to 1000 edges on
// the ×1 dataset (Fig. 3(b)).
func Fig3b(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 3(b): Query time vs query size (ms total, 100 uniform queries)",
		Columns: []string{"QueryEdges", "Column Store", "Neo4j-like Store", "RDF Store", "Row Store"},
	}
	spec := workload.NYSpec(sc.SensitivityRecords, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	systems := AllSystems(ctx, ds)
	for _, qe := range []int{1, 10, 100, 1000} {
		queries := queriesToElements(ds.Gen.UniformQueries(sc.NumQueries, qe))
		row := []string{fmt.Sprint(qe)}
		for _, sys := range systems {
			d, _ := runWorkload(sys, queries)
			row = append(row, fmtMS(float64(d.Microseconds())/1000))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: column store improves with larger queries (smaller answers); others grow")
	return t, nil
}

// Fig3c measures query time as record density grows to 10%, 20%, 50% of a
// 1000-edge domain (Fig. 3(c)).
func Fig3c(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 3(c): Query time vs record density (ms total, 100 uniform queries)",
		Columns: []string{"Density", "Column Store", "Neo4j-like Store", "RDF Store", "Row Store"},
	}
	for _, density := range []float64{0.10, 0.20, 0.50} {
		ds, err := workload.BuildDense("NY", 1000, sc.SensitivityRecords/2, density, sc.Seed, true)
		if err != nil {
			return nil, err
		}
		// Query size tracks density, as in the paper.
		qe := int(density * 40)
		queries := queriesToElements(ds.Gen.UniformQueries(sc.NumQueries, qe))
		row := []string{fmt.Sprintf("%.0f%%", density*100)}
		for _, sys := range AllSystems(ctx, ds) {
			d, _ := runWorkload(sys, queries)
			row = append(row, fmtMS(float64(d.Microseconds())/1000))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: column store flat across density; others grow with record size")
	return t, nil
}

// Fig4 measures storage footprint vs record density for the four systems
// (Fig. 4).
func Fig4(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 4: Disk space vs record density (MB)",
		Columns: []string{"Density", "Column Store", "Neo4j-like Store", "RDF Store", "Row Store"},
	}
	for _, density := range []float64{0.10, 0.20, 0.50} {
		ds, err := workload.BuildDense("NY", 1000, sc.SensitivityRecords/2, density, sc.Seed, true)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.0f%%", density*100)}
		for _, sys := range AllSystems(ctx, ds) {
			row = append(row, fmtMB(sys.DiskSizeBytes()))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: neo4j largest; row store linear in density; column store smallest and flattest")
	return t, nil
}

// Fig5 measures query time as the edge domain grows (vertical partitioning
// kicks in past 1000 columns), column store vs graph database (Fig. 5).
func Fig5(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 5: Query time vs edge-domain size (ms total, 100 uniform queries, 10% density)",
		Columns: []string{"DistinctEdges", "Column Store", "Neo4j-like Store", "Partitions"},
	}
	for _, domain := range []int{1000, 5000, 10000, 20000} {
		ds, err := workload.BuildDense("NY", domain, sc.Fig5Records, 0.10, sc.Seed, true)
		if err != nil {
			return nil, err
		}
		queries := queriesToElements(ds.Gen.UniformQueries(sc.NumQueries, 10))

		col := NewColumnSystem(ctx, ds)
		dCol, _ := runWorkload(col, queries)

		gdb := graphdb.New()
		for _, r := range ds.Records {
			gdb.AddRecord(r)
		}
		start := time.Now()
		for _, q := range queries {
			matched := gdb.MatchQuery(q)
			gdb.FetchMeasures(matched, q)
		}
		dGdb := time.Since(start)

		t.AddRow(fmt.Sprint(domain),
			fmtMS(float64(dCol.Microseconds())/1000),
			fmtMS(float64(dGdb.Microseconds())/1000),
			fmt.Sprint(ds.Rel.NumPartitions()))
	}
	t.AddNote("paper shape: column store degrades slowly as partitions multiply but stays below neo4j through 100K edges")
	return t, nil
}

// uniformGraphWorkload and helpers shared with the view experiments.
func buildNY(sc Scale, keep bool) (*workload.Dataset, error) {
	spec := workload.NYSpec(sc.NYRecords, sc.Seed)
	spec.KeepRecords = keep
	return workload.Build(spec)
}

func buildGNU(sc Scale, keep bool) (*workload.Dataset, error) {
	spec := workload.GNUSpec(sc.GNURecords, sc.Seed+1)
	spec.KeepRecords = keep
	return workload.Build(spec)
}

// timedGraphWorkload runs graph queries against an engine, timing the
// structural phase and the measure-fetch phase separately — the two parts of
// the Fig. 6 breakdown.
func timedGraphWorkload(ctx context.Context, eng *query.Engine, queries []*graph.Graph) (structural, fetch time.Duration, err error) {
	for _, qg := range queries {
		s0 := time.Now()
		res, e := eng.ExecuteGraphQueryContext(ctx, query.NewGraphQuery(qg))
		if e != nil {
			return 0, 0, e
		}
		structural += time.Since(s0)
		f0 := time.Now()
		res.FetchMeasures()
		fetch += time.Since(f0)
	}
	return structural, fetch, nil
}

// timedAggWorkload runs path-aggregation queries, splitting structural time
// from measure/aggregation time (Fig. 7 breakdown).
func timedAggWorkload(ctx context.Context, eng *query.Engine, queries []*graph.Graph) (structural, measure time.Duration, err error) {
	for _, qg := range queries {
		t0 := time.Now()
		res, e := eng.ExecutePathAggQueryContext(ctx, query.NewPathAggQuery(qg, query.Sum))
		if e != nil {
			return 0, 0, e
		}
		total := time.Since(t0)
		// Attribute time in proportion to the work split: the structural
		// part is re-run in isolation for an exact split.
		s0 := time.Now()
		if _, e := eng.ExecuteGraphQueryContext(ctx, query.NewGraphQuery(qg)); e != nil {
			return 0, 0, e
		}
		s := time.Since(s0)
		if s > total {
			s = total
		}
		structural += s
		measure += total - s
		_ = res
	}
	return structural, measure, nil
}
