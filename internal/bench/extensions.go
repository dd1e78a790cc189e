package bench

import (
	"context"
	"fmt"
	"time"

	"grove/internal/colstore"
	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/workload"
)

// ExtCluster measures the §6.1 clustering extension: cross-partition join
// work for a fixed query workload under the default id/width partitioning
// versus the workload-driven clustered assignment.
func ExtCluster(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Ext: workload-driven column clustering (partition joins per workload)",
		Columns: []string{"EdgeDomain", "Partitions", "Joins (default)", "Joins (clustered)", "Reduction"},
	}
	for _, domain := range []int{2000, 5000, 10000} {
		ds, err := workload.BuildDense("NY", domain, sc.Fig5Records, 0.10, sc.Seed, false)
		if err != nil {
			return nil, err
		}
		queries := ds.Gen.UniformQueries(sc.NumQueries, 10)
		eng := query.NewEngine(ds.Rel, ds.Reg)

		run := func() (int64, error) {
			start := ds.Rel.Tracker().Snapshot()
			for _, qg := range queries {
				res, err := eng.ExecuteGraphQueryContext(ctx, query.NewGraphQuery(qg))
				if err != nil {
					return 0, err
				}
				res.FetchMeasures()
			}
			return ds.Rel.Tracker().Snapshot().Sub(start).PartitionJoins, nil
		}
		if err := ds.Rel.SetPartitionMap(nil); err != nil {
			return nil, err
		}
		before, err := run()
		if err != nil {
			return nil, err
		}
		ids := make([][]colstore.EdgeID, len(queries))
		for i, qg := range queries {
			ids[i] = ds.Reg.GraphIDs(qg)
		}
		if _, err := ds.Rel.ClusterPartitions(ids); err != nil {
			return nil, err
		}
		after, err := run()
		if err != nil {
			return nil, err
		}
		red := "-"
		if before > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-float64(after)/float64(before)))
		}
		t.AddRow(fmt.Sprint(domain), fmt.Sprint(ds.Rel.NumPartitions()),
			fmt.Sprint(before), fmt.Sprint(after), red)
	}
	t.AddNote("extension of §6.1: \"intelligent clustering of these columns based on the users' query patterns\"")
	return t, nil
}

// ExtMaintenance measures incremental view maintenance: cost of keeping k
// views fresh per inserted record, versus rematerializing all views after a
// batch — the trade-off behind grove's streaming-ingest support.
func ExtMaintenance(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title:   "Ext: incremental view maintenance vs rematerialization",
		Columns: []string{"Views", "Insert+maintain (µs/record)", "Rematerialize all (ms)"},
	}
	spec := workload.NYSpec(sc.SensitivityRecords, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	queries := ds.Gen.UniformQueries(sc.NumQueries, 8)
	adv := view.NewAdvisor(ds.Rel, ds.Reg)

	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, sc.Seed+7)
	if err != nil {
		return nil, err
	}
	const batch = 200
	fresh := make([]*graph.Record, batch)
	for i := range fresh {
		if fresh[i], err = gen.NextRecord(); err != nil {
			return nil, err
		}
	}

	for _, k := range []int{10, 50, 100} {
		ds.Rel.DropAllViews()
		names, err := adv.MaterializeGraphViews(queries, k)
		if err != nil {
			return nil, err
		}
		// Insert a batch with incremental maintenance.
		start := time.Now()
		for _, rec := range fresh {
			graph.LoadRecord(ds.Rel, ds.Reg, rec)
		}
		perRecord := float64(time.Since(start).Microseconds()) / batch

		// Rematerialize all views from scratch for comparison.
		edgeSets := make([][]colstore.EdgeID, 0, len(names))
		for _, n := range names {
			edgeSets = append(edgeSets, ds.Rel.View(n).Edges)
		}
		ds.Rel.DropAllViews()
		start = time.Now()
		for i, es := range edgeSets {
			if _, err := ds.Rel.MaterializeView(fmt.Sprintf("r%d", i), es); err != nil {
				return nil, err
			}
		}
		rematMS := float64(time.Since(start).Microseconds()) / 1000
		t.AddRow(fmt.Sprint(len(names)), fmtMS(perRecord), fmtMS(rematMS))
	}
	ds.Rel.DropAllViews()
	t.AddNote("maintenance keeps views exact under the continuous ingest of §2 without periodic rebuild downtime")
	return t, nil
}
