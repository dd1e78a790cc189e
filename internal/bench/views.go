package bench

import (
	"context"
	"fmt"

	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/workload"
)

// budgets is the Fig. 6–8 space-budget sweep: views materialized as a
// percentage of the 100-query workload.
var budgets = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// Fig6 reruns the graph-view benefit experiment (Fig. 6): 100 uniform graph
// queries on the NY dataset, total run time vs number of materialized graph
// views, broken into measure-fetch time and the rest.
func Fig6(ctx context.Context, sc Scale) (*Table, error) {
	ds, err := buildNY(sc, false)
	if err != nil {
		return nil, err
	}
	queries := ds.Gen.UniformQueries(sc.NumQueries, 16)
	return viewBudgetSweep(ctx, "Fig 6: Run time vs space budget (100 uniform graph queries, NY)",
		ds, queries, sc, false)
}

// Fig7 reruns the aggregate-view benefit experiment (Fig. 7): 100 uniform
// path-aggregation queries on the GNU dataset vs number of aggregate views.
func Fig7(ctx context.Context, sc Scale) (*Table, error) {
	ds, err := buildGNU(sc, false)
	if err != nil {
		return nil, err
	}
	queries := ds.Gen.UniformPathQueries(sc.NumQueries, 4, 8)
	return viewBudgetSweep(ctx, "Fig 7: Run time vs space budget (100 uniform aggregate queries, GNU)",
		ds, queries, sc, true)
}

// viewBudgetSweep implements the shared budget loop of Figs. 6 and 7.
func viewBudgetSweep(ctx context.Context, title string, ds *workload.Dataset, queries []*graph.Graph, sc Scale, aggregate bool) (*Table, error) {
	cols := []string{"Budget", "Q-time fetch measures (ms)", "Q-time rest (ms)", "Total (ms)", "Views", "ViewSpace(%)"}
	t := &Table{Title: title, Columns: cols}
	eng := query.NewEngine(ds.Rel, ds.Reg)
	adv := view.NewAdvisor(ds.Rel, ds.Reg)
	for _, pct := range budgets {
		ds.Rel.DropAllViews()
		k := pct * sc.NumQueries / 100
		var names []string
		var err error
		if k > 0 {
			if aggregate {
				names, err = adv.MaterializeAggViews(queries, query.Sum, k)
			} else {
				names, err = adv.MaterializeGraphViews(queries, k)
			}
			if err != nil {
				return nil, err
			}
		}
		// Two passes; keep the second so allocator/cache warm-up noise does
		// not mask the trend (the paper averages five cold runs instead).
		var fetchMS, restMS float64
		for pass := 0; pass < 2; pass++ {
			if aggregate {
				structural, measure, err := timedAggWorkload(ctx, eng, queries)
				if err != nil {
					return nil, err
				}
				fetchMS = float64(measure.Microseconds()) / 1000
				restMS = float64(structural.Microseconds()) / 1000
			} else {
				structural, fetch, err := timedGraphWorkload(ctx, eng, queries)
				if err != nil {
					return nil, err
				}
				fetchMS = float64(fetch.Microseconds()) / 1000
				restMS = float64(structural.Microseconds()) / 1000
			}
		}
		space := 100 * float64(ds.Rel.ViewSizeBytes()) / float64(ds.Rel.BaseSizeBytes())
		t.AddRow(fmt.Sprintf("%d%%", pct), fmtMS(fetchMS), fmtMS(restMS),
			fmtMS(fetchMS+restMS), fmt.Sprint(len(names)), fmt.Sprintf("%.2f", space))
	}
	if aggregate {
		t.AddNote("paper shape: aggregate views shrink BOTH parts; up to ~89%% total reduction at full budget (~10%% extra space)")
	} else {
		t.AddNote("paper shape: graph views shrink only the 'rest' part (up to ~57%%); measure fetch is mandatory")
	}
	ds.Rel.DropAllViews()
	return t, nil
}

// Fig8 reruns the Zipf-workload experiment (Fig. 8): relative execution time
// (vs no views) across the budget sweep, for graph and aggregate queries on
// both datasets.
func Fig8(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title: "Fig 8: Relative time of Zipf query workloads vs space budget",
		Columns: []string{"Budget", "Graph-NY", "Graph-GNU",
			"Agg-NY", "Agg-GNU"},
	}
	ny, err := buildNY(sc, false)
	if err != nil {
		return nil, err
	}
	gnu, err := buildGNU(sc, false)
	if err != nil {
		return nil, err
	}
	type series struct {
		ds        *workload.Dataset
		queries   []*graph.Graph
		aggregate bool
		times     map[int]float64
	}
	mk := func(ds *workload.Dataset, aggregate bool) *series {
		pathOnly := aggregate
		size := 16
		if pathOnly {
			size = 8
		}
		return &series{
			ds:        ds,
			queries:   ds.Gen.ZipfQueries(sc.NumQueries, 25, size, pathOnly),
			aggregate: aggregate,
			times:     make(map[int]float64),
		}
	}
	all := []*series{mk(ny, false), mk(gnu, false), mk(ny, true), mk(gnu, true)}
	for _, s := range all {
		eng := query.NewEngine(s.ds.Rel, s.ds.Reg)
		adv := view.NewAdvisor(s.ds.Rel, s.ds.Reg)
		for _, pct := range budgets {
			s.ds.Rel.DropAllViews()
			k := pct * sc.NumQueries / 100
			if k > 0 {
				var err error
				if s.aggregate {
					_, err = adv.MaterializeAggViews(s.queries, query.Sum, k)
				} else {
					_, err = adv.MaterializeGraphViews(s.queries, k)
				}
				if err != nil {
					return nil, err
				}
			}
			var totalMS float64
			for pass := 0; pass < 2; pass++ {
				if s.aggregate {
					a, b, err := timedAggWorkload(ctx, eng, s.queries)
					if err != nil {
						return nil, err
					}
					totalMS = float64((a + b).Microseconds()) / 1000
				} else {
					a, b, err := timedGraphWorkload(ctx, eng, s.queries)
					if err != nil {
						return nil, err
					}
					totalMS = float64((a + b).Microseconds()) / 1000
				}
			}
			s.times[pct] = totalMS
		}
		s.ds.Rel.DropAllViews()
	}
	for _, pct := range budgets {
		row := []string{fmt.Sprintf("%d%%", pct)}
		for _, s := range all {
			base := s.times[0]
			if base <= 0 {
				base = 1
			}
			row = append(row, fmt.Sprintf("%.2f", s.times[pct]/base))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: skew increases sharing; reductions up to ~34%% (graph) and ~94%% (aggregate) at full budget")
	return t, nil
}

// Fig9 reruns the candidate-view counting experiment (Fig. 9): number of
// candidates vs minimum support, for graph and aggregate views under Zipf
// and uniform workloads.
func Fig9(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title: "Fig 9: Number of candidate views vs min-support",
		Columns: []string{"MinSup", "GraphViews-Zipf", "GraphViews-Uniform",
			"AggViews-Zipf", "AggViews-Uniform"},
	}
	ds, err := buildNY(sc, false)
	if err != nil {
		return nil, err
	}
	uniformG := ds.Gen.UniformQueries(sc.NumQueries, 8)
	zipfG := ds.Gen.ZipfQueries(sc.NumQueries, 25, 8, false)
	uniformP := ds.Gen.UniformPathQueries(sc.NumQueries, 4, 8)
	zipfP := ds.Gen.ZipfQueries(sc.NumQueries, 25, 6, true)

	adv := view.NewAdvisor(ds.Rel, ds.Reg)
	graphCandidates := func(queries []*graph.Graph, minSup int) (int, error) {
		sets := adv.WorkloadEdgeSets(queries)
		cands, err := view.Candidates(sets, minSup)
		if err != nil {
			return 0, err
		}
		return len(cands), nil
	}
	aggCandidates := func(queries []*graph.Graph, minSup int) (int, error) {
		cands, universes, err := view.AggCandidates(queries, ds.Reg)
		if err != nil {
			return 0, err
		}
		if minSup >= 2 {
			cands = view.FilterAggBySupport(cands, universes, minSup)
		}
		return len(cands), nil
	}
	for _, pct := range []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50} {
		minSup := pct * sc.NumQueries / 100
		row := []string{fmt.Sprintf("%d%%", pct)}
		for _, f := range []struct {
			count func([]*graph.Graph, int) (int, error)
			qs    []*graph.Graph
		}{
			{graphCandidates, zipfG},
			{graphCandidates, uniformG},
			{aggCandidates, zipfP},
			{aggCandidates, uniformP},
		} {
			n, err := f.count(f.qs, minSup)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(n))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: an initial increase of minSup sharply reduces the candidate count")
	return t, nil
}
