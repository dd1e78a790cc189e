package bench

import (
	"context"
	"fmt"
	"math/rand"

	"grove/internal/graph"
	"grove/internal/mine"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/workload"
)

// gIndexSetup holds everything the Figs. 10–11 experiments share: a dataset,
// a workload, and two discriminative-fragment trainings (§6.3):
//
//	gIndexQ   — mined on a sample of records that answer the workload
//	gIndexQ+D — mined on 80% random records + 20% answering records
type gIndexSetup struct {
	ds       *workload.Dataset
	queries  []*graph.Graph
	fragQ    []mine.Fragment
	fragQD   []mine.Fragment
	trainCap int
}

func newGIndexSetup(ctx context.Context, sc Scale, pathOnly bool) (*gIndexSetup, error) {
	spec := workload.NYSpec(sc.SensitivityRecords*2, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	var queries []*graph.Graph
	if pathOnly {
		queries = ds.Gen.UniformPathQueries(sc.NumQueries, 4, 8)
	} else {
		queries = ds.Gen.UniformQueries(sc.NumQueries, 8)
	}

	// Records answering the workload (the paper trains gIndexQ on these).
	eng := query.NewEngine(ds.Rel, ds.Reg)
	answering := make(map[uint32]struct{})
	for _, qg := range queries {
		res, err := eng.ExecuteGraphQueryContext(ctx, query.NewGraphQuery(qg))
		if err != nil {
			return nil, err
		}
		res.Answer.Each(func(rec uint32) bool {
			answering[rec] = struct{}{}
			return true
		})
	}
	rng := rand.New(rand.NewSource(sc.Seed + 99))
	const trainCap = 400
	var answerSample []*graph.Record
	for rec := range answering {
		answerSample = append(answerSample, ds.Records[rec])
		if len(answerSample) >= trainCap {
			break
		}
	}
	if len(answerSample) == 0 {
		// Degenerate workload (no answers): train on random records.
		for i := 0; i < trainCap && i < len(ds.Records); i++ {
			answerSample = append(answerSample, ds.Records[i])
		}
	}
	mixedSample := make([]*graph.Record, 0, trainCap)
	for i := 0; i < trainCap*4/5; i++ {
		mixedSample = append(mixedSample, ds.Records[rng.Intn(len(ds.Records))])
	}
	for i := 0; len(mixedSample) < trainCap && i < len(answerSample); i++ {
		mixedSample = append(mixedSample, answerSample[i])
	}

	mineCfg := func(sample []*graph.Record) mine.Config {
		minSup := len(sample) / 20
		if minSup < 2 {
			minSup = 2
		}
		return mine.Config{MinSupport: minSup, MaxEdges: 4, MaxFragments: 50000}
	}
	train := func(sample []*graph.Record) ([]mine.Fragment, error) {
		frags, err := mine.MineFrequent(sample, mineCfg(sample))
		if err != nil {
			return nil, err
		}
		return mine.SelectDiscriminative(frags, len(sample), 1.5), nil
	}
	fragQ, err := train(answerSample)
	if err != nil {
		return nil, err
	}
	fragQD, err := train(mixedSample)
	if err != nil {
		return nil, err
	}
	return &gIndexSetup{ds: ds, queries: queries, fragQ: fragQ, fragQD: fragQD, trainCap: trainCap}, nil
}

// materializeFragments adds the first k fragments as bitmap columns (named
// graph views), returning how many were created.
func (g *gIndexSetup) materializeFragments(frags []mine.Fragment, k int, prefix string) int {
	n := 0
	for _, f := range frags {
		if n >= k {
			break
		}
		edgeIDs := g.ds.Reg.IDs(f.Edges)
		if _, err := g.ds.Rel.MaterializeView(fmt.Sprintf("%s%d", prefix, n), edgeIDs); err != nil {
			continue
		}
		n++
	}
	return n
}

// runGIndexSweep measures workload time at each fragment/view budget for the
// three configurations of Figs. 10–11.
func runGIndexSweep(ctx context.Context, sc Scale, pathOnly bool, title string) (*Table, error) {
	setup, err := newGIndexSetup(ctx, sc, pathOnly)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   title,
		Columns: []string{"Budget", "gIndex_Q+D (ms)", "gIndex_Q (ms)", "Views (ms)"},
	}
	eng := query.NewEngine(setup.ds.Rel, setup.ds.Reg)
	adv := view.NewAdvisor(setup.ds.Rel, setup.ds.Reg)

	run := func() (float64, error) {
		var ms float64
		if pathOnly {
			a, b, err := timedAggWorkload(ctx, eng, setup.queries)
			if err != nil {
				return 0, err
			}
			ms = float64((a + b).Microseconds()) / 1000
		} else {
			a, b, err := timedGraphWorkload(ctx, eng, setup.queries)
			if err != nil {
				return 0, err
			}
			ms = float64((a + b).Microseconds()) / 1000
		}
		return ms, nil
	}

	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		k := pct * sc.NumQueries / 100
		row := []string{fmt.Sprintf("%d%%", pct)}

		// gIndex_Q+D fragments as extra bitmap columns.
		setup.ds.Rel.DropAllViews()
		setup.materializeFragments(setup.fragQD, k, "gqd")
		ms, err := run()
		if err != nil {
			return nil, err
		}
		row = append(row, fmtMS(ms))

		// gIndex_Q fragments.
		setup.ds.Rel.DropAllViews()
		setup.materializeFragments(setup.fragQ, k, "gq")
		ms, err = run()
		if err != nil {
			return nil, err
		}
		row = append(row, fmtMS(ms))

		// Advisor-selected views (graph views or aggregate views).
		setup.ds.Rel.DropAllViews()
		if k > 0 {
			if pathOnly {
				_, err = adv.MaterializeAggViews(setup.queries, query.Sum, k)
			} else {
				_, err = adv.MaterializeGraphViews(setup.queries, k)
			}
			if err != nil {
				return nil, err
			}
		}
		ms, err = run()
		if err != nil {
			return nil, err
		}
		row = append(row, fmtMS(ms))

		t.AddRow(row...)
	}
	setup.ds.Rel.DropAllViews()
	t.AddNote("fragments trained on %d-record samples; paper shape: views beat gIndex fragments, up to ~6x on aggregate queries", setup.trainCap)
	return t, nil
}

// Fig10 compares gIndex fragments with graph views on 100 uniform graph
// queries (Fig. 10).
func Fig10(ctx context.Context, sc Scale) (*Table, error) {
	return runGIndexSweep(ctx, sc, false, "Fig 10: gIndex fragments vs graph views (100 uniform graph queries)")
}

// Fig11 compares gIndex fragments with aggregate views on 100 uniform
// aggregate queries (Fig. 11).
func Fig11(ctx context.Context, sc Scale) (*Table, error) {
	return runGIndexSweep(ctx, sc, true, "Fig 11: gIndex fragments vs aggregate views (100 uniform aggregate queries)")
}
