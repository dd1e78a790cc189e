package view

import (
	"context"
	"math/rand"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
)

// buildWorkloadFixture loads random layered-DAG records and returns a
// workload of query graphs drawn from them.
func buildWorkloadFixture(t *testing.T, rng *rand.Rand) (*colstore.Relation, *graph.Registry, []*graph.Graph) {
	t.Helper()
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	name := func(layer, i int) string {
		return string(rune('A'+layer)) + string(rune('0'+i))
	}
	var chains [][]string
	for i := 0; i < 200; i++ {
		nodes := []string{name(0, rng.Intn(4))}
		for layer := 1; layer < 5; layer++ {
			nodes = append(nodes, name(layer, rng.Intn(4)))
		}
		chains = append(chains, nodes)
		measures := make([]float64, len(nodes)-1)
		for j := range measures {
			measures[j] = float64(1 + rng.Intn(9))
		}
		rec, err := graph.FlattenSequence(nodes, measures)
		if err != nil {
			t.Fatal(err)
		}
		graph.LoadRecord(rel, reg, rec)
	}
	var queries []*graph.Graph
	for i := 0; i < 30; i++ {
		nodes := chains[rng.Intn(len(chains))]
		lo := rng.Intn(len(nodes) - 2)
		hi := lo + 2 + rng.Intn(len(nodes)-lo-2)
		queries = append(queries, gpath.Closed(nodes[lo:hi+1]...).ToGraph())
	}
	return rel, reg, queries
}

func TestAdvisorMaterializeGraphViews(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel, reg, queries := buildWorkloadFixture(t, rng)
	adv := NewAdvisor(rel, reg)
	names, err := adv.MaterializeGraphViews(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no views materialized")
	}
	if len(names) > 5 {
		t.Fatalf("budget exceeded: %d views", len(names))
	}
	for _, n := range names {
		if rel.View(n) == nil {
			t.Errorf("view %s not in relation", n)
		}
	}

	// Rewritten queries must keep their answers and never fetch more bitmaps.
	eng := query.NewEngine(rel, reg)
	for _, qg := range queries {
		q := query.NewGraphQuery(qg)
		eng.UseViews = true
		with, err := eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		eng.UseViews = false
		without, err := eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !with.Answer.Equals(without.Answer) {
			t.Fatalf("answer changed for %v", qg.Elements())
		}
		if with.Plan.NumBitmaps() > without.Plan.NumBitmaps() {
			t.Fatalf("rewriting increased cost for %v", qg.Elements())
		}
	}
}

func TestAdvisorViewsReduceWorkloadCost(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rel, reg, queries := buildWorkloadFixture(t, rng)
	eng := query.NewEngine(rel, reg)

	cost := func() int64 {
		start := rel.Tracker().Snapshot()
		for _, qg := range queries {
			if _, err := eng.ExecuteGraphQueryContext(context.Background(), query.NewGraphQuery(qg)); err != nil {
				t.Fatal(err)
			}
		}
		return rel.Tracker().Snapshot().Sub(start).BitmapColumnsFetched
	}
	before := cost()
	adv := NewAdvisor(rel, reg)
	if _, err := adv.MaterializeGraphViews(queries, len(queries)); err != nil {
		t.Fatal(err)
	}
	after := cost()
	if after >= before {
		t.Fatalf("views did not reduce bitmap fetches: %d -> %d", before, after)
	}
}

func TestAdvisorMaterializeAggViews(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel, reg, queries := buildWorkloadFixture(t, rng)
	adv := NewAdvisor(rel, reg)
	names, err := adv.MaterializeAggViews(queries, query.Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no aggregate views materialized")
	}
	eng := query.NewEngine(rel, reg)
	for _, qg := range queries[:10] {
		q := query.NewPathAggQuery(qg, query.Sum)
		eng.UseViews = true
		with, err := eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		eng.UseViews = false
		without, err := eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for p := range with.Values {
			for i := range with.Values[p] {
				if with.Values[p][i] != without.Values[p][i] {
					t.Fatalf("aggregate changed: %v vs %v",
						with.Values[p][i], without.Values[p][i])
				}
			}
		}
	}
}

func TestAdvisorMinSupFiltersAggCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rel, reg, queries := buildWorkloadFixture(t, rng)
	advAll := &Advisor{Rel: rel, Reg: reg, MinSup: 0}
	advSup := &Advisor{Rel: rel, Reg: reg, MinSup: 4}
	all, err := advAll.SelectAggViews(queries, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := advSup.SelectAggViews(queries, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) > len(all) {
		t.Fatalf("minSup grew the selection: %d vs %d", len(sup), len(all))
	}
}
