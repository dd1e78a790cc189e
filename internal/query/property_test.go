package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
)

// TestPlanCoverAlwaysCoversUniverse: for random universes and view catalogs,
// the plan's views + edges must cover the query exactly — every universe
// edge covered, every planned view a subset of the universe.
func TestPlanCoverAlwaysCoversUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		rel := colstore.NewRelation(0)
		cells := make([]colstore.Cell, 40)
		for e := range cells {
			cells[e] = colstore.Cell{Edge: colstore.EdgeID(e), Value: 1, HasValue: true}
		}
		rel.AppendRow(cells)
		// Random views.
		numViews := rng.Intn(6)
		for v := 0; v < numViews; v++ {
			var ids []colstore.EdgeID
			for j := 0; j < 2+rng.Intn(4); j++ {
				ids = append(ids, colstore.EdgeID(rng.Intn(40)))
			}
			_, _ = rel.MaterializeView(string(rune('a'+v)), ids)
		}
		// Random universe.
		var universe []colstore.EdgeID
		seen := map[colstore.EdgeID]struct{}{}
		for j := 0; j < 1+rng.Intn(10); j++ {
			e := colstore.EdgeID(rng.Intn(40))
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				universe = append(universe, e)
			}
		}
		plan := PlanCover(rel, universe)

		covered := map[colstore.EdgeID]struct{}{}
		for _, name := range plan.Views {
			v := rel.View(name)
			for _, e := range v.Edges {
				if _, ok := seen[e]; !ok {
					t.Fatalf("trial %d: view %s includes edge %d outside the query", trial, name, e)
				}
				covered[e] = struct{}{}
			}
		}
		for _, e := range plan.Edges {
			covered[e] = struct{}{}
		}
		for e := range seen {
			if _, ok := covered[e]; !ok {
				t.Fatalf("trial %d: edge %d left uncovered by plan %+v", trial, e, plan)
			}
		}
		if plan.NumBitmaps() > len(universe) {
			t.Fatalf("trial %d: plan uses more bitmaps (%d) than the oblivious plan (%d)",
				trial, plan.NumBitmaps(), len(universe))
		}
	}
}

// TestAggViewsNeverChangeAggregates: random records, random aggregate views,
// random path queries — view-based evaluation must equal raw evaluation for
// every aggregate function.
func TestAggViewsNeverChangeAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := newRandomFixture(t, rng, 150)

	// Materialize aggregate views over random subpaths of record paths.
	fns := []AggFunc{Sum, Min, Max, Count}
	for i := 0; i < 6; i++ {
		rec := f.records[rng.Intn(len(f.records))]
		paths, err := gpath.MaximalPaths(rec.Graph)
		if err != nil || len(paths) == 0 {
			continue
		}
		p := paths[rng.Intn(len(paths))]
		if p.Len() < 2 {
			continue
		}
		var ids []colstore.EdgeID
		for _, k := range p.Edges() {
			ids = append(ids, f.reg.ID(k))
		}
		fn := fns[rng.Intn(len(fns))]
		_, _ = f.rel.MaterializeAggView(string(rune('a'+i)), ids, fn)
	}

	for trial := 0; trial < 60; trial++ {
		rec := f.records[rng.Intn(len(f.records))]
		paths, err := gpath.MaximalPaths(rec.Graph)
		if err != nil || len(paths) == 0 {
			continue
		}
		p := paths[rng.Intn(len(paths))]
		if p.Len() < 1 {
			continue
		}
		fn := fns[rng.Intn(len(fns))]
		q := NewPathAggQuery(p.ToGraph(), fn)

		f.eng.UseViews = true
		with, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		f.eng.UseViews = false
		without, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !with.Answer.Equals(without.Answer) {
			t.Fatalf("trial %d: answers diverge", trial)
		}
		for pi := range with.Values {
			for i := range with.Values[pi] {
				a, b := with.Values[pi][i], without.Values[pi][i]
				if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
					t.Fatalf("trial %d (%s): value mismatch %v vs %v", trial, fn.Name, a, b)
				}
			}
		}
	}
}

// TestAggMatchesBruteForce: engine path aggregation equals a direct fold
// over the record's measures.
func TestAggMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := newRandomFixture(t, rng, 150)
	for trial := 0; trial < 80; trial++ {
		rec := f.records[rng.Intn(len(f.records))]
		paths, err := gpath.MaximalPaths(rec.Graph)
		if err != nil || len(paths) == 0 {
			continue
		}
		p := paths[rng.Intn(len(paths))]
		q := NewPathAggQuery(p.ToGraph(), Sum)
		res, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range res.RecordIDs {
			r := f.records[id]
			want := 0.0
			null := false
			for _, k := range p.Edges() {
				m := r.Measure(k)
				if !m.Valid {
					null = true
					break
				}
				want += m.Value
			}
			// Node measures of the closed path (random fixture has none,
			// but keep the check honest).
			for _, n := range p.MeasuredNodes() {
				if m := r.Measure(graph.NodeKey(n)); m.Valid {
					want += m.Value
				}
			}
			got := res.Values[0][i]
			if null {
				if !math.IsNaN(got) {
					t.Fatalf("trial %d rec %d: want NaN, got %v", trial, id, got)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d rec %d: got %v want %v", trial, id, got, want)
			}
		}
	}
}
