package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/raceflag"
)

// TestPathAggUnknownEdgeSentinelsDistinct is the regression test for the
// sentinel-EdgeID collision: every unknown edge of a query path used to
// resolve to the same sentinel id, aliasing distinct unknown edges to one
// column slot. Distinct unknown edges must fetch distinct (empty) columns.
func TestPathAggUnknownEdgeSentinelsDistinct(t *testing.T) {
	f := newFig2Fixture(t)
	q := NewPathAggQueryAlong(gpath.Closed("A", "X", "Y"), Sum, "")
	start := f.rel.Tracker().Snapshot()
	res, err := f.eng.ExecutePathAggQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Answer.Cardinality(); n != 0 {
		t.Fatalf("unknown-edge path matched %d records", n)
	}
	// (A,X) and (X,Y) are both unknown: two distinct sentinel ids, so two
	// measure-column fetches. The collision collapsed them into one.
	if got := f.rel.Tracker().Snapshot().Sub(start).MeasureColumnsFetched; got != 2 {
		t.Fatalf("unknown path edges fetched %d measure columns, want 2", got)
	}
	// The same unknown edge twice must still resolve to one id.
	q2 := &PathAggQuery{G: gpath.Closed("A", "X", "Y").ToGraph(), Agg: Sum,
		Paths: []gpath.Path{gpath.Closed("A", "X", "Y"), gpath.Closed("A", "X", "Y")}}
	start = f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q2); err != nil {
		t.Fatal(err)
	}
	if got := f.rel.Tracker().Snapshot().Sub(start).MeasureColumnsFetched; got != 2 {
		t.Fatalf("repeated unknown path refetched: %d measure columns, want 2", got)
	}
}

// genericTwin returns f stripped of its builtin name, so KernelFor falls
// back to the generic Fold/Lift kernel while the semantics stay identical.
func genericTwin(f AggFunc) AggFunc {
	return AggFunc{Name: f.Name + "_GEN", Identity: f.Identity, Lift: f.Lift, Fold: f.Fold}
}

// TestPathAggSpecializedMatchesGenericKernel runs the same queries through
// the specialized block kernels (builtin names) and the generic fallback
// (same Fold/Lift, unknown name) and requires bit-for-bit identical values
// and identical MeasuresScanned accounting.
func TestPathAggSpecializedMatchesGenericKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := newRandomFixture(t, rng, 200)
	f.eng.UseViews = false // the twin's name can never match a view's function
	for trial := 0; trial < 60; trial++ {
		rec := f.records[rng.Intn(len(f.records))]
		paths, err := gpath.MaximalPaths(rec.Graph)
		if err != nil || len(paths) == 0 {
			continue
		}
		p := paths[rng.Intn(len(paths))]
		for _, fn := range []AggFunc{Sum, Min, Max, Count} {
			run := func(a AggFunc) (*AggResult, int64) {
				start := f.rel.Tracker().Snapshot()
				res, err := f.eng.ExecutePathAggQueryContext(context.Background(), NewPathAggQueryAlong(p, a, ""))
				if err != nil {
					t.Fatal(err)
				}
				return res, f.rel.Tracker().Snapshot().Sub(start).MeasuresScanned
			}
			spec, specScanned := run(fn)
			gen, genScanned := run(genericTwin(fn))
			if specScanned != genScanned {
				t.Fatalf("trial %d %s: scanned %d, generic %d", trial, fn.Name, specScanned, genScanned)
			}
			for pi := range spec.Values {
				for i := range spec.Values[pi] {
					a, b := spec.Values[pi][i], gen.Values[pi][i]
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("trial %d %s: value[%d][%d] = %v (bits %x), generic %v (bits %x)",
							trial, fn.Name, pi, i, a, math.Float64bits(a), b, math.Float64bits(b))
					}
				}
			}
		}
	}
}

// pathChainFixture loads numRecords records over the edge chain A→B→…,
// each edge present with the given density — the workload the vectorized
// measure path is sized for.
func pathChainFixture(tb testing.TB, numRecords int, density float64) (*fixture, []string) {
	tb.Helper()
	nodes := []string{"A", "B", "C", "D", "E", "F"}
	rng := rand.New(rand.NewSource(3))
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	for r := 0; r < numRecords; r++ {
		rec := graph.NewRecord()
		for i := 0; i+1 < len(nodes); i++ {
			if rng.Float64() < density {
				if err := rec.SetEdge(nodes[i], nodes[i+1], 1+rng.Float64()*9); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if rec.Graph.NumElements() == 0 {
			if err := rec.SetEdge(nodes[0], nodes[1], 1); err != nil {
				tb.Fatal(err)
			}
		}
		graph.LoadRecord(rel, reg, rec)
	}
	rel.Optimize()
	return &fixture{rel: rel, reg: reg, eng: NewEngine(rel, reg)}, nodes
}

// TestPathAggSteadyStateAllocs proves the measure-scan/aggregate phases
// allocate O(1): the per-query allocation count must not grow with the
// answer set (scratch comes from pools, not per-segment makes).
func TestPathAggSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	counts := make([]float64, 0, 2)
	for _, n := range []int{1000, 8000} {
		f, nodes := pathChainFixture(t, n, 1.0)
		q := NewPathAggQueryAlong(gpath.Closed(nodes...), Sum, "")
		if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
			t.Fatal(err) // and warm the scratch pools
		}
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := f.eng.ExecutePathAggQueryContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}))
	}
	// Identical query shape over 8× the records must not allocate more
	// (+2 slack for pool refills under GC).
	if counts[1] > counts[0]+2 {
		t.Fatalf("path agg allocations grow with answer size: %v at 1k records, %v at 8k",
			counts[0], counts[1])
	}
}

// TestFetchMeasuresSteadyStateAllocs: same guard for the graph-query measure
// phase, which now folds through pooled buffers with no values/present
// materialization.
func TestFetchMeasuresSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	counts := make([]float64, 0, 2)
	for _, n := range []int{1000, 8000} {
		f, nodes := pathChainFixture(t, n, 1.0)
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), pathQuery(nodes...))
		if err != nil {
			t.Fatal(err)
		}
		res.FetchMeasures() // warm the pools
		counts = append(counts, testing.AllocsPerRun(20, func() {
			res.FetchMeasures()
		}))
	}
	if counts[1] > counts[0]+2 {
		t.Fatalf("FetchMeasures allocations grow with answer size: %v at 1k records, %v at 8k",
			counts[0], counts[1])
	}
}
