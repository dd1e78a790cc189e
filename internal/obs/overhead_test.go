// Package obs_test holds the engine-facing overhead guards: they import
// internal/query (which imports obs), so they must live outside package obs.
package obs_test

import (
	"context"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
	"grove/internal/raceflag"
)

// buildEngine loads the paper's Fig. 2 running example and returns an engine
// plus a query matching record 2 (path A,C,E,F).
func buildEngine(tb testing.TB) (*query.Engine, *query.GraphQuery) {
	tb.Helper()
	rel := colstore.NewRelation(0)
	reg := graph.NewRegistry()
	for _, edges := range [][]string{
		{"A", "B", "A", "C", "C", "E", "A", "D", "D", "E"},
		{"A", "C", "C", "E", "A", "D", "D", "E", "E", "F", "F", "G"},
		{"A", "D", "D", "E", "E", "F", "F", "G"},
	} {
		rec := graph.NewRecord()
		for i := 0; i < len(edges); i += 2 {
			if err := rec.SetEdge(edges[i], edges[i+1], float64(i+1)); err != nil {
				tb.Fatal(err)
			}
		}
		graph.LoadRecord(rel, reg, rec)
	}
	return query.NewEngine(rel, reg), query.FromPath(gpath.Closed("A", "C", "E", "F"))
}

// TestMetricsPathAddsNoAllocations is the acceptance guard for the
// disabled-by-default promise: attaching the metrics registry must not add a
// single allocation to Engine.ExecuteGraphQuery — the instrumentation is
// atomics and time.Now only.
func TestMetricsPathAddsNoAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops a random 1/4 of Puts under the race detector, so allocation counts are nondeterministic")
	}
	off, q := buildEngine(t)
	baseline := testing.AllocsPerRun(200, func() {
		if _, err := off.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})

	on := off.Clone()
	on.SetMetrics(obs.NewQueryMetrics(obs.NewRegistry()))
	metered := testing.AllocsPerRun(200, func() {
		if _, err := on.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	if metered > baseline {
		t.Errorf("metrics added allocations: %.1f/op with metrics vs %.1f/op without", metered, baseline)
	}
}

// TestTracingRecordsLifecycle sanity-checks the traced path end to end
// through the engine: phases in order, I/O attributed, plan fetch count
// observed exactly (single-threaded, so deltas are exact).
func TestTracingRecordsLifecycle(t *testing.T) {
	eng, q := buildEngine(t)
	ring := obs.NewTraceRing(4)
	eng.SetTraces(ring)
	res, err := eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	traces := ring.Recent()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.Kind != obs.KindGraph || tr.Cached {
		t.Errorf("trace header = %+v", tr)
	}
	var phases []string
	for _, s := range tr.Spans {
		phases = append(phases, s.Phase)
	}
	want := []string{obs.PhasePlan, obs.PhaseFetch, obs.PhaseIntersect}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	if got := tr.IO.BitmapColumnsFetched; got != int64(res.Plan.NumBitmaps()) {
		t.Errorf("traced fetches = %d, plan = %d", got, res.Plan.NumBitmaps())
	}
	if tr.IO.RecordsReturned != int64(res.NumRecords()) {
		t.Errorf("traced records = %d, answer = %d", tr.IO.RecordsReturned, res.NumRecords())
	}
}

// The benchmark trio quantifies the per-query cost of each instrumentation
// level; ExpObs in internal/bench reports the same comparison on the full
// NY-scale batch workload.
func BenchmarkExecuteObsOff(b *testing.B) {
	eng, q := buildEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteMetrics(b *testing.B) {
	eng, q := buildEngine(b)
	eng.SetMetrics(obs.NewQueryMetrics(obs.NewRegistry()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteMetricsAndTracing(b *testing.B) {
	eng, q := buildEngine(b)
	eng.SetMetrics(obs.NewQueryMetrics(obs.NewRegistry()))
	eng.SetTraces(obs.NewTraceRing(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}
