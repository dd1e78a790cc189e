// Package obs_test holds the engine-facing overhead guards: they import
// internal/query (which imports obs), so they must live outside package obs.
package obs_test

import (
	"context"
	"testing"
	"time"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
	"grove/internal/raceflag"
	"grove/internal/workload"
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
	return query.NewEngine(rel, reg), query.NewGraphQuery(gpath.Closed("A", "C", "E", "F").ToGraph())
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
	if tr.Kind != obs.KindGraph {
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
// level on one small query; TestObsOverheadSmoke gates the same comparison
// on an NY-scale workload of uniform graph queries.
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

// TestObsOverheadSmoke is the bench-smoke guard on the tracing budget: on a
// sequential workload of uniform graph queries, metrics plus full lifecycle
// tracing must stay near the <5% EXPERIMENTS.md expectation (~3% measured at
// full scale). The gate budget is 10%, not 5: even interleaved best-of
// measurement leaves ±5–7% residual noise on a contended CI box, and a 5%
// line two points above the ~3% truth trips on noise alone. 10% keeps the
// tripwire well clear of noise while still catching the regression class it
// guards — e.g. losing the query-string cache re-measures at +9–18%. The
// guard also re-measures up to three times and fails only when every attempt
// exceeds the budget.
func TestObsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard, skipped with -short")
	}
	// Large enough that a workload pass takes tens of milliseconds — at
	// single-digit-millisecond passes the container's scheduler noise (±8%,
	// EXPERIMENTS.md) swamps a 5% budget even under best-of measurement.
	ds, err := workload.Build(workload.NYSpec(8000, 42))
	if err != nil {
		t.Fatal(err)
	}
	graphs := ds.Gen.UniformQueries(80, 16)
	queries := make([]*query.GraphQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewGraphQuery(g)
	}
	eng := query.NewEngine(ds.Rel, ds.Reg)

	const budget = 0.10
	const attempts = 3
	best := 0.0
	for i := 0; i < attempts; i++ {
		off, tracing := overheadDurations(t, eng, queries)
		overhead := float64(tracing)/float64(off) - 1
		if i == 0 || overhead < best {
			best = overhead
		}
		if best < budget {
			t.Logf("tracing overhead %+.2f%% (attempt %d, budget %+.0f%%)", overhead*100, i+1, budget*100)
			return
		}
		t.Logf("tracing overhead %+.2f%% over budget on attempt %d, re-measuring", overhead*100, i+1)
	}
	t.Errorf("tracing overhead %+.2f%% exceeded the %+.0f%% budget on all %d attempts",
		best*100, budget*100, attempts)
}

// Each timed run replays the workload several times so a run is long enough
// to measure, and the best of several runs is kept — single-digit millisecond
// runs are otherwise dominated by scheduler and GC noise.
const overheadPasses, overheadRounds = 5, 7

// overheadDurations times the same sequential workload with instrumentation
// off and with metrics plus tracing, per workload pass. The two modes are
// interleaved round by round — each round times both back to back before the
// next starts — so a patch of scheduler or GC noise lands on both modes of
// that round rather than skewing one mode's whole measurement window; the
// best round per mode is kept.
func overheadDurations(t *testing.T, eng *query.Engine, queries []*query.GraphQuery) (off, withTracing time.Duration) {
	t.Helper()
	traced := eng.Clone()
	traced.SetMetrics(obs.NewQueryMetrics(obs.NewRegistry()))
	traced.SetTraces(obs.NewTraceRing(0))
	modes := []*query.Engine{eng, traced}
	pass := func(e *query.Engine) time.Duration {
		start := time.Now()
		for _, q := range queries {
			if _, err := e.ExecuteGraphQueryContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Warm-up pass per mode so page-in and allocator noise lands on none.
	for _, e := range modes {
		pass(e)
	}
	best := make([]time.Duration, len(modes))
	for i := 0; i < overheadRounds; i++ {
		for m, e := range modes {
			total := time.Duration(0)
			for j := 0; j < overheadPasses; j++ {
				total += pass(e)
			}
			if best[m] == 0 || total < best[m] {
				best[m] = total
			}
		}
	}
	return best[0] / overheadPasses, best[1] / overheadPasses
}
