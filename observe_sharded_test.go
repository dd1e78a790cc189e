package grove

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"grove/internal/raceflag"
)

// TestShardedTraceTree asserts the shape of a scatter-gathered query's
// hierarchical trace: one root per logical query, labelled with the
// coordinator pseudo-shard, with coordinator phase spans in protocol order
// (fan-out, one queue-wait per shard, merge) and one engine child per shard.
func TestShardedTraceTree(t *testing.T) {
	st := NewSharded(4)
	loadSCMOrders(t, st)
	st.EnableTracing(8)

	if _, err := st.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	traces := st.RecentTraces()
	if len(traces) != 1 {
		t.Fatalf("one scattered query recorded %d traces, want 1 root (children must not land in the ring)", len(traces))
	}
	root := traces[0]
	if root.Kind != "graph" || root.Shard != -1 {
		t.Fatalf("root = kind %q shard %d, want graph/-1", root.Kind, root.Shard)
	}
	if root.Query == "" {
		t.Error("root trace lost the query text")
	}

	// Span protocol: fan-out, queue-wait ×4 (labelled 0..3), merge.
	if len(root.Spans) != 6 {
		t.Fatalf("root spans = %+v, want fan-out + 4 queue-waits + merge", root.Spans)
	}
	if root.Spans[0].Phase != "fan-out" || root.Spans[0].Shard != -1 {
		t.Errorf("span 0 = %+v, want coordinator fan-out", root.Spans[0])
	}
	for i := 0; i < 4; i++ {
		s := root.Spans[1+i]
		if s.Phase != "queue-wait" || s.Shard != i {
			t.Errorf("span %d = %+v, want queue-wait on shard %d", 1+i, s, i)
		}
	}
	last := root.Spans[len(root.Spans)-1]
	if last.Phase != "merge" || last.Shard != -1 {
		t.Errorf("last span = %+v, want coordinator merge", last)
	}

	if len(root.Children) != 4 {
		t.Fatalf("children = %d, want one per shard", len(root.Children))
	}
	var childIO int64
	for i, c := range root.Children {
		if c.Shard != i || c.Kind != "graph" {
			t.Errorf("child %d = kind %q shard %d", i, c.Kind, c.Shard)
		}
		if len(c.Spans) == 0 || c.Spans[0].Phase != "plan" {
			t.Errorf("child %d spans = %+v, want engine lifecycle starting at plan", i, c.Spans)
		}
		for _, s := range c.Spans {
			if s.Shard != i {
				t.Errorf("child %d span %q labelled shard %d", i, s.Phase, s.Shard)
			}
		}
		childIO += c.IO.BitmapColumnsFetched
	}
	if root.IO.BitmapColumnsFetched != childIO {
		t.Errorf("root bitmap fetches = %d, children sum to %d", root.IO.BitmapColumnsFetched, childIO)
	}

	// A path aggregation records the same root shape under its own kind.
	if _, err := st.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum); err != nil {
		t.Fatal(err)
	}
	agg := st.RecentTraces()[0]
	if agg.Kind != "pathagg" || agg.Shard != -1 || agg.Query == "" {
		t.Fatalf("aggregation root = kind %q shard %d query %q, want pathagg/-1 with its text", agg.Kind, agg.Shard, agg.Query)
	}
	waits := 0
	for _, s := range agg.Spans {
		if s.Phase == "queue-wait" {
			if s.Shard != waits {
				t.Errorf("aggregation queue-wait %d labelled shard %d", waits, s.Shard)
			}
			waits++
		}
	}
	if waits != 4 || len(agg.Children) != 4 {
		t.Errorf("aggregation root has %d queue-wait spans and %d children, want 4 and 4", waits, len(agg.Children))
	}
	for i, c := range agg.Children {
		if c.Shard != i || c.Kind != "pathagg" {
			t.Errorf("aggregation child %d = kind %q shard %d", i, c.Kind, c.Shard)
		}
	}

	// A boolean statement's root carries its query class and its text,
	// which parses back to it.
	if _, err := queryText(st, "[A,D] AND NOT [C,H]"); err != nil {
		t.Fatal(err)
	}
	stmt := st.RecentTraces()[0]
	if stmt.Kind != "graph" || stmt.Query != "({[A,D]} AND NOT {[C,H]})" {
		t.Fatalf("statement root = kind %q query %q", stmt.Kind, stmt.Query)
	}
	if _, err := Parse(stmt.Query); err != nil {
		t.Errorf("root query text does not parse: %v", err)
	}
	if len(stmt.Children) != 4 {
		t.Errorf("statement children = %d", len(stmt.Children))
	}

	st.DisableTracing()
	if st.RecentTraces() != nil {
		t.Error("traces survive disabling")
	}
}

// TestShardedExplainAnalyzeSumEqualsParts is the sharded EXPLAIN ANALYZE
// acceptance criterion: the analysis carries one child per shard, the root's
// observed I/O is exactly the sum over the children, each child's fetch count
// matches the plan, and the answer is bit-identical to the single-shard one.
func TestShardedExplainAnalyzeSumEqualsParts(t *testing.T) {
	one, four := Open(), NewSharded(4)
	loadSCMOrders(t, one)
	loadSCMOrders(t, four)

	g := PathOf("A", "D", "E").ToGraph()
	a1, err := one.ExplainAnalyze(g)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := four.ExplainAnalyze(g)
	if err != nil {
		t.Fatal(err)
	}

	if a4.Plan.BitmapsFetched != a1.Plan.BitmapsFetched {
		t.Errorf("plans disagree: %d vs %d bitmaps", a4.Plan.BitmapsFetched, a1.Plan.BitmapsFetched)
	}
	if a4.Records != a1.Records {
		t.Errorf("records = %d, single-shard %d", a4.Records, a1.Records)
	}
	if a4.Answer == nil || !a4.Answer.Equals(a1.Answer) {
		t.Fatalf("sharded answer %v differs from single-shard %v", a4.Answer, a1.Answer)
	}
	// The analysis answer must be the same record set a plain Match returns.
	res, err := four.Match(g)
	if err != nil {
		t.Fatal(err)
	}
	if !a4.Answer.Equals(res.Answer) {
		t.Error("ExplainAnalyze answer differs from Match on the same store")
	}

	root := a4.Trace
	if root.Shard != -1 || len(root.Children) != 4 {
		t.Fatalf("root = shard %d with %d children", root.Shard, len(root.Children))
	}
	var sum IOStats
	for i, c := range root.Children {
		if c.Shard != i {
			t.Errorf("child %d labelled shard %d", i, c.Shard)
		}
		// Every shard executes the full plan against its own columns.
		if c.IO.BitmapColumnsFetched != int64(a4.Plan.BitmapsFetched) {
			t.Errorf("child %d fetched %d bitmaps, plan predicts %d", i, c.IO.BitmapColumnsFetched, a4.Plan.BitmapsFetched)
		}
		sum = sum.Add(c.IO)
	}
	if root.IO != sum {
		t.Errorf("root IO %+v != sum of children %+v", root.IO, sum)
	}
	if !strings.Contains(a4.String(), "shard 0") {
		t.Errorf("rendering missing per-shard breakdown:\n%s", a4.String())
	}
}

// TestTraceRecordsQueryError: a failed query's trace carries the error text.
// A cancelled single-shard query's flat trace also ends in the engine's
// cancelled span; on 4 shards the record is the coordinator root. The next
// successful query's trace carries no error.
func TestTraceRecordsQueryError(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			st := NewSharded(shards)
			loadSCMOrders(t, st)
			st.EnableTracing(8)
			g := PathOf("A", "D", "E").ToGraph()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := st.Execute(ctx, Find(Q(g))); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled graph query err = %v", err)
			}
			if _, err := st.Execute(ctx, AggregateOn(g, Sum, "")); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled aggregation err = %v", err)
			}

			traces := st.RecentTraces()
			if len(traces) != 2 {
				t.Fatalf("two cancelled queries recorded %d traces, want 2", len(traces))
			}
			for i, kind := range []string{"pathagg", "graph"} { // newest first
				tr := traces[i]
				if tr.Kind != kind || tr.Error != context.Canceled.Error() {
					t.Errorf("trace %d = kind %q error %q, want %s/%q", i, tr.Kind, tr.Error, kind, context.Canceled.Error())
				}
				if shards > 1 {
					if tr.Shard != -1 {
						t.Errorf("trace %d shard = %d, want the coordinator root", i, tr.Shard)
					}
					continue
				}
				if tr.Shard != 0 || len(tr.Spans) == 0 || tr.Spans[len(tr.Spans)-1].Phase != "cancelled" {
					t.Errorf("trace %d = shard %d spans %+v, want shard 0 ending in a cancelled span", i, tr.Shard, tr.Spans)
				}
			}

			if _, err := st.Match(g); err != nil {
				t.Fatal(err)
			}
			if tr := st.RecentTraces()[0]; tr.Error != "" {
				t.Errorf("successful query's trace carries error %q", tr.Error)
			}
		})
	}
}

// TestShardedDisabledObservabilityAddsNoAllocations is the acceptance guard
// for the disabled path on a sharded store: after tracing is switched off, a
// scattered query must allocate exactly what a never-instrumented store
// allocates.
func TestShardedDisabledObservabilityAddsNoAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops a random 1/4 of Puts under the race detector, so allocation counts are nondeterministic")
	}
	base := NewSharded(4)
	loadSCMOrders(t, base)
	inst := NewSharded(4)
	loadSCMOrders(t, inst)
	inst.EnableTracing(4)
	g := PathOf("A", "D", "E").ToGraph()
	if _, err := inst.Match(g); err != nil {
		t.Fatal(err)
	}
	inst.DisableTracing()

	// Warm both stores so goroutine stacks and scratch pools are paid up front.
	for _, st := range []*Store{base, inst} {
		for i := 0; i < 5; i++ {
			if _, err := st.Match(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseline := testing.AllocsPerRun(100, func() {
		if _, err := base.Match(g); err != nil {
			t.Fatal(err)
		}
	})
	disabled := testing.AllocsPerRun(100, func() {
		if _, err := inst.Match(g); err != nil {
			t.Fatal(err)
		}
	})
	if disabled > baseline {
		t.Errorf("disabled observability allocates: %.1f/op vs %.1f/op never-instrumented", disabled, baseline)
	}

	// The same promise for one batch call, on one worker: with more, which
	// worker takes which query — and so what each scratch pool hands back —
	// is the scheduler's choice.
	graphs := []*Graph{g, PathOf("A", "B", "F").ToGraph(), PathOf("C", "H", "K").ToGraph(), g}
	batch := func(st *Store) func() {
		return func() {
			if _, err := st.ExecuteBatch(graphs, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := st.AggregateBatch(graphs, Sum, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range []*Store{base, inst} {
		for i := 0; i < 5; i++ {
			batch(st)()
		}
	}
	baseline, disabled = testing.AllocsPerRun(100, batch(base)), testing.AllocsPerRun(100, batch(inst))
	if disabled > baseline {
		t.Errorf("disabled observability allocates in a batch: %.1f/op vs %.1f/op never-instrumented", disabled, baseline)
	}
}

// metricsText renders the store's registry the way /metrics serves it.
func metricsText(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	if err := st.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardedBatchCountsOnce: one ExecuteBatch of 10 queries on a 4-shard
// store is one batch of 10 queries on /metrics — not one per shard — and the
// worker gauge returns to 0.
func TestShardedBatchCountsOnce(t *testing.T) {
	st := NewSharded(4)
	loadSCMOrders(t, st)
	st.Metrics()
	graphs := make([]*Graph, 10)
	for i := range graphs {
		graphs[i] = PathOf("A", "D", "E").ToGraph()
	}
	if _, err := st.ExecuteBatch(graphs, 3); err != nil {
		t.Fatal(err)
	}
	text := metricsText(t, st)
	for _, want := range []string{
		"\ngrove_batch_batches_total 1\n",
		"\ngrove_batch_queries_total 10\n",
		"\ngrove_batch_workers_busy 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q after one 10-query batch on 4 shards", strings.TrimSpace(want))
		}
	}
}

// TestShardedBatchObservability pins what a batch means to the per-shard
// signals (DESIGN.md §8): it is one scatter round — each shard's queue-wait
// histogram gains exactly one observation per batch call, the queue-depth
// gauge is back to 0 afterwards — and its sub-queries record flat,
// shard-labelled traces, one per (query, shard), never a coordinator root.
func TestShardedBatchObservability(t *testing.T) {
	const shards = 4
	st := NewSharded(shards)
	loadSCMOrders(t, st)
	st.Metrics()
	st.EnableTracing(64)
	graphs := []*Graph{PathOf("A", "D", "E").ToGraph(), PathOf("A", "B", "F").ToGraph(), PathOf("C", "H", "K").ToGraph()}

	if _, err := st.ExecuteBatch(graphs, 2); err != nil {
		t.Fatal(err)
	}
	traces := st.RecentTraces()
	if len(traces) != len(graphs)*shards {
		t.Fatalf("a %d-query batch on %d shards recorded %d traces, want one per sub-query", len(graphs), shards, len(traces))
	}
	perShard := make([]int, shards)
	for _, tr := range traces {
		if tr.Shard < 0 || tr.Shard >= shards || tr.Kind != "graph" || len(tr.Children) != 0 {
			t.Fatalf("batch sub-query trace = kind %q shard %d with %d children, want a flat engine trace", tr.Kind, tr.Shard, len(tr.Children))
		}
		for _, sp := range tr.Spans {
			if sp.Shard != tr.Shard {
				t.Errorf("span %q of a shard-%d trace labelled shard %d", sp.Phase, tr.Shard, sp.Shard)
			}
		}
		perShard[tr.Shard]++
	}
	for s, n := range perShard {
		if n != len(graphs) {
			t.Errorf("shard %d recorded %d traces, want %d", s, n, len(graphs))
		}
	}

	if _, err := st.AggregateBatch(graphs, Sum, 2); err != nil {
		t.Fatal(err)
	}
	text := metricsText(t, st)
	for s := 0; s < shards; s++ {
		label := `{shard="` + strconv.Itoa(s) + `"}`
		for _, want := range []string{
			MetricShardQueueWait + "_count" + label + " 2\n", // two batch calls
			MetricShardQueueDepth + label + " 0\n",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("/metrics missing %q after two batches", strings.TrimSpace(want))
			}
		}
	}
	if want := MetricScatterMerge + "_count " + strconv.Itoa(2*len(graphs)) + "\n"; !strings.Contains(text, want) {
		t.Errorf("/metrics missing %q: one merge observation per merged query", strings.TrimSpace(want))
	}
}
