package grove

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestShardedTraceTree asserts the shape of a scatter-gathered query's
// hierarchical trace: one root per logical query, labelled with the
// coordinator pseudo-shard, with coordinator phase spans in protocol order
// (fan-out, one queue-wait per shard, merge) and one engine child per shard.
func TestShardedTraceTree(t *testing.T) {
	st := NewSharded(4)
	loadSCMOrders(t, st)
	st.EnableTracing(8)

	if _, err := st.MatchPath("A", "D", "E"); err != nil {
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

	// A sharded statement is parsed once by the coordinator: the root carries
	// the statement kind and text but no parse span.
	if _, err := st.Query("[A,D] AND NOT [C,H]"); err != nil {
		t.Fatal(err)
	}
	stmt := st.RecentTraces()[0]
	if stmt.Kind != "statement" || stmt.Query != "[A,D] AND NOT [C,H]" {
		t.Fatalf("statement root = kind %q query %q", stmt.Kind, stmt.Query)
	}
	for _, s := range stmt.Spans {
		if s.Phase == "parse" {
			t.Errorf("sharded statement root has a parse span: %+v", stmt.Spans)
		}
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
	var sum IODelta
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

// TestSlowQueryLogThroughStore covers the slow-query ring end to end: a
// threshold-0 log records every query with its per-shard breakdown, the
// threshold can be retuned live, and /debug/slow serves the entries as JSONL.
func TestSlowQueryLogThroughStore(t *testing.T) {
	st := NewSharded(4)
	loadSCMOrders(t, st)
	st.EnableSlowQueryLog(8, 0)

	if _, err := st.MatchPath("A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AggregatePath(Sum, "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query("[A,D,E] AND NOT [A,B]"); err != nil {
		t.Fatal(err)
	}

	slow := st.SlowQueries()
	if len(slow) != 3 {
		t.Fatalf("slow entries = %d, want 3 (one merged entry per logical query, not one per shard)", len(slow))
	}
	// Newest first.
	for i, want := range []string{"statement", "pathagg", "graph"} {
		e := slow[i]
		if e.Kind != want {
			t.Errorf("entry %d kind = %q, want %q", i, e.Kind, want)
		}
		if e.Shard != -1 {
			t.Errorf("entry %d shard = %d, want coordinator", i, e.Shard)
		}
		if e.Query == "" {
			t.Errorf("entry %d lost its query text", i)
		}
		if len(e.Shards) != 4 {
			t.Errorf("entry %d carries %d shard timings, want 4", i, len(e.Shards))
		}
		for s, timing := range e.Shards {
			if timing.Shard != s {
				t.Errorf("entry %d timing %d labelled shard %d", i, s, timing.Shard)
			}
		}
	}

	// Retuning the threshold stops logging without dropping entries.
	st.SetSlowQueryThreshold(time.Hour)
	if _, err := st.MatchPath("A", "D"); err != nil {
		t.Fatal(err)
	}
	if got := len(st.SlowQueries()); got != 3 {
		t.Errorf("entries after retune = %d, want 3", got)
	}

	// The total counter keeps counting evicted entries too.
	st.Metrics()
	srv, err := st.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines int
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var e SlowQuery
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable /debug/slow line %q: %v", sc.Text(), err)
		}
		if e.Kind == "" {
			t.Errorf("entry missing kind: %q", sc.Text())
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("/debug/slow served %d entries, want 3", lines)
	}

	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		MetricSlowQueries + " 3",
		MetricScatterMerge + "_count",
		MetricShardQueueWait + `_count{shard="0"}`,
		MetricShardQueueWait + `_count{shard="3"}`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st.DisableSlowQueryLog()
	if st.SlowQueries() != nil {
		t.Error("entries survive disabling")
	}
}

// TestSlowQueryLogSingleShard pins the engine-level (unscattered) shape: flat
// entries labelled with shard 0 and no per-shard breakdown.
func TestSlowQueryLogSingleShard(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	st.EnableSlowQueryLog(4, 0)
	if _, err := st.MatchPath("A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	slow := st.SlowQueries()
	if len(slow) != 1 {
		t.Fatalf("entries = %d", len(slow))
	}
	if slow[0].Shard != 0 || slow[0].Shards != nil {
		t.Errorf("single-shard entry = %+v, want shard 0 with no breakdown", slow[0])
	}
	if slow[0].Kind != "graph" {
		t.Errorf("kind = %q", slow[0].Kind)
	}
}

// TestShardedDisabledObservabilityAddsNoAllocations is the acceptance guard
// for the disabled path on a sharded store: after tracing and the slow log
// are switched off, a scattered query must allocate exactly what a
// never-instrumented store allocates.
func TestShardedDisabledObservabilityAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random 1/4 of Puts under the race detector, so allocation counts are nondeterministic")
	}
	base := NewSharded(4)
	loadSCMOrders(t, base)
	inst := NewSharded(4)
	loadSCMOrders(t, inst)
	inst.EnableTracing(4)
	inst.EnableSlowQueryLog(4, 0)
	g := PathOf("A", "D", "E").ToGraph()
	if _, err := inst.Match(g); err != nil {
		t.Fatal(err)
	}
	inst.DisableTracing()
	inst.DisableSlowQueryLog()

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
