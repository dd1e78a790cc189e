package grove

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"grove/internal/raceflag"
)

// TestServeMetricsEndpoint is the acceptance check for the /metrics surface:
// the endpoint serves parseable Prometheus text including the query latency
// histogram and the I/O counters, and /traces serves the ring newest first.
func TestServeMetricsEndpoint(t *testing.T) {
	st := buildSCMStore(t)
	// A query before the registry exists still counts toward grove_io_*.
	if _, err := st.Match(PathOf("A", "B").ToGraph()); err != nil {
		t.Fatal(err)
	}
	st.EnableTracing(0)
	st.Metrics()

	// One repeated query and one aggregation.
	for i := 0; i < 2; i++ {
		if _, err := st.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum); err != nil {
		t.Fatal(err)
	}

	srv, err := st.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	out := string(body)

	for _, want := range []string{
		`grove_query_duration_seconds_bucket{kind="graph",le="+Inf"} 2`,
		`grove_query_duration_seconds_count{kind="graph"} 2`,
		`grove_query_duration_seconds_count{kind="pathagg"} 1`,
		"grove_io_bitmap_fetches_total",
		"grove_store_records 3",
		"grove_traces_recorded_total 3",
		"# TYPE grove_query_duration_seconds histogram",
		"# TYPE grove_io_bitmap_fetches_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	// Every sample line must parse as `name value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
	}

	// /traces serves the ring as JSON, newest first.
	resp, err = http.Get("http://" + srv.Addr() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d", len(traces))
	}
	if traces[0].Kind != "pathagg" || traces[1].Kind != "graph" {
		t.Errorf("trace order = %s, %s, %s", traces[0].Kind, traces[1].Kind, traces[2].Kind)
	}
	// Both runs of the repeated query plan, fetch and intersect.
	for _, tr := range traces[1:] {
		var phases []string
		for _, s := range tr.Spans {
			phases = append(phases, s.Phase)
		}
		if got := strings.Join(phases, ","); got != "plan,fetch,intersect" {
			t.Errorf("graph trace spans = %s, want plan,fetch,intersect", got)
		}
	}

	assertIOMetricsMatchSnapshot(t, st)
}

// assertIOMetricsMatchSnapshot runs a graph query, an aggregate, a batch and
// an EXPLAIN ANALYZE, then requires each grove_io_* sample to equal the
// matching IOStatsSnapshot field: /metrics and the snapshot read one set of
// counters, whenever the registry was created.
func assertIOMetricsMatchSnapshot(t *testing.T, st *Store) {
	t.Helper()
	g := PathOf("A", "D", "E").ToGraph()
	if _, err := st.Match(g); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Aggregate(PathOf("A", "D", "E", "G", "I").ToGraph(), Sum); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExecuteBatch([]*Graph{g, PathOf("A", "B").ToGraph()}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ExplainAnalyze(g); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := st.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	io := st.IOStatsSnapshot()
	if io.BitmapColumnsFetched == 0 || io.MeasuresScanned == 0 || io.RecordsReturned == 0 {
		t.Fatalf("workload accounted no I/O: %+v", io)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{MetricIOBitmapFetches, io.BitmapColumnsFetched},
		{MetricIOMeasureFetches, io.MeasureColumnsFetched},
		{MetricIOMeasuresScanned, io.MeasuresScanned},
		{MetricIOBytesRead, io.BytesRead},
		{MetricIOPartitionJoins, io.PartitionJoins},
		{MetricIORecordsReturned, io.RecordsReturned},
	} {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(c.name) + ` (\S+)$`).FindStringSubmatch(out)
		if m == nil {
			t.Errorf("/metrics has no %s sample", c.name)
			continue
		}
		if got, err := strconv.ParseFloat(m[1], 64); err != nil || got != float64(c.want) {
			t.Errorf("%s = %s, IOStatsSnapshot has %d", c.name, m[1], c.want)
		}
	}
}

// tracedQueryExtraAllocs is how many objects tracing adds to one
// single-shard Match. Most are the query text the trace renders for the
// fresh query each Match builds: one strings.Builder pass over the elements,
// whose buffer grows a few times, and the cached string's box; the active
// trace and its span array come from a pool and the ring slot's own arrays.
// ROADMAP item 1's target is zero: a traced query should cost what an
// untraced one does, plus clock reads.
const tracedQueryExtraAllocs = 4

// TestTracedQueryAllocations is the clock-free companion of
// TestObsOverheadSmoke: it pins the objects a traced single-shard Match
// allocates beyond an untraced one, so a change that makes tracing allocate
// more fails here deterministically instead of as timing noise.
func TestTracedQueryAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops a random 1/4 of Puts under the race detector, so allocation counts are nondeterministic")
	}
	off, on := Open(), Open()
	loadSCMOrders(t, off)
	loadSCMOrders(t, on)
	on.EnableTracing(4)
	g := PathOf("A", "D", "E").ToGraph()
	match := func(st *Store) func() {
		return func() {
			if _, err := st.Match(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both stores so scratch pools are paid up front.
	for i := 0; i < 5; i++ {
		match(off)()
		match(on)()
	}
	baseline := testing.AllocsPerRun(200, match(off))
	traced := testing.AllocsPerRun(200, match(on))
	extra := traced - baseline
	if extra > tracedQueryExtraAllocs {
		t.Errorf("tracing adds %.1f allocations per Match (%.1f vs %.1f untraced), pinned at %d",
			extra, traced, baseline, tracedQueryExtraAllocs)
	} else if extra < tracedQueryExtraAllocs {
		t.Logf("tracing adds %.1f allocations per Match, below the pin of %d: lower the pin", extra, tracedQueryExtraAllocs)
	}
}

// TestExplainAnalyzeThroughStore is the EXPLAIN ANALYZE acceptance criterion
// at the public API: a view-rewritten query's observed bitmap-fetch count
// equals the plan's BitmapsFetched, with per-phase wall time reported.
func TestExplainAnalyzeThroughStore(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.MaterializeView("vADE", PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	g := PathOf("A", "D", "E", "G").ToGraph()
	a, err := st.ExplainAnalyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Plan.Views) != 1 || a.Plan.Views[0] != "vADE" {
		t.Fatalf("plan = %+v", a.Plan)
	}
	if got, want := a.Trace.IO.BitmapColumnsFetched, int64(a.Plan.BitmapsFetched); got != want {
		t.Errorf("observed fetches = %d, plan predicts %d", got, want)
	}
	if a.Records != 2 {
		t.Errorf("records = %d", a.Records)
	}
	if !strings.Contains(a.String(), "observed:") {
		t.Errorf("rendering missing observation:\n%s", a.String())
	}
}

func TestViewUsageThroughStore(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.MaterializeView("vADE", PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if n := len(st.Stats().ViewUsage); n != 1 {
		t.Fatalf("usage entries = %d", n)
	}
	if st.Stats().ViewUsage["vADE"] != 0 {
		t.Errorf("unused view has uses = %d", st.Stats().ViewUsage["vADE"])
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Match(PathOf("A", "D", "E", "G").ToGraph()); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().ViewUsage["vADE"]; got != 3 {
		t.Errorf("view uses = %d, want 3", got)
	}
}

// TestStoreQueryIsTracedAsStatement: an executed statement is traced under
// its query class with the text that parses back to it; the trace opens on
// planning, since the caller parsed.
func TestStoreQueryIsTracedAsStatement(t *testing.T) {
	st := buildSCMStore(t)
	st.EnableTracing(2)
	stmt := Scalar(AggregateAlong(Max, OpenPath("A", "D", "E"), ""))
	if _, err := st.Execute(context.Background(), stmt); err != nil {
		t.Fatal(err)
	}
	traces := st.RecentTraces()
	if len(traces) != 1 || traces[0].Kind != "pathagg" || traces[0].Query != "SCALAR MAX {[A,D] [D,E]} ALONG (A,D,E)" {
		t.Fatalf("traces = %+v", traces)
	}
	if back, err := Parse(traces[0].Query); err != nil || back.String() != stmt.String() {
		t.Errorf("trace text parses to %v, %v", back, err)
	}
	if traces[0].Spans[0].Phase != "plan" {
		t.Errorf("first phase = %q", traces[0].Spans[0].Phase)
	}
	st.DisableTracing()
	if st.RecentTraces() != nil {
		t.Error("traces survive disabling")
	}
}

// ExampleStore_ExplainAnalyze shows the EXPLAIN ANALYZE surface end to end.
func ExampleStore_ExplainAnalyze() {
	st := Open()
	rec := NewRecord()
	rec.SetEdge("A", "D", 2)
	rec.SetEdge("D", "E", 2)
	st.Add(rec)
	a, _ := st.ExplainAnalyze(PathOf("A", "D", "E").ToGraph())
	fmt.Println("bitmaps fetched:", a.Trace.IO.BitmapColumnsFetched)
	fmt.Println("records:", a.Records)
	// Output:
	// bitmaps fetched: 2
	// records: 1
}
