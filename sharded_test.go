package grove

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadSCMOrders adds the Fig. 1 supply-chain orders (plus a few variants so
// every shard of a 4-way store holds records) into st and returns the count.
// scmOrders are loadSCMOrders' records: each order's legs all carry its
// time, signed zero and a negative value included.
var scmOrders = []struct {
	legs [][2]string
	time float64
}{
	{[][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}, {"G", "I"}}, 2},
	{[][2]string{{"A", "B"}, {"B", "F"}, {"F", "J"}, {"J", "K"}, {"C", "H"}, {"H", "K"}}, 3},
	{[][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}, {"G", "K"}}, 5},
	{[][2]string{{"A", "D"}, {"D", "E"}}, 0.25},
	{[][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}}, math.Copysign(0, -1)},
	{[][2]string{{"A", "B"}, {"B", "F"}}, -7.5},
	{[][2]string{{"C", "H"}, {"H", "K"}}, 11},
}

func loadSCMOrders(t *testing.T, st *Store) int {
	t.Helper()
	for i, o := range scmOrders {
		rec := NewRecord()
		for _, leg := range o.legs {
			if err := rec.SetEdge(leg[0], leg[1], o.time); err != nil {
				t.Fatal(err)
			}
		}
		if id := st.Add(rec); id != uint32(i) {
			t.Fatalf("order %d got id %d", i, id)
		}
	}
	return len(scmOrders)
}

func assertSameAgg(t *testing.T, label string, a, b *AggResult) {
	t.Helper()
	if !a.Answer.Equals(b.Answer) {
		t.Fatalf("%s: answers differ: %v vs %v", label, a.RecordIDs, b.RecordIDs)
	}
	if len(a.RecordIDs) != len(b.RecordIDs) {
		t.Fatalf("%s: %d vs %d records", label, len(a.RecordIDs), len(b.RecordIDs))
	}
	for i := range a.RecordIDs {
		if a.RecordIDs[i] != b.RecordIDs[i] {
			t.Fatalf("%s: record order differs at %d: %d vs %d", label, i, a.RecordIDs[i], b.RecordIDs[i])
		}
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d vs %d paths", label, len(a.Values), len(b.Values))
	}
	for p := range a.Values {
		for i := range a.Values[p] {
			// Bit-exact: NaN payloads and signed zeros must survive sharding.
			if math.Float64bits(a.Values[p][i]) != math.Float64bits(b.Values[p][i]) {
				t.Fatalf("%s: value[%d][%d] = %v vs %v", label, p, i, a.Values[p][i], b.Values[p][i])
			}
		}
	}
}

// TestShardedPublicDifferential runs the same workload through a single-shard
// and a 4-shard store at the public API and demands identical results.
func TestShardedPublicDifferential(t *testing.T) {
	one, four := Open(), NewSharded(4)
	loadSCMOrders(t, one)
	loadSCMOrders(t, four)
	if four.Stats().Shards != 4 {
		t.Fatalf("NumShards = %d", four.Stats().Shards)
	}
	for _, st := range []*Store{one, four} {
		if _, err := st.Delete(5); err != nil {
			t.Fatal(err)
		}
	}

	paths := [][]string{
		{"A", "D", "E"},
		{"A", "D", "E", "G"},
		{"A", "D", "E", "G", "I"},
		{"C", "H", "K"},
		{"X", "Y"}, // absent everywhere
	}
	for _, p := range paths {
		r1, err1 := one.Match(PathOf(p...).ToGraph())
		r4, err4 := four.Match(PathOf(p...).ToGraph())
		if (err1 == nil) != (err4 == nil) {
			t.Fatalf("Match(%v): %v vs %v", p, err1, err4)
		}
		if err1 != nil {
			continue
		}
		if !r1.Answer.Equals(r4.Answer) {
			t.Fatalf("Match(%v): %v vs %v", p, r1.Answer.ToSlice(), r4.Answer.ToSlice())
		}
		for _, f := range []AggFunc{Sum, Min, Max, Count} {
			a1, err1 := one.Aggregate(PathOf(p...).ToGraph(), f)
			a4, err4 := four.Aggregate(PathOf(p...).ToGraph(), f)
			if (err1 == nil) != (err4 == nil) {
				t.Fatalf("Aggregate(%v): %v vs %v", p, err1, err4)
			}
			if err1 == nil {
				assertSameAgg(t, "Aggregate", a1, a4)
			}
		}
	}

	e1, err := evalExpr(one, AndNot(Or(QPath("C", "H"), QPath("F", "J", "K")), QPath("E", "G")))
	if err != nil {
		t.Fatal(err)
	}
	e4, err := evalExpr(four, AndNot(Or(QPath("C", "H"), QPath("F", "J", "K")), QPath("E", "G")))
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Equals(e4) {
		t.Fatalf("Eval: %v vs %v", e1.ToSlice(), e4.ToSlice())
	}

	for _, text := range []string{
		"[A,D,E] AND NOT [A,B]",
		"SUM [A,D,E,G,I]",
	} {
		q1, err1 := queryText(one, text)
		q4, err4 := queryText(four, text)
		if (err1 == nil) != (err4 == nil) {
			t.Fatalf("Query(%q): %v vs %v", text, err1, err4)
		}
		if err1 != nil {
			continue
		}
		switch {
		case q1.IDs != nil:
			if q4.IDs == nil || !q1.IDs.Equals(q4.IDs) {
				t.Fatalf("Query(%q): id answers differ", text)
			}
		case q1.Agg != nil:
			if q4.Agg == nil {
				t.Fatalf("Query(%q): agg answer missing on sharded store", text)
			}
			assertSameAgg(t, text, q1.Agg, q4.Agg)
		}
	}

	// Batch fan-out merges per query index.
	graphs := []*Graph{
		PathOf("A", "D", "E").ToGraph(),
		PathOf("C", "H", "K").ToGraph(),
		PathOf("A", "B", "F").ToGraph(),
	}
	b1, err := one.ExecuteBatch(graphs, 2)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := four.ExecuteBatch(graphs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1 {
		if !b1[i].Answer.Equals(b4[i].Answer) {
			t.Fatalf("batch query %d differs", i)
		}
	}
	ab1, err := one.AggregateBatch(graphs, Sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	ab4, err := four.AggregateBatch(graphs, Sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ab1 {
		assertSameAgg(t, "agg batch", ab1[i], ab4[i])
	}

	// Tag readers see every shard's tag columns under global ids: the
	// records tagged here land on different shards of the 4-shard store.
	for _, st := range []*Store{one, four} {
		for id, v := range map[uint32]string{1: "y", 2: "x", 3: "x", 4: "y"} {
			if err := st.Tag(id, "lane", v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var x1, x4 bytes.Buffer
	n1, err := one.ExportTraces(&x1)
	if err != nil {
		t.Fatal(err)
	}
	n4, err := four.ExportTraces(&x4)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n4 || !bytes.Equal(x1.Bytes(), x4.Bytes()) {
		t.Fatalf("ExportTraces differs:\n1 shard (%d):\n%s4 shards (%d):\n%s", n1, x1.String(), n4, x4.String())
	}
	lanes := PathOf("A", "D", "E").ToGraph()
	sums := make([]map[string]Summary, 2)
	for i, st := range []*Store{one, four} {
		res, err := st.Aggregate(lanes, Sum)
		if err != nil {
			t.Fatal(err)
		}
		if sums[i], err = st.SummarizeByTag(res, "lane"); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sums[0], sums[1]) {
		t.Fatalf("SummarizeByTag: 1 shard %+v, 4 shards %+v", sums[0], sums[1])
	}
}

// TestShardedStatsAggregation is the satellite-4 regression: Stats and
// SizeBytes must aggregate across every shard, not report shard 0 alone.
func TestShardedStatsAggregation(t *testing.T) {
	st := NewSharded(4)
	n := loadSCMOrders(t, st)
	if _, err := st.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Tag(0, "tier", "gold"); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Shards != 4 {
		t.Fatalf("Stats.Shards = %d", stats.Shards)
	}
	if stats.Records != n || st.NumRecords() != n {
		t.Fatalf("Stats.Records = %d, want %d", stats.Records, n)
	}
	if stats.Deleted != 1 || st.Stats().Deleted != 1 {
		t.Fatalf("Stats.Deleted = %d", stats.Deleted)
	}
	if len(stats.TagKeys) != 1 || stats.TagKeys[0] != "tier" {
		t.Fatalf("Stats.TagKeys = %v", stats.TagKeys)
	}
	var sum, base int64
	for i := 0; i < 4; i++ {
		sum += st.coord.Unit(i).Rel.SizeBytes()
		base += st.coord.Unit(i).Rel.BaseSizeBytes()
	}
	if size := stats.BaseSizeBytes + stats.ViewSizeBytes; size != sum {
		t.Fatalf("payload size = %d, shard sum = %d", size, sum)
	}
	if stats.BaseSizeBytes != base {
		t.Fatalf("BaseSizeBytes = %d, shard sum = %d", stats.BaseSizeBytes, base)
	}
	if stats.TotalMeasures == 0 || stats.BaseSizeBytes == 0 {
		t.Fatalf("stats not aggregated: %+v", stats)
	}
}

// TestShardedMetricsAggregation scrapes /metrics on a 4-shard store: the
// store-level gauges must cover all shards, and the per-shard families must
// carry one labelled sample per shard that sums to the store totals.
func TestShardedMetricsAggregation(t *testing.T) {
	st := NewSharded(4)
	n := loadSCMOrders(t, st)
	// A query before the registry exists still counts toward grove_io_*.
	if _, err := st.Match(PathOf("A", "B").ToGraph()); err != nil {
		t.Fatal(err)
	}
	st.Metrics()
	for i := 0; i < 3; i++ {
		if _, err := st.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	st.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()

	for _, want := range []string{
		MetricStoreRecords + " " + strconv.Itoa(n),
		MetricStoreShards + " 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	sumFamily := func(name string) (total float64, samples int) {
		re := regexp.MustCompile(`^` + regexp.QuoteMeta(name) + `\{shard="(\d+)"\} (\S+)$`)
		for _, line := range strings.Split(out, "\n") {
			m := re.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			total += v
			samples++
		}
		return total, samples
	}

	if total, samples := sumFamily(MetricShardRecords); samples != 4 || total != float64(n) {
		t.Fatalf("%s: %d samples summing to %v, want 4 summing to %d\n%s",
			MetricShardRecords, samples, total, n, out)
	}
	if _, samples := sumFamily(MetricShardQueueDepth); samples != 4 {
		t.Fatalf("%s: %d samples, want 4", MetricShardQueueDepth, samples)
	}
	stats := st.Stats()
	size := stats.BaseSizeBytes + stats.ViewSizeBytes
	if total, samples := sumFamily(MetricShardSizeBytes); samples != 4 || total != float64(size) {
		t.Fatalf("%s: %d samples summing to %v, want %d", MetricShardSizeBytes, samples, total, size)
	}
	// 3 queries scattered over 4 shards: every shard waits once per query,
	// and the waits sum to the engine's graph sub-query count.
	if total, samples := sumFamily(MetricShardQueueWait + "_count"); samples != 4 || total != 12 ||
		!strings.Contains(out, `grove_query_duration_seconds_count{kind="graph"} 12`) {
		t.Fatalf("%s_count: %d samples summing to %v, want 4 summing to the 12 graph sub-queries\n%s",
			MetricShardQueueWait, samples, total, out)
	}

	assertIOMetricsMatchSnapshot(t, st)
}

// TestShardedStoreSaveLoadRoundTrip saves a sharded store through the public
// API and reloads it; a legacy single-shard directory must also keep loading.
func TestShardedStoreSaveLoadRoundTrip(t *testing.T) {
	st := NewSharded(3)
	n := loadSCMOrders(t, st)
	if _, err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Shards != 3 || got.NumRecords() != n || got.Stats().Deleted != 1 {
		t.Fatalf("loaded shards=%d records=%d deleted=%d", got.Stats().Shards, got.NumRecords(), got.Stats().Deleted)
	}
	want, err := st.Match(PathOf("A", "D", "E").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Match(PathOf("A", "D", "E").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equals(want.Answer) {
		t.Fatalf("reloaded answer = %v, want %v", res.Answer.ToSlice(), want.Answer.ToSlice())
	}
	if id := got.Add(NewRecord()); id != uint32(n) {
		t.Fatalf("post-load Add assigned id %d, want %d", id, n)
	}

	// Single-shard stores keep the legacy flat layout, loadable both ways.
	flat := Open()
	loadSCMOrders(t, flat)
	flatDir := t.TempDir()
	if err := flat.Save(flatDir); err != nil {
		t.Fatal(err)
	}
	reflat, err := LoadStore(flatDir)
	if err != nil {
		t.Fatal(err)
	}
	if reflat.Stats().Shards != 1 || reflat.NumRecords() != n {
		t.Fatalf("legacy reload: shards=%d records=%d", reflat.Stats().Shards, reflat.NumRecords())
	}
}
