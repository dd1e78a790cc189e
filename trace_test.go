package grove

import (
	"math"
	"strings"
	"testing"
)

const sampleTraces = `{"edges":[{"from":"A","to":"D","measure":3.5,"measures":{"cost":40}},{"from":"D","to":"E","measure":1.5}],"nodes":[{"id":"D","measure":0.5}],"tags":{"type":"fast-track"}}
{"edges":[{"from":"A","to":"D","measure":4.0},{"from":"D","to":"E"}]}

{"edges":[{"from":"A","to":"B","measure":1},{"from":"B","to":"A","measure":2}]}
`

func TestImportTraces(t *testing.T) {
	st := Open()
	n, err := st.ImportTraces(strings.NewReader(sampleTraces))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("imported %d, want 3", n)
	}
	// Records 0 and 1 contain the path; record 0 sums edges 3.5+1.5 plus
	// node D's 0.5 (closed path), record 1 has a NULL (D,E) leg.
	agg, err := st.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.RecordIDs) != 2 || agg.Values[0][0] != 5.5 {
		t.Fatalf("SUM = %v over %v", agg.Values, agg.RecordIDs)
	}
	if !math.IsNaN(agg.Values[0][1]) {
		t.Fatalf("record 1 should be NULL, got %v", agg.Values[0][1])
	}
	cost, err := aggOn(st, PathOf("A", "D").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if cost.Values[0][0] != 40 {
		t.Errorf("cost = %v", cost.Values[0][0])
	}
	if got := st.TaggedWith("type", "fast-track").ToSlice(); len(got) != 1 || got[0] != 0 {
		t.Errorf("tag = %v", got)
	}
	// Record 2 was cyclic (A→B→A) and must be flattened.
	res, err := st.Match(PathOf("B", "A#2").ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() != 1 {
		t.Error("cyclic trace not flattened")
	}
}

func TestImportTracesErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       "{not json}\n",
		"empty record":   `{"edges":[]}` + "\n",
		"empty endpoint": `{"edges":[{"from":"","to":"B"}]}` + "\n",
		"empty node id":  `{"nodes":[{"id":""}],"edges":[{"from":"A","to":"B"}]}` + "\n",
	}
	for name, input := range cases {
		st := Open()
		if _, err := st.ImportTraces(strings.NewReader(input)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Good line then bad line: first record stays imported.
	st := Open()
	n, err := st.ImportTraces(strings.NewReader(
		`{"edges":[{"from":"A","to":"B","measure":1}]}` + "\n{oops}\n"))
	if err == nil {
		t.Fatal("bad second line accepted")
	}
	if n != 1 || st.NumRecords() != 1 {
		t.Errorf("partial import: n=%d records=%d", n, st.NumRecords())
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	st := Open()
	if _, err := st.ImportTraces(strings.NewReader(sampleTraces)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := st.ExportTraces(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("exported %d", n)
	}
	st2 := Open()
	if _, err := st2.ImportTraces(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if st2.NumRecords() != st.NumRecords() || st2.Stats().DistinctEdges != st.Stats().DistinctEdges {
		t.Fatalf("round trip: records %d vs %d, edges %d vs %d",
			st2.NumRecords(), st.NumRecords(), st2.Stats().DistinctEdges, st.Stats().DistinctEdges)
	}
	// Measures and tags survive.
	agg, err := aggOn(st2, PathOf("A", "D").ToGraph(), Sum, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Values[0][0] != 40 {
		t.Errorf("cost after round trip = %v", agg.Values[0][0])
	}
	if st2.TaggedWith("type", "fast-track").Cardinality() != 1 {
		t.Error("tag lost in round trip")
	}
}
