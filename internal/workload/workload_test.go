package workload

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"grove/internal/graph"
	"grove/internal/query"
)

func TestRoadNetworkShape(t *testing.T) {
	n := NewRoadNetwork(1000)
	if n.NumNodes() == 0 {
		t.Fatal("empty network")
	}
	// Edge count should be near the target (within a factor of 2).
	if n.NumEdges() < 500 || n.NumEdges() > 2000 {
		t.Errorf("NumEdges = %d, want ≈1000", n.NumEdges())
	}
	// Forward orientation: every successor has a higher index.
	for i := int32(0); int(i) < n.NumNodes(); i++ {
		for _, s := range n.Successors(i) {
			if s <= i {
				t.Fatalf("edge %d→%d violates forward orientation", i, s)
			}
		}
	}
}

func TestRoadNetworkTinyTarget(t *testing.T) {
	n := NewRoadNetwork(1)
	if n.NumNodes() < 4 || n.NumEdges() == 0 {
		t.Errorf("tiny network: nodes=%d edges=%d", n.NumNodes(), n.NumEdges())
	}
}

func TestP2PNetworkShape(t *testing.T) {
	n := NewP2PNetwork(1000, 1)
	if n.NumEdges() < 500 || n.NumEdges() > 2000 {
		t.Errorf("NumEdges = %d, want ≈1000", n.NumEdges())
	}
	for i := int32(0); int(i) < n.NumNodes(); i++ {
		for _, s := range n.Successors(i) {
			if s <= i {
				t.Fatalf("edge %d→%d violates forward orientation", i, s)
			}
		}
	}
	// Power-law-ish: the maximum forward degree should be well above the mean.
	maxDeg, sum := 0, 0
	for i := range n.adj {
		d := len(n.adj[i])
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(n.NumNodes())
	if float64(maxDeg) < 3*mean {
		t.Errorf("max degree %d vs mean %.1f: not heavy tailed", maxDeg, mean)
	}
}

func TestP2PNetworkDeterministic(t *testing.T) {
	a := NewP2PNetwork(500, 7)
	b := NewP2PNetwork(500, 7)
	if a.NumEdges() != b.NumEdges() || a.NumNodes() != b.NumNodes() {
		t.Fatal("same seed produced different networks")
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		if !slices.Equal(a.Successors(v), b.Successors(v)) {
			t.Fatalf("same seed wired node %d to %v, then to %v", v, a.Successors(v), b.Successors(v))
		}
	}
}

func TestRandomWalkIsForwardSimplePath(t *testing.T) {
	n := NewRoadNetwork(1000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		w := n.RandomWalk(rng, 20)
		if w == nil {
			continue
		}
		if len(w) > 21 {
			t.Fatalf("walk too long: %d", len(w))
		}
		seen := map[int32]bool{}
		for j, node := range w {
			if seen[node] {
				t.Fatal("walk revisits a node")
			}
			seen[node] = true
			if j > 0 && w[j-1] >= node {
				t.Fatal("walk not forward")
			}
		}
	}
}

func TestGeneratorRecordBounds(t *testing.T) {
	net := NewRoadNetwork(1000)
	gen, err := NewGenerator(net, 35, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rec, err := gen.NextRecord()
		if err != nil {
			t.Fatal(err)
		}
		n := rec.NumElements()
		if n < 1 || n > 100 {
			t.Fatalf("record %d has %d edges, want ≤ 100", i, n)
		}
		if rec.HasCycle() {
			t.Fatalf("record %d has a cycle despite forward orientation", i)
		}
		if rec.NumMeasures() != n {
			t.Fatalf("record %d: %d measures for %d edges", i, rec.NumMeasures(), n)
		}
	}
}

func TestGeneratorValidatesBounds(t *testing.T) {
	net := NewRoadNetwork(100)
	if _, err := NewGenerator(net, 0, 5, 1); err == nil {
		t.Error("minEdges=0 accepted")
	}
	if _, err := NewGenerator(net, 10, 5, 1); err == nil {
		t.Error("max<min accepted")
	}
	if _, err := NewGenerator(nil, 1, 5, 1); err == nil {
		t.Error("nil network accepted")
	}
}

func TestQueryPathSizes(t *testing.T) {
	net := NewRoadNetwork(1000)
	gen, err := NewGenerator(net, 35, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 3, 6} {
		nodes := gen.QueryPath(want)
		if len(nodes) < 2 {
			t.Fatalf("QueryPath(%d) = %v", want, nodes)
		}
		if len(nodes)-1 > want {
			t.Fatalf("QueryPath(%d) returned %d edges", want, len(nodes)-1)
		}
	}
}

func TestQueryGraphSize(t *testing.T) {
	net := NewRoadNetwork(1000)
	gen, err := NewGenerator(net, 35, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 5, 30} {
		g := gen.QueryGraph(want)
		if g.NumElements() < 1 {
			t.Fatalf("QueryGraph(%d) empty", want)
		}
		if g.NumElements() > want+12 {
			t.Fatalf("QueryGraph(%d) has %d edges", want, g.NumElements())
		}
	}
}

func TestZipfQueriesRepeat(t *testing.T) {
	net := NewRoadNetwork(1000)
	gen, err := NewGenerator(net, 35, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	qs := gen.ZipfQueries(100, 50, 4, true)
	if len(qs) != 100 {
		t.Fatalf("got %d queries", len(qs))
	}
	distinct := map[string]bool{}
	for _, q := range qs {
		key := ""
		for _, e := range q.Elements() {
			key += e.String()
		}
		distinct[key] = true
	}
	// Zipf skew must produce repeats: far fewer distinct than drawn.
	if len(distinct) > 80 {
		t.Errorf("%d distinct queries out of 100: no skew", len(distinct))
	}
}

func TestBuildDatasetStats(t *testing.T) {
	ds, err := Build(DatasetSpec{
		Name: "T", EdgeDomain: 500, NumRecords: 200,
		MinEdges: 10, MaxEdges: 30, Seed: 1, KeepRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Stats
	if s.NumRecords != 200 {
		t.Errorf("NumRecords = %d", s.NumRecords)
	}
	if s.MinEdgesPerRec < 1 || s.MaxEdgesPerRec > 30 {
		t.Errorf("edge bounds = [%d,%d]", s.MinEdgesPerRec, s.MaxEdgesPerRec)
	}
	if s.AvgEdgesPerRec < float64(s.MinEdgesPerRec) || s.AvgEdgesPerRec > float64(s.MaxEdgesPerRec) {
		t.Errorf("avg %v outside [min,max]", s.AvgEdgesPerRec)
	}
	if s.TotalMeasures == 0 || s.SizeBytes == 0 {
		t.Error("empty stats")
	}
	if s.DistinctEdges == 0 || s.DistinctEdges > 2*500 {
		t.Errorf("DistinctEdges = %d", s.DistinctEdges)
	}
	if len(ds.Records) != 200 {
		t.Errorf("kept %d records", len(ds.Records))
	}
}

func TestBuildDense(t *testing.T) {
	ds, err := BuildDense("D", 200, 50, 0.2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.2 * 200)
	if ds.Stats.MaxEdgesPerRec > want || ds.Stats.MinEdgesPerRec < want/2 {
		t.Errorf("dense records: min=%d max=%d want ≈%d",
			ds.Stats.MinEdgesPerRec, ds.Stats.MaxEdgesPerRec, want)
	}
	if _, err := BuildDense("D", 200, 10, 0.001, 2, false); err == nil {
		t.Error("absurd density accepted")
	}
}

func TestDatasetQueriesHaveAnswers(t *testing.T) {
	ds, err := Build(DatasetSpec{
		Name: "T", EdgeDomain: 500, NumRecords: 500,
		MinEdges: 20, MaxEdges: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(ds.Rel, ds.Reg)
	queries := ds.Gen.UniformPathQueries(50, 2, 4)
	nonEmpty := 0
	for _, qg := range queries {
		res, err := eng.ExecuteGraphQueryContext(context.Background(), query.NewGraphQuery(qg))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRecords() > 0 {
			nonEmpty++
		}
	}
	// Queries are drawn from the record-generating walks, so a healthy
	// fraction must match stored records.
	if nonEmpty < 10 {
		t.Errorf("only %d/50 queries matched anything", nonEmpty)
	}
}

func TestDatasetRecordsMatchRelation(t *testing.T) {
	ds, err := Build(DatasetSpec{
		Name: "T", EdgeDomain: 300, NumRecords: 100,
		MinEdges: 5, MaxEdges: 15, Seed: 4, KeepRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range ds.Records {
		for _, k := range rec.Elements() {
			id, ok := ds.Reg.Lookup(k)
			if !ok {
				t.Fatalf("record %d element %s unregistered", i, k)
			}
			if !ds.Rel.EdgeBitmap(id).Contains(uint32(i)) {
				t.Fatalf("record %d bit unset for %s", i, k)
			}
			m := rec.Measure(k)
			v, has := ds.Rel.MeasureColumn(id).Get(uint32(i))
			if !has || v != m.Value {
				t.Fatalf("record %d measure mismatch for %s", i, k)
			}
		}
	}
	_ = graph.NewGraph() // keep import for clarity of fixture types
}

func TestGeneratorDeterminism(t *testing.T) {
	build := func() []string {
		net := NewRoadNetwork(500)
		gen, err := NewGenerator(net, 10, 20, 77)
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for i := 0; i < 20; i++ {
			rec, err := gen.NextRecord()
			if err != nil {
				t.Fatal(err)
			}
			sig := ""
			for _, k := range rec.Elements() {
				sig += k.String()
			}
			sigs = append(sigs, sig)
		}
		return sigs
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between identically-seeded runs", i)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s1, err := Build(NYSpec(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(NYSpec(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats.TotalMeasures != s2.Stats.TotalMeasures ||
		s1.Stats.DistinctEdges != s2.Stats.DistinctEdges {
		t.Fatalf("same-seed builds differ: %+v vs %+v", s1.Stats, s2.Stats)
	}
}
