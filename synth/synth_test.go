package synth

import (
	"testing"

	"grove"
)

func TestNYDataset(t *testing.T) {
	ds, err := NY(Config{Records: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Store.NumRecords() != 300 {
		t.Fatalf("records = %d", ds.Store.NumRecords())
	}
	if edges := ds.Store.Stats().DistinctEdges; edges == 0 || edges > 2000 {
		t.Fatalf("edge domain = %d", edges)
	}
	if ds.Describe() == "" {
		t.Error("empty description")
	}
	// Queries drawn from the walks must hit stored records.
	nonEmpty := 0
	for _, g := range ds.UniformPathQueries(30, 2, 4) {
		res, err := ds.Store.Match(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRecords() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 5 {
		t.Errorf("only %d/30 queries matched", nonEmpty)
	}
}

func TestGNUDataset(t *testing.T) {
	ds, err := GNU(Config{Records: 200, EdgeDomain: 500, MinEdges: 10, MaxEdges: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Store.NumRecords() != 200 {
		t.Fatalf("records = %d", ds.Store.NumRecords())
	}
	if path := ds.QueryPath(3); len(path) < 2 {
		t.Errorf("QueryPath = %v", path)
	}
	if qs := ds.ZipfQueries(20, 5, 4, true); len(qs) != 20 {
		t.Errorf("ZipfQueries = %d", len(qs))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NY(Config{}); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := GNU(Config{Records: -1}); err == nil {
		t.Error("negative records accepted")
	}
}

func TestEndToEndWithViews(t *testing.T) {
	ds, err := NY(Config{Records: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	workload := ds.UniformPathQueries(20, 3, 6)
	names, err := ds.Store.MaterializeAggViews(workload, grove.Sum, 10, grove.AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("advisor selected nothing")
	}
	for _, g := range workload[:5] {
		if _, err := ds.Store.Aggregate(g, grove.Sum); err != nil {
			t.Fatal(err)
		}
	}
}
