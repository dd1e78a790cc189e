package mine

import (
	"math/rand"
	"testing"

	"grove/internal/graph"
)

func chainRecord(t *testing.T, nodes ...string) *graph.Record {
	t.Helper()
	r := graph.NewRecord()
	for i := 0; i+1 < len(nodes); i++ {
		if err := r.SetEdge(nodes[i], nodes[i+1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestMineFrequentSingleEdges(t *testing.T) {
	records := []*graph.Record{
		chainRecord(t, "A", "B", "C"),
		chainRecord(t, "A", "B", "D"),
		chainRecord(t, "X", "Y"),
	}
	frags, err := MineFrequent(records, Config{MinSupport: 2, MaxEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only (A,B) occurs in ≥2 records.
	if len(frags) != 1 || frags[0].Edges[0] != graph.E("A", "B") || frags[0].Support != 2 {
		t.Fatalf("fragments = %+v", frags)
	}
}

func TestMineFrequentGrowsConnected(t *testing.T) {
	records := []*graph.Record{
		chainRecord(t, "A", "B", "C", "D"),
		chainRecord(t, "A", "B", "C", "E"),
		chainRecord(t, "A", "B", "C", "F"),
	}
	frags, err := MineFrequent(records, Config{MinSupport: 3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, f := range frags {
		keys[f.Key()] = f.Support
	}
	// (A,B), (B,C) and the 2-edge chain (A,B)(B,C) all have support 3.
	if keys["(A,B)"] != 3 || keys["(B,C)"] != 3 {
		t.Fatalf("single-edge supports wrong: %v", keys)
	}
	if keys["(A,B)(B,C)"] != 3 {
		t.Fatalf("chain fragment missing: %v", keys)
	}
	// Nothing of size 3 is frequent (the third edges differ).
	for _, f := range frags {
		if f.Size() >= 3 {
			t.Fatalf("unexpected size-3 fragment %s", f.Key())
		}
	}
}

// TestMineFrequentGrowsBothWays: a fragment extends through its nodes'
// in-edges and node elements as well as their out-edges. Two edges into one
// node, or an edge and a measured node, are only reachable that way.
func TestMineFrequentGrowsBothWays(t *testing.T) {
	var records []*graph.Record
	for i := 0; i < 3; i++ {
		r := chainRecord(t, "X", "Z")
		if err := r.SetEdge("Y", "Z", 1); err != nil {
			t.Fatal(err)
		}
		if err := r.SetNode("X", 2); err != nil {
			t.Fatal(err)
		}
		records = append(records, r)
	}
	frags, err := MineFrequent(records, Config{MinSupport: 3, MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, f := range frags {
		keys[f.Key()] = f.Support
	}
	for _, want := range []string{"(X,Z)(Y,Z)", "[X](X,Z)"} {
		if keys[want] != 3 {
			t.Errorf("fragment %s missing: %v", want, keys)
		}
	}
}

func TestMineFrequentConnectivity(t *testing.T) {
	// (A,B) and (X,Y) co-occur but are disconnected: no 2-edge fragment.
	records := []*graph.Record{
		chainRecord(t, "A", "B"),
		chainRecord(t, "A", "B"),
	}
	for _, r := range records {
		if err := r.SetEdge("X", "Y", 1); err != nil {
			t.Fatal(err)
		}
	}
	frags, err := MineFrequent(records, Config{MinSupport: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.Size() > 1 {
			t.Fatalf("disconnected fragment grown: %s", f.Key())
		}
	}
}

func TestMineFrequentValidation(t *testing.T) {
	if _, err := MineFrequent(nil, Config{MinSupport: 0, MaxEdges: 1}); err == nil {
		t.Error("MinSupport=0 accepted")
	}
	if _, err := MineFrequent(nil, Config{MinSupport: 1, MaxEdges: 0}); err == nil {
		t.Error("MaxEdges=0 accepted")
	}
}

func TestMineFragmentCap(t *testing.T) {
	var records []*graph.Record
	for i := 0; i < 3; i++ {
		records = append(records, chainRecord(t, "A", "B", "C", "D", "E", "F", "G", "H"))
	}
	if _, err := MineFrequent(records, Config{MinSupport: 2, MaxEdges: 7, MaxFragments: 5}); err == nil {
		t.Error("fragment cap not enforced")
	}
}

func TestSelectDiscriminative(t *testing.T) {
	// 10 records with (A,B); of those, 9 also have (B,C); only 2 have the
	// pair (A,B),(B,C) plus (C,D).
	var records []*graph.Record
	for i := 0; i < 10; i++ {
		nodes := []string{"A", "B"}
		if i < 9 {
			nodes = append(nodes, "C")
		}
		if i < 2 {
			nodes = append(nodes, "D")
		}
		records = append(records, chainRecord(t, nodes...))
	}
	frags, err := MineFrequent(records, Config{MinSupport: 2, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	kept := SelectDiscriminative(frags, len(records), 2.0)
	keys := map[string]bool{}
	for _, f := range kept {
		keys[f.Key()] = true
	}
	// (A,B)(B,C) has support 9 against a 10-record sample: ratio 10/9 < 2 →
	// NOT discriminative.
	if keys["(A,B)(B,C)"] {
		t.Error("non-discriminative fragment kept")
	}
	// (B,C)(C,D) has support 2 against the sample: ratio 5 ≥ 2 → kept.
	if !keys["(B,C)(C,D)"] {
		t.Errorf("discriminative fragment dropped; kept=%v", keys)
	}
	// The 3-edge chain is redundant with the kept (B,C)(C,D): base 2,
	// support 2, ratio 1 → dropped.
	if keys["(A,B)(B,C)(C,D)"] {
		t.Errorf("redundant superset fragment kept; kept=%v", keys)
	}
	// Size-1 fragments never selected.
	for _, f := range kept {
		if f.Size() < 2 {
			t.Error("single edge selected as fragment")
		}
	}
}

func TestSelectDiscriminativeGammaFloor(t *testing.T) {
	records := []*graph.Record{
		chainRecord(t, "A", "B", "C"),
		chainRecord(t, "A", "B", "C"),
	}
	frags, err := MineFrequent(records, Config{MinSupport: 2, MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	// gamma < 1 is clamped to 1: with ratio exactly 1 everything passes.
	kept := SelectDiscriminative(frags, 2, 0)
	if len(kept) == 0 {
		t.Error("gamma floor dropped everything")
	}
}

func TestMineOnRandomRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	names := []string{"A", "B", "C", "D", "E", "F"}
	var records []*graph.Record
	for i := 0; i < 100; i++ {
		r := graph.NewRecord()
		for j := 0; j < 4+rng.Intn(4); j++ {
			a, b := names[rng.Intn(6)], names[rng.Intn(6)]
			if a == b {
				continue
			}
			if err := r.SetEdge(a, b, 1); err != nil {
				t.Fatal(err)
			}
		}
		records = append(records, r)
	}
	frags, err := MineFrequent(records, Config{MinSupport: 10, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every reported support must be exact.
	for _, f := range frags {
		count := 0
		for _, r := range records {
			all := true
			for _, e := range f.Edges {
				if !r.HasElement(e) {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		if count != f.Support {
			t.Fatalf("fragment %s support %d, brute force %d", f.Key(), f.Support, count)
		}
		if count < 10 {
			t.Fatalf("fragment %s below MinSupport", f.Key())
		}
	}
}
