package colstore

import (
	"math/rand"
	"testing"
)

func TestSetPartitionMapValidation(t *testing.T) {
	r := NewRelation(2)
	if err := r.SetPartitionMap(map[EdgeID]int{1: -1}); err == nil {
		t.Error("negative partition accepted")
	}
	if err := r.SetPartitionMap(map[EdgeID]int{1: 0, 2: 0, 3: 0}); err == nil {
		t.Error("over-capacity partition accepted")
	}
	if err := r.SetPartitionMap(map[EdgeID]int{1: 0, 2: 0}); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if got := r.PartitionOf(1); got != 0 {
		t.Errorf("PartitionOf(1) = %d", got)
	}
	// Unmapped edges fall back to the default rule.
	if got := r.PartitionOf(7); got != 3 {
		t.Errorf("PartitionOf(7) fallback = %d, want 3", got)
	}
	if err := r.SetPartitionMap(nil); err != nil {
		t.Errorf("reset rejected: %v", err)
	}
	if got := r.PartitionOf(1); got != 0 {
		t.Errorf("PartitionOf(1) after reset = %d", got)
	}
}

func TestClusterPartitionsCoLocatesQueries(t *testing.T) {
	r := NewRelation(4)
	appendEdges(r, edgeRange(0, 12)...)
	// Two queries whose edges are spread across the default partitioning:
	// q1 = {0, 5, 10}, q2 = {1, 6, 11}.
	q1 := []EdgeID{0, 5, 10}
	q2 := []EdgeID{1, 6, 11}
	if span := r.PartitionSpan(q1); span != 3 {
		t.Fatalf("default span = %d, want 3", span)
	}
	if _, err := r.ClusterPartitions([][]EdgeID{q1, q2}); err != nil {
		t.Fatal(err)
	}
	if span := r.PartitionSpan(q1); span != 1 {
		t.Errorf("clustered span(q1) = %d, want 1", span)
	}
	if span := r.PartitionSpan(q2); span != 1 {
		t.Errorf("clustered span(q2) = %d, want 1", span)
	}
}

func TestClusterPartitionsRespectsCapacity(t *testing.T) {
	r := NewRelation(3)
	appendEdges(r, edgeRange(0, 10)...)
	// A query wider than one partition must spill, not overflow.
	wide := []EdgeID{0, 1, 2, 3, 4, 5, 6}
	if _, err := r.ClusterPartitions([][]EdgeID{wide}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for e := EdgeID(0); e < 10; e++ {
		counts[r.PartitionOf(e)]++
	}
	for p, n := range counts {
		if n > 3 {
			t.Errorf("partition %d holds %d > 3 columns", p, n)
		}
	}
	if span := r.PartitionSpan(wide); span > 3 {
		t.Errorf("wide query span = %d after clustering", span)
	}
}

func TestClusterPartitionsNeverWorseOnWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := NewRelation(10)
	appendEdges(r, edgeRange(0, 100)...)
	var workload [][]EdgeID
	for i := 0; i < 20; i++ {
		var q []EdgeID
		for j := 0; j < 2+rng.Intn(6); j++ {
			q = append(q, EdgeID(rng.Intn(100)))
		}
		workload = append(workload, q)
	}
	before := 0
	for _, q := range workload {
		before += r.PartitionSpan(q)
	}
	if _, err := r.ClusterPartitions(workload); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, q := range workload {
		after += r.PartitionSpan(q)
	}
	if after > before {
		t.Errorf("clustering increased total span: %d -> %d", before, after)
	}
	// Every edge must still be assigned somewhere valid.
	for e := EdgeID(0); e < 100; e++ {
		if r.PartitionOf(e) < 0 {
			t.Fatalf("edge %d unassigned", e)
		}
	}
}
