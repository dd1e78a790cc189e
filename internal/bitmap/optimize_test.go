package bitmap_test

import (
	"fmt"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/shard"
	"grove/internal/workload"
)

// TestOptimizePicksSmallestLayout builds a 1-shard and a 4-shard store from
// the same 2 000 NY-generator records and optimizes them: every container of
// every edge bitmap and presence bitmap must then be the smallest of its
// array, range-sized bitset and run forms. Both stores must hold bitsets —
// the dense columns — for the check to mean something.
func TestOptimizePicksSmallestLayout(t *testing.T) {
	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	co1, co4 := shard.New(1, 0), shard.New(4, 0)
	for i := 0; i < 2000; i++ {
		rec, err := gen.NextRecord()
		if err != nil {
			t.Fatal(err)
		}
		co1.Add(rec)
		co4.Add(rec)
	}
	for _, co := range []*shard.Coordinator{co1, co4} {
		co.Optimize()
		layouts := map[string]int{}
		check := func(what string, b *bitmap.Bitmap) {
			for i, c := range bitmap.ContainerLayouts(b) {
				layouts[c.Layout]++
				if c.Held != c.Smallest {
					t.Errorf("%d shards, %s, container %d: a %s of %d bytes, smallest form %d", co.NumShards(), what, i, c.Layout, c.Held, c.Smallest)
				}
			}
		}
		for s := 0; s < co.NumShards(); s++ {
			rel := co.Unit(s).Rel
			for _, e := range rel.Edges() {
				check(fmt.Sprintf("shard %d edge %d", s, e), rel.EdgeBitmap(e))
				if m := rel.MeasureColumn(e); m != nil {
					check(fmt.Sprintf("shard %d edge %d presence", s, e), m.Present())
				}
			}
		}
		t.Logf("%d shards: %v", co.NumShards(), layouts)
		if layouts["bitset"] == 0 {
			t.Errorf("%d shards: no bitset among %v", co.NumShards(), layouts)
		}
	}
}
