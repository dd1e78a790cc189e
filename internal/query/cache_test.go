package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/graph"
)

func TestResultCacheHitsAndInvalidation(t *testing.T) {
	f := newFig2Fixture(t)
	cache := NewResultCache(16)
	f.eng.EnableCache(cache)

	q := pathQuery("A", "D", "E")
	first, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache() {
		t.Error("first execution served from cache")
	}
	second, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache() {
		t.Error("second execution missed the cache")
	}
	if !second.Answer.Equals(first.Answer) {
		t.Fatal("cached answer differs")
	}
	cs := cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses", cs.Hits, cs.Misses)
	}

	// A mutation invalidates: the next execution recomputes and must see
	// the new record.
	rec := graph.NewRecord()
	for _, e := range [][2]string{{"A", "D"}, {"D", "E"}} {
		if err := rec.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	graph.LoadRecord(f.rel, f.reg, rec)
	third, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if third.FromCache() {
		t.Error("stale cache served after mutation")
	}
	if third.NumRecords() != first.NumRecords()+1 {
		t.Errorf("answer after insert = %d, want %d",
			third.NumRecords(), first.NumRecords()+1)
	}
}

func TestResultCacheDeleteInvalidates(t *testing.T) {
	f := newFig2Fixture(t)
	f.eng.EnableCache(NewResultCache(16))
	q := pathQuery("A", "D", "E")
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rel.Delete(0); err != nil {
		t.Fatal(err)
	}
	res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache() {
		t.Error("cache survived a delete")
	}
	if res.Answer.Contains(0) {
		t.Error("deleted record in recomputed answer")
	}
}

func TestResultCacheCapacity(t *testing.T) {
	f := newFig2Fixture(t)
	cache := NewResultCache(2)
	f.eng.EnableCache(cache)
	queries := []*GraphQuery{
		pathQuery("A", "D"), pathQuery("D", "E"), pathQuery("E", "F"),
	}
	for _, q := range queries {
		if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2 with 3 distinct queries: at most 2 live entries; re-running
	// all three yields at least one hit and no wrong answers.
	hitsBefore := cache.Stats().Hits
	for _, q := range queries {
		res, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		f.eng.EnableCache(nil)
		fresh, err := f.eng.ExecuteGraphQueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		f.eng.EnableCache(cache)
		if !res.Answer.Equals(fresh.Answer) {
			t.Fatalf("cached answer wrong for %s", q)
		}
	}
	hitsAfter := cache.Stats().Hits
	if hitsAfter <= hitsBefore {
		t.Error("no cache hits on re-run")
	}
}

func TestResultCacheDefaultCapacity(t *testing.T) {
	c := NewResultCache(0)
	if c.capacity != 256 {
		t.Errorf("default capacity = %d", c.capacity)
	}
}

// TestResultCacheLRUEviction drives three same-shard keys through the real
// put/get path: the entry refreshed by a get must survive eviction, the
// least recently used one must go.
func TestResultCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2 * defaultCacheShards) // per-shard capacity 2
	target := c.shard(cacheKey([]colstore.EdgeID{0}))
	keys := make([]string, 0, 3)
	for i := 0; len(keys) < 3 && i < 1<<16; i++ {
		k := cacheKey([]colstore.EdgeID{colstore.EdgeID(i)})
		if c.shard(k) == target {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("could not find three keys in one shard")
	}
	ans := bitmap.FromSlice([]uint32{1})
	c.put(1, keys[0], ans)
	c.put(1, keys[1], ans)
	c.get(1, keys[0]) // refresh keys[0]: the LRU victim is now keys[1]
	c.put(1, keys[2], ans)
	if c.get(1, keys[0]) == nil {
		t.Error("recently used entry evicted")
	}
	if c.get(1, keys[1]) != nil {
		t.Error("least recently used entry survived")
	}
	if c.get(1, keys[2]) == nil {
		t.Error("new entry missing")
	}
}

// --- benchmarks -------------------------------------------------------------

// fprintfCacheKey is the pre-optimization implementation, kept so the
// benchmark pair documents what the strconv rewrite buys on the cached-query
// hot path.
func fprintfCacheKey(universe []colstore.EdgeID) string {
	var sb strings.Builder
	for i, e := range universe {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%x", uint32(e))
	}
	return sb.String()
}

func benchUniverse() []colstore.EdgeID {
	u := make([]colstore.EdgeID, 12)
	for i := range u {
		u[i] = colstore.EdgeID(i*7919 + 13)
	}
	return u
}

func BenchmarkCacheKey(b *testing.B) {
	u := benchUniverse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cacheKey(u) == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkCacheKeyFprintf(b *testing.B) {
	u := benchUniverse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fprintfCacheKey(u) == "" {
			b.Fatal("empty key")
		}
	}
}
