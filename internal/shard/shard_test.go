package shard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
)

// smallRecord builds a path record A→B→C with the given base measure.
func smallRecord(t testing.TB, base float64) *graph.Record {
	t.Helper()
	rec := graph.NewRecord()
	if err := rec.SetEdge("A", "B", base); err != nil {
		t.Fatal(err)
	}
	if err := rec.SetEdge("B", "C", base+1); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordIDMappingRoundTrips(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		c := New(n, 0)
		var ids []uint32
		for i := 0; i < 20; i++ {
			ids = append(ids, c.Add(smallRecord(t, float64(i))))
		}
		if c.NumRecords() != 20 {
			t.Fatalf("n=%d: NumRecords = %d", n, c.NumRecords())
		}
		seen := make(map[uint32]bool)
		for i, g := range ids {
			// Sequential adds assign global id == arrival index regardless of
			// the shard count — the invariant the differential tests rest on.
			if g != uint32(i) {
				t.Fatalf("n=%d: record %d got id %d", n, i, g)
			}
			if seen[g] {
				t.Fatalf("n=%d: duplicate id %d", n, g)
			}
			seen[g] = true
			s, local, err := c.Locate(g)
			if err != nil {
				t.Fatalf("n=%d: Locate(%d): %v", n, g, err)
			}
			if c.globalID(s, local) != g || s != int(g)%n {
				t.Fatalf("n=%d: Locate(%d) did not round-trip", n, g)
			}
		}
		if _, _, err := c.Locate(uint32(len(ids))); err == nil {
			t.Fatalf("n=%d: Locate past the end succeeded", n)
		}
	}
}

func TestConcurrentAddsLandUniqueIDs(t *testing.T) {
	c := New(4, 0)
	const writers, perWriter = 8, 50
	ids := make([][]uint32, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := graph.NewRecord()
				if err := rec.SetEdge("A", "B", float64(w*perWriter+i)); err != nil {
					panic(err)
				}
				ids[w] = append(ids[w], c.Add(rec))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for _, batch := range ids {
		for _, g := range batch {
			if seen[g] {
				t.Fatalf("duplicate id %d", g)
			}
			seen[g] = true
		}
	}
	if c.NumRecords() != writers*perWriter {
		t.Fatalf("NumRecords = %d, want %d", c.NumRecords(), writers*perWriter)
	}
	// Round-robin placement keeps the shards balanced exactly.
	for i := 0; i < c.NumShards(); i++ {
		if got := c.Unit(i).Rel.NumRecords(); got != writers*perWriter/4 {
			t.Fatalf("shard %d holds %d records", i, got)
		}
	}
}

func TestMutatorsRouteByShard(t *testing.T) {
	c := New(3, 0)
	var ids []uint32
	for i := 0; i < 9; i++ {
		ids = append(ids, c.Add(smallRecord(t, float64(i))))
	}
	if live, err := c.Delete(ids[4]); err != nil || !live {
		t.Fatalf("Delete: %v %v", live, err)
	}
	if c.NumDeleted() != 1 {
		t.Fatalf("NumDeleted = %d", c.NumDeleted())
	}
	res, err := c.MatchContext(context.Background(), query.NewGraphQuery(pathAB().ToGraph()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Contains(ids[4]) {
		t.Fatal("deleted record still answers")
	}
	if res.Answer.Cardinality() != 8 {
		t.Fatalf("answer = %d records", res.Answer.Cardinality())
	}
	if !c.Undelete(ids[4]) {
		t.Fatal("Undelete")
	}
	if err := c.Tag(ids[7], "type", "rush"); err != nil {
		t.Fatal(err)
	}
	tagged := c.TaggedWith("type", "rush")
	if tagged.Cardinality() != 1 || !tagged.Contains(ids[7]) {
		t.Fatalf("tagged = %v", tagged)
	}
	if keys := c.TagKeys(); len(keys) != 1 || keys[0] != "type" {
		t.Fatalf("TagKeys = %v", keys)
	}
	if _, _, err := c.Locate(99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Locate(99) = %v", err)
	}
}

func TestScatterSurfacesRealErrorOverCancellation(t *testing.T) {
	c := New(4, 0)
	boom := errors.New("boom")
	start := time.Now()
	_, err := scatter(context.Background(), c, func(ctx context.Context, s int, u *Unit) (int, error) {
		if s == 2 {
			return 0, boom
		}
		<-ctx.Done() // siblings block until the failure cancels them
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure did not cancel the siblings promptly (%v)", elapsed)
	}
}

func TestScatterOuterCancellation(t *testing.T) {
	c := New(4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := scatter(ctx, c, func(ctx context.Context, s int, u *Unit) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := 0; i < c.NumShards(); i++ {
		if p := c.Unit(i).Pending(); p != 0 {
			t.Fatalf("shard %d pending = %d after scatter returned", i, p)
		}
	}
}

func TestScatterRecoversPanics(t *testing.T) {
	c := New(3, 0)
	_, err := scatter(context.Background(), c, func(ctx context.Context, s int, u *Unit) (int, error) {
		if s == 1 {
			panic("kernel bug")
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}

func TestPendingGaugeTracksInFlight(t *testing.T) {
	c := New(2, 0)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = scatter(context.Background(), c, func(ctx context.Context, s int, u *Unit) (int, error) {
			<-release
			return 0, nil
		})
	}()
	deadline := time.After(5 * time.Second)
	for {
		if c.Unit(0).Pending() == 1 && c.Unit(1).Pending() == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("pending gauges never reached 1 per shard")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	<-done
	if c.Unit(0).Pending() != 0 || c.Unit(1).Pending() != 0 {
		t.Fatal("pending gauges did not return to 0")
	}
}

func TestQueryCancellationAbandonsSubQueries(t *testing.T) {
	c := New(4, 0)
	for i := 0; i < 40; i++ {
		c.Add(smallRecord(t, float64(i)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MatchContext(ctx, query.NewGraphQuery(pathAB().ToGraph())); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchContext = %v, want context.Canceled", err)
	}
	if _, err := c.AggregateContext(ctx, query.NewPathAggQuery(pathAB().ToGraph(), query.Sum)); !errors.Is(err, context.Canceled) {
		t.Fatalf("AggregateContext = %v, want context.Canceled", err)
	}
	queries := []*query.GraphQuery{query.NewGraphQuery(pathAB().ToGraph()), query.NewGraphQuery(pathAB().ToGraph())}
	_, errs := c.ExecuteGraphBatchContext(ctx, queries, 2)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch query %d: %v, want context.Canceled", i, err)
		}
	}
}

func TestViewsReplicateAcrossShards(t *testing.T) {
	c := New(3, 0)
	for i := 0; i < 12; i++ {
		c.Add(smallRecord(t, float64(i)))
	}
	workload := []*graph.Graph{pathAB().ToGraph(), pathAB().ToGraph(), pathABC().ToGraph()}
	names, err := c.MaterializeGraphViews(workload, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("advisor selected nothing")
	}
	for i := 0; i < c.NumShards(); i++ {
		for _, name := range names {
			if c.Unit(i).Rel.View(name) == nil {
				t.Fatalf("view %s missing on shard %d", name, i)
			}
		}
	}
	aggNames, err := c.MaterializeAggViews(workload, query.Sum, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumShards(); i++ {
		for _, name := range aggNames {
			if c.Unit(i).Rel.AggView(name) == nil {
				t.Fatalf("agg view %s missing on shard %d", name, i)
			}
		}
	}
	// Queries stay correct (and bit-identical to unsharded) with views on.
	res, err := c.MatchContext(context.Background(), query.NewGraphQuery(pathAB().ToGraph()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Cardinality() != 12 {
		t.Fatalf("answer with views = %d", res.Answer.Cardinality())
	}
	c.DropAllViews()
	for i := 0; i < c.NumShards(); i++ {
		if len(c.Unit(i).Rel.Views()) != 0 {
			t.Fatalf("shard %d still has views", i)
		}
	}
}

func pathAB() gpath.Path  { return gpath.Closed("A", "B") }
func pathABC() gpath.Path { return gpath.Closed("A", "B", "C") }
