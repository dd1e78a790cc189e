//go:build race

package grove

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRaceShardedBatchesAgainstAppend runs batch readers on a 4-shard store
// while a writer appends: workers share each query's pre-resolved form and
// the per-shard columns with the writer's registry and relation updates, and
// the detector watches all of it. Every answer must be one the store could
// have given at some point of the ingest: at least the records loaded up
// front, never more than were ever appended.
func TestRaceShardedBatchesAgainstAppend(t *testing.T) {
	st := NewSharded(4)
	base := loadSCMOrders(t, st)
	const appends = 300
	graphs := []*Graph{
		PathOf("A", "D", "E").ToGraph(), PathOf("A", "B", "F").ToGraph(),
		PathOf("C", "H", "K").ToGraph(), PathOf("A", "D", "Z").ToGraph(), // Z: unknown until the writer adds it
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			rec := NewRecord()
			for _, leg := range [][2]string{{"A", "D"}, {"D", "E"}, {"D", "Z"}} {
				if err := rec.SetEdge(leg[0], leg[1], float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := st.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				res, err := st.ExecuteBatch(graphs, workers)
				if err != nil {
					t.Error(err)
					return
				}
				if n := res[0].NumRecords(); n < 4 || n > 4+appends {
					t.Errorf("[A,D,E] matched %d records with %d loaded and %d appended", n, base, appends)
				}
				ares, err := st.AggregateBatch(graphs, Sum, workers)
				if err != nil {
					t.Error(err)
					return
				}
				for i, a := range ares {
					if len(a.RecordIDs) != a.Answer.Cardinality() || (len(a.Values) > 0 && len(a.Values[0]) != len(a.RecordIDs)) {
						t.Errorf("aggregate %d: %d ids, %d bits, %d cells", i, len(a.RecordIDs), a.Answer.Cardinality(), len(a.Values[0]))
					}
				}
			}
		}(r + 1)
	}
	wg.Wait()
	res, err := st.Match(graphs[3])
	if err != nil || res.NumRecords() != appends {
		t.Fatalf("after the ingest [A,D,Z] matches %d records (%v), want %d", res.NumRecords(), err, appends)
	}
}

// TestAppendIsAtomicToReaders: a record enters the relation in one write-lock
// section — bits, measures and view membership together — so no reader can
// see half of one. Every appended record holds both (a,b) and (y,z), so
// "(a,b) AND NOT (y,z)" must stay empty however the reads interleave with the
// writer; and a view-rewritten aggregate read after the base plan's count can
// never know fewer records than that count (§5.3: rewriting is an
// equivalence, also for the length of one append). Up to commit 8591ddf the
// id, each element and the views were separate lock sections, and both
// checks failed within a few hundred appends.
func TestAppendIsAtomicToReaders(t *testing.T) {
	st := Open()
	record := func(i int) *Record {
		rec := NewRecord()
		legs := [][2]string{{"a", "b"}, {"b", "c"}, {"y", "z"}}
		for f := 0; f < 30; f++ { // filler between (b,c) and (y,z) in element order: a wide window
			legs = append(legs, [2]string{"m", string(rune('A' + f))})
		}
		for _, leg := range legs {
			if err := rec.SetEdge(leg[0], leg[1], float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return rec
	}
	for i := 0; i < 8; i++ {
		st.Add(record(i))
	}
	if err := st.MaterializeAggViewPath("abc", Sum, "", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	const appends = 1500
	recs := make([]*Record, appends)
	for i := range recs {
		recs[i] = record(8 + i)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, rec := range recs {
			if _, err := st.Append(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	half := AndNot(QPath("a", "b"), QPath("y", "z"))
	base := And(QPath("a", "b"), QPath("b", "c")) // single-edge leaves: no view covers them
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				torn, err := evalExpr(st, half)
				if err != nil {
					t.Error(err)
					return
				}
				if n := torn.Cardinality(); n != 0 {
					t.Errorf("%d half-appended record(s) visible: (a,b) set, (y,z) not yet", n)
					return
				}
				counted, err := evalExpr(st, base)
				if err != nil {
					t.Error(err)
					return
				}
				viewed, err := st.Aggregate(PathOf("a", "b", "c").ToGraph(), Sum)
				if err != nil {
					t.Error(err)
					return
				}
				if len(viewed.SegmentsPerPath) != 1 || viewed.SegmentsPerPath[0][0] == 0 {
					t.Error("the aggregate was not rewritten over the view")
					return
				}
				if len(viewed.RecordIDs) < counted.Cardinality() {
					t.Errorf("view-rewritten aggregate knows %d records after the base plan counted %d", len(viewed.RecordIDs), counted.Cardinality())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRaceExplainAgainstAppend explains queries naming the element the
// writer is about to register. Explain resolves the query once, so its
// unknown-element list and its plan must agree: an element listed as unknown
// is carried as a sentinel, whose column lies in a partition of its own far
// above the registered ones, and an element the plan resolved to a real
// column is not listed.
func TestRaceExplainAgainstAppend(t *testing.T) {
	st := Open()
	first := NewRecord()
	if err := first.SetEdge("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	// (a,b) is known from the start, and the appended elements stay inside
	// its partition: a plan spans one registered partition.
	st.Add(first)
	const appends = 500
	var appended atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			rec := NewRecord()
			for _, leg := range [][2]string{{"a", "b"}, {"b", fmt.Sprint("z", i)}} {
				if err := rec.SetEdge(leg[0], leg[1], float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := st.Append(rec); err != nil {
				t.Error(err)
				return
			}
			appended.Add(1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := appended.Load(); n < appends; n = appended.Load() {
				ex, err := st.Explain(PathOf("a", "b", fmt.Sprint("z", n)).ToGraph())
				if err != nil {
					t.Error(err)
					return
				}
				if unknown := len(ex.UnknownElements) > 0; unknown != (ex.Partitions == 2) {
					t.Errorf("unknown elements %v with a plan over %d partition(s)", ex.UnknownElements, ex.Partitions)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRaceViewListingsAgainstViewChanges: Stats, the view listings and the
// size walks behind the store gauges run while a writer materializes
// aggregate views, drops them all every twenty, materializes graph views and
// appends records. The listings read the immutable view catalog and the size
// walks take the read lock; when both iterated the relation's view maps
// unlocked, the detector caught MaterializeAggViewOn's map write against
// ViewSizeBytes' iteration. Every listing must be one the store held at some
// point: never more views than were materialized since the last drop.
func TestRaceViewListingsAgainstViewChanges(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	const rounds = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			if i%20 == 0 {
				st.DropAllViews()
			}
			if err := st.MaterializeAggViewPath(fmt.Sprintf("p%d", i), Sum, "", "A", "D", "E"); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 0 {
				if err := st.MaterializeView(fmt.Sprintf("v%d", i), PathOf("A", "D").ToGraph()); err != nil {
					t.Error(err)
					return
				}
			}
			rec := NewRecord()
			if err := rec.SetEdge("A", "D", float64(i)); err != nil {
				t.Error(err)
				return
			}
			st.Add(rec)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				stats := st.Stats()
				if len(stats.AggViewNames) > 20 || len(stats.ViewNames) > 4 || stats.BaseSizeBytes <= 0 {
					t.Errorf("stats list %d aggregate and %d graph views over %d base bytes", len(stats.AggViewNames), len(stats.ViewNames), stats.BaseSizeBytes)
					return
				}
				if stats.ViewSizeBytes < 0 {
					t.Error("negative view payload")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRacePagedBatchAtOnePercent: batch workers and scalar scans share one
// buffer pool at 1% of the measures, so every one of them faults, pins and
// unpins blocks while the others' faults evict and recycle chunks between
// blocks of unlike lengths, and while the budget is cut to nothing and
// restored under them. A chunk recycled under a reader that still has it
// pinned would be a wrong cell here and a data race to the detector; every
// answer must be bit-identical to the in-memory store's, and no block may
// stay pinned once the readers are done.
func TestRacePagedBatchAtOnePercent(t *testing.T) {
	mem := Open()
	pagedCorpus(t, mem, 3*4096/2+37)
	raggedColumns(t, mem)
	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	onePercent := loaded.StorageStats().LogicalBytes / 100
	loaded.SetPageCacheBytes(onePercent)

	graphs := []*Graph{
		PathOf("A", "B", "C", "D", "E").ToGraph(), PathOf("A", "B", "C").ToGraph(),
		PathOf("B", "C", "D").ToGraph(), PathOf("C", "D", "E").ToGraph(),
		PathOf("C", "D").ToGraph(), PathOf("D", "E").ToGraph(),
		PathOf("E", "F").ToGraph(), PathOf("E", "F", "G", "H").ToGraph(),
		PathOf("F", "G", "H", "I").ToGraph(),
	}
	funcs := []AggFunc{Sum, Min, Max}
	wantRows := make([][]*AggResult, len(funcs))
	wantScalar := make([][]uint64, len(funcs))
	for fi, f := range funcs {
		if wantRows[fi], err = mem.AggregateBatch(graphs, f, 1); err != nil {
			t.Fatal(err)
		}
		for gi, res := range wantRows[fi] {
			if len(res.RecordIDs) == 0 {
				t.Fatalf("graph %d matches no record; its columns would go unread", gi)
			}
		}
		for _, g := range graphs {
			sc, err := scalarOf(mem, g, f)
			if err != nil {
				t.Fatal(err)
			}
			wantScalar[fi] = append(wantScalar[fi], math.Float64bits(sc.Value))
		}
	}

	done := make(chan struct{})
	var readers, resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			loaded.SetPageCacheBytes([]int64{1, onePercent, 0, onePercent}[i%4]) // nothing, 1%, unbounded, 1%
			runtime.Gosched()
		}
	}()
	for _, workers := range []int{2, 5} {
		readers.Add(1)
		go func(workers int) {
			defer readers.Done()
			for round := 0; round < 6; round++ {
				for fi, f := range funcs {
					got, err := loaded.AggregateBatch(graphs, f, workers)
					if err != nil {
						t.Error(err)
						return
					}
					for gi, res := range got {
						want := wantRows[fi][gi]
						if !slices.Equal(res.RecordIDs, want.RecordIDs) || len(res.Values) != len(want.Values) {
							t.Errorf("%s graph %d, %d workers: %d records over %d paths, want %d over %d",
								f.Name, gi, workers, len(res.RecordIDs), len(res.Values), len(want.RecordIDs), len(want.Values))
							return
						}
						for p := range want.Values {
							for i, w := range want.Values[p] {
								if math.Float64bits(res.Values[p][i]) != math.Float64bits(w) {
									t.Errorf("%s graph %d path %d record %d, %d workers: %v, want %v",
										f.Name, gi, p, res.RecordIDs[i], workers, res.Values[p][i], w)
									return
								}
							}
						}
						sc, err := scalarOf(loaded, graphs[gi], f)
						if err != nil {
							t.Error(err)
							return
						}
						if got := math.Float64bits(sc.Value); got != wantScalar[fi][gi] {
							t.Errorf("%s graph %d scalar = %x, want %x", f.Name, gi, got, wantScalar[fi][gi])
							return
						}
					}
				}
			}
		}(workers)
	}
	readers.Wait()
	close(done)
	resizer.Wait()
	if err := loaded.Stats().Err; err != nil {
		t.Fatal(err)
	}
	loaded.SetPageCacheBytes(1) // evicts every frame but the pinned ones
	if pool := loaded.StorageStats().Pool; pool.ResidentBlocks != 0 || pool.Misses == 0 {
		t.Fatalf("%d blocks still pinned after %d faults; every kernel must unpin what it pinned", pool.ResidentBlocks, pool.Misses)
	}
}
