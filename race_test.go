//go:build race

package grove

import (
	"sync"
	"testing"
)

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count guards skip themselves under the race detector because
// sync.Pool deliberately drops a random 1/4 of Puts there, making
// AllocsPerRun nondeterministic; the plain `go test` pass still enforces
// them.
const raceEnabled = true

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
	if err := st.MaterializeAggViewPath("abc", Sum, "a", "b", "c"); err != nil {
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
				torn, err := st.Eval(half)
				if err != nil {
					t.Error(err)
					return
				}
				if n := torn.Cardinality(); n != 0 {
					t.Errorf("%d half-appended record(s) visible: (a,b) set, (y,z) not yet", n)
					return
				}
				counted, err := st.Eval(base)
				if err != nil {
					t.Error(err)
					return
				}
				viewed, err := st.AggregatePath(Sum, "a", "b", "c")
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
