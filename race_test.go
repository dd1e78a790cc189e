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
