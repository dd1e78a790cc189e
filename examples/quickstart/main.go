// Quickstart: the paper's running example (Fig. 2 / Table 1) end to end —
// load three small graph records, run the §3.4 path-aggregation query,
// materialize the Table 1 views and watch the query plan shrink.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"grove"
)

func main() {
	st := grove.Open()

	// The three records of Fig. 2. Edge numbering from the figure:
	// e1=(A,B) e2=(A,C) e3=(C,E) e4=(A,D) e5=(D,E) e6=(E,F) e7=(F,G).
	type leg struct {
		from, to string
		m        float64
	}
	records := [][]leg{
		{{"A", "B", 3}, {"A", "C", 4}, {"C", "E", 2}, {"A", "D", 1}, {"D", "E", 2}},
		{{"A", "C", 1}, {"C", "E", 2}, {"A", "D", 2}, {"D", "E", 1}, {"E", "F", 4}, {"F", "G", 1}},
		{{"A", "D", 5}, {"D", "E", 4}, {"E", "F", 3}, {"F", "G", 1}},
	}
	for i, legs := range records {
		rec := grove.NewRecord()
		for _, l := range legs {
			if err := rec.SetEdge(l.from, l.to, l.m); err != nil {
				log.Fatal(err)
			}
		}
		id := st.Add(rec)
		fmt.Printf("loaded record %d as id %d (%d edges)\n", i+1, id, len(legs))
	}

	// §3.4: SUM along path (A,C,E,F) — only record 2 contains it, total 7.
	agg, err := st.Aggregate(grove.PathOf("A", "C", "E", "F").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSUM(A,C,E,F): %d matching record(s)\n", len(agg.RecordIDs))
	for i, rec := range agg.RecordIDs {
		fmt.Printf("  record id %d: total = %.0f\n", rec, agg.Values[0][i])
	}

	// Materialize the two views of Table 1: graph view bv1 over {e1..e4}
	// and aggregate view p1 = [e6,e7] with SUM.
	bv1 := grove.NewGraph()
	bv1.AddEdge("A", "B")
	bv1.AddEdge("A", "C")
	bv1.AddEdge("C", "E")
	bv1.AddEdge("A", "D")
	if err := st.MaterializeView("bv1", bv1); err != nil {
		log.Fatal(err)
	}
	if err := st.MaterializeAggViewPath("p1", grove.Sum, "", "E", "F", "G"); err != nil {
		log.Fatal(err)
	}
	views := st.Stats()
	fmt.Printf("\nmaterialized views: %v + aggregate %v\n", views.ViewNames, views.AggViewNames)

	// A query covered by bv1 now fetches ONE bitmap instead of four.
	start := st.IOStatsSnapshot()
	res, err := st.Match(bv1)
	if err != nil {
		log.Fatal(err)
	}
	stats := st.IOStatsSnapshot().Sub(start)
	fmt.Printf("\nquery {e1..e4}: %d record(s), %d bitmap column(s) fetched (4 without the view)\n",
		res.NumRecords(), stats.BitmapColumnsFetched)

	// The aggregate view answers SUM(E,F,G) from the stored column.
	agg2, err := st.Aggregate(grove.PathOf("E", "F", "G").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSUM(E,F,G) via aggregate view p1:\n")
	for i, rec := range agg2.RecordIDs {
		fmt.Printf("  record id %d: total = %.0f (view segments used: %d)\n",
			rec, agg2.Values[0][i], agg2.SegmentsPerPath[0][0])
	}
}
