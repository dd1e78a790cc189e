// View-advisor walkthrough: watch the §5 pipeline operate — candidate
// generation (exhaustive closure vs a-priori), greedy set-cover selection
// under increasing budgets, and the query-time rewriting payoff.
//
// Run with: go run ./examples/viewadvisor
package main

import (
	"fmt"
	"log"

	"grove"
	"grove/synth"
)

func main() {
	// NY-like dataset and a skewed (Zipf) analyst workload.
	ds, err := synth.NY(synth.Config{Records: 10000, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Store
	queries := ds.ZipfQueries(100, 25, 8, false)
	fmt.Printf("dataset: %s\nworkload: 100 Zipf-drawn graph queries (8 edges each)\n\n", ds.Describe())

	// Budget sweep: cost of the whole workload in bitmap-columns fetched.
	fmt.Println("budget  views  bitmapCols  reduction")
	base := workloadCost(st, queries)
	for _, k := range []int{0, 5, 10, 25, 50, 100} {
		st.DropAllViews()
		var names []string
		if k > 0 {
			names, err = st.MaterializeGraphViews(queries, k, grove.AdvisorOptions{})
			if err != nil {
				log.Fatal(err)
			}
		}
		cost := workloadCost(st, queries)
		fmt.Printf("%5d  %5d  %10d  %8.1f%%\n",
			k, len(names), cost, 100*(1-float64(cost)/float64(base)))
	}

	// The a-priori candidate generator trades completeness for speed on
	// heavily overlapping workloads; higher minimum support admits fewer
	// candidates and therefore fewer materialized views.
	fmt.Println("\nminSup  views(k=50)")
	for _, minSup := range []int{0, 2, 5, 10, 20} {
		st.DropAllViews()
		names, err := st.MaterializeGraphViews(queries, 50, grove.AdvisorOptions{MinSup: minSup})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %d\n", minSup, len(names))
	}
}

func workloadCost(st *grove.Store, queries []*grove.Graph) int64 {
	start := st.IOStatsSnapshot()
	for _, q := range queries {
		if _, err := st.Match(q); err != nil {
			log.Fatal(err)
		}
	}
	return st.IOStatsSnapshot().Sub(start).BitmapColumnsFetched
}
