// Network-monitoring scenario (paper §7.1, GNU dataset): per-flow traffic
// traces over a P2P overlay as graph records, with link-utilization analysis
// across subnets.
//
// Each record is the set of overlay links one flow crossed, measured in MB
// transferred. The administrator asks: which flows crossed a given corridor,
// what was the per-flow byte total along it, and which corridor link was the
// hottest?
//
// Run with: go run ./examples/netmon
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"grove"
	"grove/synth"
)

func main() {
	// Build a GNU-like flow dataset with the library's public synthesizer —
	// the same substrate the §7 experiments use.
	ds, err := synth.GNU(synth.Config{Records: 4000, MinEdges: 20, MaxEdges: 60, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Store
	fmt.Printf("loaded %d flow traces over %d distinct overlay links\n\n",
		st.NumRecords(), st.Stats().DistinctEdges)

	// Pick a frequently-used corridor from the walk pool.
	corridor := ds.QueryPath(3)
	fmt.Printf("corridor under investigation: %v\n", corridor)

	// Which flows crossed the whole corridor?
	res, err := st.Match(grove.PathOf(corridor...).ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flows crossing the full corridor: %d\n", res.NumRecords())

	// Total MB per flow along the corridor, and the top-3 heaviest flows.
	agg, err := st.Aggregate(grove.PathOf(corridor...).ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	type flow struct {
		id uint32
		mb float64
	}
	var flows []flow
	for i, id := range agg.RecordIDs {
		if v := agg.Values[0][i]; !math.IsNaN(v) {
			flows = append(flows, flow{id: id, mb: v})
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].mb > flows[j].mb })
	fmt.Println("heaviest corridor flows:")
	for i, f := range flows {
		if i >= 3 {
			break
		}
		fmt.Printf("  flow %d: %.1f MB\n", f.id, f.mb)
	}

	// Hottest single link of the corridor (MAX leg per flow, max over flows).
	hot, err := st.Aggregate(grove.PathOf(corridor...).ToGraph(), grove.Max)
	if err != nil {
		log.Fatal(err)
	}
	peak := 0.0
	for _, v := range hot.FoldAcrossPaths() {
		if !math.IsNaN(v) && v > peak {
			peak = v
		}
	}
	fmt.Printf("peak per-flow transfer on any corridor link: %.1f MB\n\n", peak)

	// Utilization report benefits from an aggregate view on the corridor:
	// the nightly report re-runs the SUM for every corridor in the watch
	// list, so materialize and compare I/O.
	start := st.IOStatsSnapshot()
	if _, err := st.Aggregate(grove.PathOf(corridor...).ToGraph(), grove.Sum); err != nil {
		log.Fatal(err)
	}
	before := st.IOStatsSnapshot().Sub(start).ColumnsFetched()

	if err := st.MaterializeAggViewPath("corridor", grove.Sum, "", corridor...); err != nil {
		log.Fatal(err)
	}
	start = st.IOStatsSnapshot()
	if _, err := st.Aggregate(grove.PathOf(corridor...).ToGraph(), grove.Sum); err != nil {
		log.Fatal(err)
	}
	after := st.IOStatsSnapshot().Sub(start).ColumnsFetched()
	fmt.Printf("corridor SUM I/O with aggregate view: %d → %d columns fetched\n", before, after)
}
