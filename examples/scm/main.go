// Supply-chain management scenario (paper §2, Fig. 1): delivery traces as
// graph records, the motivating queries Q1–Q3, record tags, region queries,
// and a workload-driven view-advisor session.
//
// Articles flow from production lines (A, B, C) through hubs (D–H) to
// customer end-points (I, K). Each order's trace is one graph record whose
// edges carry TWO measures — delivery time (hours, the default measure) and
// cost (eur, a named measure) — exactly the multi-measure setting of §2:
// Q1 aggregates time, Q2 cost.
//
// Run with: go run ./examples/scm
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"grove"
)

// routes in the Fig. 1 delivery network, as node sequences.
var routes = [][]string{
	{"A", "D", "E", "G", "I"},
	{"A", "D", "E", "G", "K"},
	{"A", "B", "F", "J", "K"},
	{"C", "H", "K"},
}

func main() {
	rng := rand.New(rand.NewSource(7))
	st := grove.Open()

	// Synthesize 5000 orders. Each order ships along 1–2 routes with leg
	// times jittered around a per-leg base; fast-track orders are quicker
	// but cost more. Order type is recorded as a tag.
	const numOrders = 5000
	for i := 0; i < numOrders; i++ {
		rec := grove.NewRecord()
		fastTrack := rng.Intn(4) == 0
		for _, route := range pickRoutes(rng) {
			for j := 0; j+1 < len(route); j++ {
				baseTime, baseCost := 2.0+float64(j), 40.0
				if fastTrack {
					baseTime *= 0.6
					baseCost *= 1.8
				}
				from, to := route[j], route[j+1]
				if err := rec.SetEdge(from, to, baseTime+rng.Float64()); err != nil {
					log.Fatal(err)
				}
				if err := rec.SetEdgeNamed(from, to, "cost", baseCost+10*rng.Float64()); err != nil {
					log.Fatal(err)
				}
			}
		}
		id := st.Add(rec)
		orderType := "regular"
		if fastTrack {
			orderType = "fast-track"
		}
		if err := st.Tag(id, "type", orderType); err != nil {
			log.Fatal(err)
		}
	}
	st.Optimize()
	stats := st.Stats()
	fmt.Printf("loaded %d order traces over %d distinct delivery legs (measures: time + %v)\n\n",
		stats.Records, stats.DistinctEdges, stats.MeasureNames)

	// Q1: delivery time for all articles shipped via path [A,D,E,G,I].
	q1, err := st.Aggregate(grove.PathOf("A", "D", "E", "G", "I").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1: %d orders used route A→D→E→G→I; avg delivery time %.2fh\n",
		len(q1.RecordIDs), mean(q1.Values[0]))

	// Q2: delivery COST on the leased legs [C,H] and [F,J,K].
	ctx := context.Background()
	costCH, err := st.Execute(ctx, grove.AggregateOn(grove.PathOf("C", "H").ToGraph(), grove.Sum, "cost"))
	if err != nil {
		log.Fatal(err)
	}
	costFJK, err := st.Execute(ctx, grove.AggregateOn(grove.PathOf("F", "J", "K").ToGraph(), grove.Sum, "cost"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2: leased-route cost: [C,H] total %.0feur over %d orders; [F,J,K] total %.0feur over %d orders\n",
		total(costCH.Agg.Values[0]), len(costCH.Agg.RecordIDs),
		total(costFJK.Agg.Values[0]), len(costFJK.Agg.RecordIDs))

	// Q3: longest leg delay from a production line to end-point I via the
	// region-2 hubs. Region 2 is the hub corridor D→E→G; PathsThrough gives
	// the §3.3 composite path through it.
	full := grove.NewGraph()
	for _, r := range routes {
		for j := 0; j+1 < len(r); j++ {
			full.AddEdge(r[j], r[j+1])
		}
	}
	region2 := grove.NewGraph()
	region2.AddEdge("D", "E")
	region2.AddEdge("E", "G")
	through, err := grove.PathsThrough(full, region2, false)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for _, p := range through {
		if p.End() != "I" {
			continue
		}
		q3, err := st.Aggregate(grove.PathOf(p.Nodes...).ToGraph(), grove.Max)
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range q3.FoldAcrossPaths() {
			if !math.IsNaN(v) && v > worst {
				worst = v
			}
		}
	}
	fmt.Printf("Q3: longest single-leg delay to I via region-2 hubs: %.2fh\n", worst)

	// Tag-sliced analysis: fast-track orders on the main corridor.
	corridor, err := st.Match(grove.PathOf("A", "D", "E", "G").ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	fast := corridor.Answer.And(st.TaggedWith("type", "fast-track"))
	fmt.Printf("fast-track orders via A→D→E→G: %d\n\n", fast.Cardinality())

	// View advisor session: the analysts' dashboard re-runs the four route
	// aggregations continuously — let the advisor pick aggregate views.
	workload := make([]*grove.Graph, 0, len(routes))
	for _, r := range routes {
		workload = append(workload, grove.PathOf(r...).ToGraph())
	}
	start := st.IOStatsSnapshot()
	runDashboard(st, workload)
	before := st.IOStatsSnapshot().Sub(start)

	names, err := st.MaterializeAggViews(workload, grove.Sum, 4, grove.AdvisorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	start = st.IOStatsSnapshot()
	runDashboard(st, workload)
	after := st.IOStatsSnapshot().Sub(start)

	fmt.Printf("advisor materialized %d aggregate views: %v\n", len(names), names)
	fmt.Printf("dashboard workload columns fetched: %d → %d (%.0f%% fewer)\n",
		before.ColumnsFetched(), after.ColumnsFetched(),
		100*(1-float64(after.ColumnsFetched())/float64(before.ColumnsFetched())))
}

func pickRoutes(rng *rand.Rand) [][]string {
	first := routes[rng.Intn(len(routes))]
	if rng.Intn(3) == 0 {
		second := routes[rng.Intn(len(routes))]
		return [][]string{first, second}
	}
	return [][]string{first}
}

func runDashboard(st *grove.Store, workload []*grove.Graph) {
	for _, g := range workload {
		if _, err := st.Aggregate(g, grove.Sum); err != nil {
			log.Fatal(err)
		}
	}
}

func mean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func total(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}
