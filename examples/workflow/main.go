// Workflow-management scenario (paper §1: WMS as a graph-record generator):
// each process instance is a graph record whose nodes are workflow states —
// carrying per-state processing times as NODE measures — and whose edges are
// transitions carrying hand-off delays. This example exercises node-measure
// aggregation and open-ended paths: [D,E,G) semantics exclude endpoint
// states from the analysis.
//
// Run with: go run ./examples/workflow
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"grove"
)

// The order-fulfilment workflow: Received → Validated → {Approved|Rejected};
// Approved → Packed → Shipped; some orders loop Validated→Received (resubmit)
// — a cycle the loader flattens to Received#2 aliases automatically.
func main() {
	rng := rand.New(rand.NewSource(99))
	st := grove.Open()

	const numInstances = 4000
	rejected := 0
	for i := 0; i < numInstances; i++ {
		rec := grove.NewRecord()
		resubmit := rng.Intn(10) == 0
		reject := rng.Intn(5) == 0

		states := []string{"Received", "Validated"}
		if resubmit {
			states = append(states, "Received", "Validated") // cycle: flattened on load
		}
		if reject {
			states = append(states, "Rejected")
			rejected++
		} else {
			states = append(states, "Approved", "Packed", "Shipped")
		}
		// Transition delays (edge measures) and per-state processing times
		// (node measures).
		occ := map[string]int{}
		alias := func(s string) string {
			occ[s]++
			if occ[s] == 1 {
				return s
			}
			return fmt.Sprintf("%s#%d", s, occ[s])
		}
		prev := alias(states[0])
		if err := rec.SetNode(prev, 0.1+rng.Float64()); err != nil {
			log.Fatal(err)
		}
		for _, raw := range states[1:] {
			cur := alias(raw)
			if err := rec.SetEdge(prev, cur, 0.5+rng.Float64()*2); err != nil {
				log.Fatal(err)
			}
			if err := rec.SetNode(cur, 0.1+rng.Float64()*3); err != nil {
				log.Fatal(err)
			}
			prev = cur
		}
		st.Add(rec)
	}
	st.Optimize()
	fmt.Printf("loaded %d process instances (%d rejected) over %d distinct states/transitions\n\n",
		st.NumRecords(), rejected, st.Stats().DistinctEdges)

	// How many instances went through the happy path?
	happy, err := st.Match(grove.PathOf("Received", "Validated", "Approved", "Packed", "Shipped").ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instances completing the happy path: %d\n", happy.NumRecords())

	// End-to-end latency per instance: closed path ⇒ node processing times
	// of every state PLUS transition delays.
	e2e, err := st.Aggregate(grove.PathOf("Received", "Validated", "Approved", "Packed", "Shipped").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	all := grove.Summarize(e2e.FoldAcrossPaths())
	fmt.Printf("end-to-end latency: mean %.2fh, σ %.2fh, max %.2fh over %d instances\n",
		all.Mean, all.StdDev, all.Max, all.Count)

	// Open-ended analysis (§3.3's interval semantics): time strictly INSIDE
	// approval→shipping. The open path (Approved,Packed,Shipped) excludes
	// the Approved and Shipped processing times; the closed variant includes
	// them. In the text language the open path is written (Approved,Packed,Shipped).
	stmt, err := grove.Parse("SUM (Approved,Packed,Shipped)")
	if err != nil {
		log.Fatal(err)
	}
	open, err := st.Execute(context.Background(), stmt)
	if err != nil {
		log.Fatal(err)
	}
	closed, err := st.Aggregate(grove.PathOf("Approved", "Packed", "Shipped").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approval→shipping: open-path mean %.2fh vs closed-path mean %.2fh\n",
		grove.Summarize(open.Agg.FoldAcrossPaths()).Mean,
		grove.Summarize(closed.FoldAcrossPaths()).Mean)

	// Which resubmitted instances (flattened aliases!) still shipped?
	resub, err := st.Match(grove.PathOf("Validated", "Received#2").ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	shipped, err := st.Match(grove.PathOf("Packed", "Shipped").ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	both := resub.Answer.And(shipped.Answer)
	fmt.Printf("resubmitted instances that eventually shipped: %d of %d\n",
		both.Cardinality(), resub.NumRecords())

	// Longest single processing bottleneck along the happy path per instance.
	bottleneck, err := st.Aggregate(grove.PathOf("Received", "Validated", "Approved", "Packed", "Shipped").ToGraph(), grove.Max)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for _, v := range bottleneck.FoldAcrossPaths() {
		if !math.IsNaN(v) && v > worst {
			worst = v
		}
	}
	fmt.Printf("worst single state/transition time on the happy path: %.2fh\n", worst)
}
