package grove_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"grove"
)

// load returns a store with the paper's three Fig. 2 records.
func load() *grove.Store {
	st := grove.Open()
	type leg struct {
		from, to string
		m        float64
	}
	for _, legs := range [][]leg{
		{{"A", "B", 3}, {"A", "C", 4}, {"C", "E", 2}, {"A", "D", 1}, {"D", "E", 2}},
		{{"A", "C", 1}, {"C", "E", 2}, {"A", "D", 2}, {"D", "E", 1}, {"E", "F", 4}, {"F", "G", 1}},
		{{"A", "D", 5}, {"D", "E", 4}, {"E", "F", 3}, {"F", "G", 1}},
	} {
		rec := grove.NewRecord()
		for _, l := range legs {
			if err := rec.SetEdge(l.from, l.to, l.m); err != nil {
				log.Fatal(err)
			}
		}
		st.Add(rec)
	}
	return st
}

func ExampleStore_Match() {
	st := load()
	res, err := st.Match(grove.PathOf("A", "C", "E").ToGraph())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("records containing path [A,C,E]:", res.Answer.ToSlice())
	// Output: records containing path [A,C,E]: [0 1]
}

func ExampleStore_Aggregate() {
	st := load()
	// The paper's §3.4 example: SUM along (A,C,E,F) matches only record 2.
	agg, err := st.Aggregate(grove.PathOf("A", "C", "E", "F").ToGraph(), grove.Sum)
	if err != nil {
		log.Fatal(err)
	}
	for i, rec := range agg.RecordIDs {
		fmt.Printf("record %d: total %.0f\n", rec, agg.Values[0][i])
	}
	// Output: record 1: total 7
}

func ExampleStore_Execute() {
	st := load()
	ctx := context.Background()
	res, err := st.Execute(ctx, grove.Find(grove.AndNot(grove.QPath("A", "D", "E"), grove.QPath("E", "F"))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("with [A,D,E] but without (E,F):", res.IDs.ToSlice())
	// The §3.4 example folded to one value across every matching record.
	q := grove.Scalar(grove.AggregateOn(grove.PathOf("A", "C", "E", "F").ToGraph(), grove.Max, ""))
	res, err = st.Execute(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s = %.0f\n", q, res.Scalar.Value)
	// Output:
	// with [A,D,E] but without (E,F): [0]
	// SCALAR MAX {[A,C] [C,E] [E,F]} = 4
}

func ExampleParse() {
	st := load()
	stmt, err := grove.Parse("SUM [E,F,G]")
	if err != nil {
		log.Fatal(err)
	}
	res, err := st.Execute(context.Background(), stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stmt)
	for i, rec := range res.Agg.RecordIDs {
		fmt.Printf("record %d: %.0f\n", rec, res.Agg.Values[0][i])
	}
	// Output:
	// SUM {[E,F] [F,G]}
	// record 1: 5
	// record 2: 4
}

func ExampleStore_MaterializeView() {
	st := load()
	bv1 := grove.PathOf("A", "C", "E").ToGraph()
	if err := st.MaterializeView("bv1", bv1); err != nil {
		log.Fatal(err)
	}
	ex, err := st.Explain(bv1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bitmaps fetched: %d (saved %d)\n", ex.BitmapsFetched, ex.BitmapsSaved)
	// Output: bitmaps fetched: 1 (saved 1)
}

func ExampleStore_ImportTraces() {
	st := grove.Open()
	traces := `{"edges":[{"from":"A","to":"B","measure":2}],"tags":{"type":"fast"}}
{"edges":[{"from":"A","to":"B","measure":5}]}`
	n, err := st.ImportTraces(strings.NewReader(traces))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("imported:", n)
	fmt.Println("fast ones:", st.TaggedWith("type", "fast").ToSlice())
	// Output:
	// imported: 2
	// fast ones: [0]
}

func ExampleSummarize() {
	s := grove.Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	fmt.Printf("mean %.1f stddev %.1f\n", s.Mean, s.StdDev)
	// Output: mean 5.0 stddev 2.0
}

func ExampleStore_AdviseGraphViews() {
	st := load()
	workload := []*grove.Graph{
		grove.PathOf("A", "D", "E", "F").ToGraph(),
		grove.PathOf("A", "D", "E", "F", "G").ToGraph(),
	}
	rep, err := st.AdviseGraphViews(workload, 2, grove.AdvisorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	st.RenderAdvice(os.Stdout, rep)
	// After the shared 3-edge subpath is materialized, the only remaining
	// edge (F,G) is covered as cheaply by its own bitmap, so one view wins.
	// Output:
	// workload: 2 queries, 7 bitmap fetches without views
	// with 1 views: 3 fetches (57.1% saved)
	//    1. 3 edges, used by 2 queries: (A,D) (D,E) (E,F)
}
