package query

import (
	"fmt"
	"strings"

	"grove/internal/graph"
)

// Explanation describes how a graph query would be executed: the §5.3
// rewriting outcome and the cost-model figures, without running the query.
type Explanation struct {
	// Universe is the number of distinct query edges.
	Universe int
	// Views / AggViews are the materialized views the rewriter would use.
	Views    []string
	AggViews []string
	// ResidualEdges is the number of single-edge bitmaps still needed.
	ResidualEdges int
	// BitmapsFetched is the structural I/O cost (the paper's unit).
	BitmapsFetched int
	// BitmapsSaved is the reduction versus the view-oblivious plan.
	BitmapsSaved int
	// Partitions is how many sub-relations the query's columns span.
	Partitions int
	// UnknownElements lists query elements never seen by the store; their
	// empty bitmaps force an empty answer.
	UnknownElements []string
}

func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "universe: %d edges\n", ex.Universe)
	fmt.Fprintf(&b, "plan: %d bitmap fetch(es) = %d view(s) + %d aggregate-view filter(s) + %d edge bitmap(s)\n",
		ex.BitmapsFetched, len(ex.Views), len(ex.AggViews), ex.ResidualEdges)
	if len(ex.Views) > 0 {
		fmt.Fprintf(&b, "views: %s\n", strings.Join(ex.Views, " "))
	}
	if len(ex.AggViews) > 0 {
		fmt.Fprintf(&b, "aggregate views: %s\n", strings.Join(ex.AggViews, " "))
	}
	fmt.Fprintf(&b, "saved vs oblivious plan: %d bitmap fetch(es)\n", ex.BitmapsSaved)
	fmt.Fprintf(&b, "partitions spanned: %d\n", ex.Partitions)
	if len(ex.UnknownElements) > 0 {
		fmt.Fprintf(&b, "WARNING: unknown elements (answer will be empty): %s\n",
			strings.Join(ex.UnknownElements, " "))
	}
	return b.String()
}

// Explain computes the execution plan for a graph query without executing
// it and without touching the I/O accounting.
func (e *Engine) Explain(q *GraphQuery) (Explanation, error) {
	if q == nil || q.G == nil || q.G.NumElements() == 0 {
		return Explanation{}, fmt.Errorf("query: empty graph query")
	}
	var unknown []string
	for _, k := range q.G.Elements() {
		if _, ok := e.Reg.Lookup(k); !ok {
			unknown = append(unknown, k.String())
		}
	}
	universe := resolveEdges(e.Reg, q.G)
	e.Rel.BeginRead()
	defer e.Rel.EndRead()
	var plan CoverPlan
	if e.UseViews {
		plan = PlanCover(e.Rel, universe)
	} else {
		plan = PlanWithoutViews(universe)
	}
	return Explanation{
		Universe:        len(universe),
		Views:           plan.Views,
		AggViews:        plan.AggViews,
		ResidualEdges:   len(plan.Edges),
		BitmapsFetched:  plan.NumBitmaps(),
		BitmapsSaved:    len(universe) - plan.NumBitmaps(),
		Partitions:      e.Rel.PartitionSpan(universe),
		UnknownElements: unknown,
	}, nil
}

// ExplainGraph is a convenience wrapper over Explain for a bare graph.
func (e *Engine) ExplainGraph(g *graph.Graph) (Explanation, error) {
	return e.Explain(NewGraphQuery(g))
}
