package query

import (
	"fmt"
	"strings"
	"sync/atomic"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
)

// NewPathAggQueryAlong builds a path aggregation over one explicit path,
// honouring its open endpoints. The structural filter is the path's edges.
func NewPathAggQueryAlong(p gpath.Path, agg AggFunc, measure string) *PathAggQuery {
	return &PathAggQuery{G: p.ToGraph(), Agg: agg, Measure: measure, Paths: []gpath.Path{p}}
}

// GraphQuery is a graph query Gq (§3.2): a directed graph over the universal
// node schema. A record Gr is in the answer iff Gq ⊆ Gr, which — because
// nodes are named entities — reduces to containment of Gq's structural
// elements.
type GraphQuery struct {
	G *graph.Graph

	// edges, when non-nil, is G's elements already resolved to edge ids (see
	// Resolved); the engine then skips its own registry lookups.
	edges []colstore.EdgeID

	// str caches the rendered query text. The query graph is immutable after
	// construction, so the first render wins; tracing reads it per execution
	// and must not re-render a 16-edge query every time.
	str atomic.Pointer[string]
}

// Resolved returns q with its elements resolved to edge ids against reg, once,
// so that executing it on several engines sharing reg — the shards of one
// store — does not repeat the element sort and the registry lookups per
// engine. The copy shares G and the cached text; an empty or already resolved
// query is returned as is (the engine reports the former).
func (q *GraphQuery) Resolved(reg *graph.Registry) *GraphQuery {
	if q == nil || q.G == nil || q.edges != nil {
		return q
	}
	rq := &GraphQuery{G: q.G, edges: resolveEdges(reg, q.G)}
	rq.str.Store(q.str.Load())
	return rq
}

// NewGraphQuery wraps a query graph.
func NewGraphQuery(g *graph.Graph) *GraphQuery {
	return &GraphQuery{G: g}
}

// FromPath builds the graph query for a single path, e.g. Q1's
// [A,D,E,G,I] (§2).
func FromPath(p gpath.Path) *GraphQuery {
	return &GraphQuery{G: p.ToGraph()}
}

// MaximalPaths returns the maximal source→terminal paths of the query graph.
func (q *GraphQuery) MaximalPaths() ([]gpath.Path, error) {
	return gpath.MaximalPaths(q.G)
}

func (q *GraphQuery) String() string {
	if s := q.str.Load(); s != nil {
		return *s
	}
	elems := q.G.Elements()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = e.String()
	}
	s := "Gq{" + strings.Join(parts, " ") + "}"
	q.str.Store(&s)
	return s
}

// PathAggQuery is a path aggregation query F_Gq (§3.4): it retrieves the
// records matching Gq and applies Agg along every maximal path of Gq.
// Measure selects which measure to aggregate ("" = the default measure;
// multi-measure records also expose named measures such as "time" or
// "cost", §3.1).
type PathAggQuery struct {
	G       *graph.Graph
	Agg     AggFunc
	Measure string
	// Paths, when non-empty, overrides the default aggregation targets (the
	// maximal paths of G) with explicit — possibly open-ended — paths, e.g.
	// (D,E,G) to exclude endpoint node measures (§3.3).
	Paths []gpath.Path

	// edges and pathEdges are the pre-resolved form Resolved fills: G's
	// elements and, aligned with Paths, every path's edge sequence as edge ids.
	edges     []colstore.EdgeID
	pathEdges [][]colstore.EdgeID

	// str caches the rendered query text (see GraphQuery.str).
	str atomic.Pointer[string]
}

// Resolved is GraphQuery.Resolved for a path aggregation: besides the
// structural elements it derives the maximal paths (when Paths does not name
// explicit ones) and resolves every path's edges, all once against reg. It
// never fails: a graph whose paths cannot be derived is left for the engine
// to reject, in the engine's own order of checks.
func (q *PathAggQuery) Resolved(reg *graph.Registry) *PathAggQuery {
	if q == nil || q.G == nil || q.edges != nil {
		return q
	}
	rq := &PathAggQuery{G: q.G, Agg: q.Agg, Measure: q.Measure, Paths: q.Paths, edges: resolveEdges(reg, q.G)}
	rq.str.Store(q.str.Load())
	if len(rq.Paths) == 0 {
		paths, err := gpath.MaximalPaths(q.G)
		if err != nil {
			return rq
		}
		rq.Paths = paths
	}
	rq.pathEdges = resolvePathEdges(reg, rq.Paths)
	return rq
}

// NewPathAggQuery builds a path aggregation query over the default measure.
func NewPathAggQuery(g *graph.Graph, agg AggFunc) *PathAggQuery {
	return &PathAggQuery{G: g, Agg: agg}
}

// NewPathAggQueryOn builds a path aggregation query over a named measure.
func NewPathAggQueryOn(g *graph.Graph, agg AggFunc, measure string) *PathAggQuery {
	return &PathAggQuery{G: g, Agg: agg, Measure: measure}
}

func (q *PathAggQuery) String() string {
	if s := q.str.Load(); s != nil {
		return *s
	}
	var s string
	if q.Measure != "" {
		s = fmt.Sprintf("%s[%s]_%s", q.Agg.Name, q.Measure, (&GraphQuery{G: q.G}).String())
	} else {
		s = fmt.Sprintf("%s_%s", q.Agg.Name, (&GraphQuery{G: q.G}).String())
	}
	q.str.Store(&s)
	return s
}

// Expr is a boolean combination of graph queries (§3.2):
// [Gq1 AND Gq2] = [Gq1] ∩ [Gq2], [Gq1 OR Gq2] = [Gq1] ∪ [Gq2],
// [Gq1 AND NOT Gq2] = [Gq1] − [Gq2].
type Expr interface {
	exprNode()
	String() string
}

// Leaf is a single graph query in an expression.
type Leaf struct {
	Q *GraphQuery
}

// And intersects the answer sets of its operands.
type And struct {
	Operands []Expr
}

// Or unions the answer sets of its operands.
type Or struct {
	Operands []Expr
}

// Diff is A AND NOT B.
type Diff struct {
	A Expr
	B Expr
}

func (Leaf) exprNode() {}
func (And) exprNode()  {}
func (Or) exprNode()   {}
func (Diff) exprNode() {}

func (l Leaf) String() string { return l.Q.String() }

func (a And) String() string { return exprList("AND", a.Operands) }

func (o Or) String() string { return exprList("OR", o.Operands) }

func (d Diff) String() string {
	return "(" + d.A.String() + " AND NOT " + d.B.String() + ")"
}

func exprList(op string, operands []Expr) string {
	parts := make([]string, len(operands))
	for i, o := range operands {
		parts[i] = o.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}
