package bench

import (
	"context"
	"time"

	"grove/internal/graph"
	"grove/internal/graphdb"
	"grove/internal/query"
	"grove/internal/rdfstore"
	"grove/internal/rowstore"
	"grove/internal/workload"
)

// System is the uniform surface the sensitivity experiments (§7.2) sweep
// across: grove's column store and the three comparison systems.
type System interface {
	Name() string
	// RunQuery answers one structural query (given as element keys) and
	// fetches the measures of the matched subgraphs, returning the number
	// of matched records.
	RunQuery(elements []graph.EdgeKey) int
	// DiskSizeBytes reports the (simulated) storage footprint.
	DiskSizeBytes() int64
}

// columnSystem wraps grove's engine; its queries run under the experiment's
// ctx.
type columnSystem struct {
	ctx context.Context
	eng *query.Engine
}

// NewColumnSystem adapts a built dataset to the System interface.
func NewColumnSystem(ctx context.Context, ds *workload.Dataset) System {
	return &columnSystem{ctx: ctx, eng: query.NewEngine(ds.Rel, ds.Reg)}
}

func (c *columnSystem) Name() string { return "Column Store" }

func (c *columnSystem) RunQuery(elements []graph.EdgeKey) int {
	g := graph.NewGraph()
	for _, k := range elements {
		g.AddElement(k)
	}
	res, err := c.eng.ExecuteGraphQueryContext(c.ctx, query.NewGraphQuery(g))
	if err != nil {
		return 0
	}
	res.FetchMeasures()
	return res.NumRecords()
}

func (c *columnSystem) DiskSizeBytes() int64 { return c.eng.Rel.SizeBytes() }

type rowSystem struct{ st *rowstore.Store }

// NewRowSystem loads the dataset's records into the row-store baseline.
func NewRowSystem(records []*graph.Record) System {
	st := rowstore.New()
	for _, r := range records {
		st.AddRecord(r)
	}
	return &rowSystem{st: st}
}

func (r *rowSystem) Name() string { return "Row Store" }

func (r *rowSystem) RunQuery(elements []graph.EdgeKey) int {
	matched := r.st.MatchQuery(elements)
	r.st.FetchMeasures(matched, elements)
	return len(matched)
}

func (r *rowSystem) DiskSizeBytes() int64 { return r.st.DiskSizeBytes() }

type graphSystem struct{ st *graphdb.Store }

// NewGraphSystem loads the dataset's records into the native-graph baseline.
func NewGraphSystem(records []*graph.Record) System {
	st := graphdb.New()
	for _, r := range records {
		st.AddRecord(r)
	}
	return &graphSystem{st: st}
}

func (g *graphSystem) Name() string { return "Neo4j-like Store" }

func (g *graphSystem) RunQuery(elements []graph.EdgeKey) int {
	matched := g.st.MatchQuery(elements)
	g.st.FetchMeasures(matched, elements)
	return len(matched)
}

func (g *graphSystem) DiskSizeBytes() int64 { return g.st.DiskSizeBytes() }

type rdfSystem struct{ st *rdfstore.Store }

// NewRDFSystem loads the dataset's records into the RDF baseline.
func NewRDFSystem(records []*graph.Record) System {
	st := rdfstore.New()
	for _, r := range records {
		st.AddRecord(r)
	}
	st.Freeze()
	return &rdfSystem{st: st}
}

func (r *rdfSystem) Name() string { return "RDF Store" }

func (r *rdfSystem) RunQuery(elements []graph.EdgeKey) int {
	matched := r.st.MatchQuery(elements)
	r.st.FetchMeasures(matched, elements)
	return len(matched)
}

func (r *rdfSystem) DiskSizeBytes() int64 { return r.st.DiskSizeBytes() }

// AllSystems builds the four systems over one dataset (which must have been
// built with KeepRecords).
func AllSystems(ctx context.Context, ds *workload.Dataset) []System {
	return []System{
		NewColumnSystem(ctx, ds),
		NewGraphSystem(ds.Records),
		NewRDFSystem(ds.Records),
		NewRowSystem(ds.Records),
	}
}

// runWorkload executes every query on a system, returning total wall time
// and total matched records.
func runWorkload(sys System, queries [][]graph.EdgeKey) (time.Duration, int) {
	start := time.Now()
	matched := 0
	for _, q := range queries {
		matched += sys.RunQuery(q)
	}
	return time.Since(start), matched
}

// queriesToElements converts query graphs to element-key slices.
func queriesToElements(queries []*graph.Graph) [][]graph.EdgeKey {
	out := make([][]graph.EdgeKey, len(queries))
	for i, q := range queries {
		out[i] = q.Elements()
	}
	return out
}
