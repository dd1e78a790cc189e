// Package grove is a storage and analytics engine for massive collections of
// small graph records, reproducing "Graph Analytics on Massive Collections
// of Small Graphs" (Bleco & Kotidis, EDBT 2014).
//
// A grove Store keeps every graph record flattened into a column-oriented
// master relation: one measure column and one compressed bitmap column per
// named edge. Graph queries — themselves graphs — are answered by ANDing
// bitmap columns; path-aggregation queries fold measures along the maximal
// paths of the query graph. Materialized graph views (precomputed bitmap
// conjunctions) and aggregate graph views (pre-aggregated path measures) are
// selected with a greedy set-cover advisor and transparently reused by the
// query rewriter.
//
// Quick start:
//
//	st := grove.Open()
//	rec := grove.NewRecord()
//	rec.SetEdge("A", "D", 3.5) // shipping leg A→D took 3.5h
//	st.Add(rec)
//
//	path := grove.PathOf("A", "D", "E").ToGraph()
//	res, _ := st.Match(path)                // records routed via A→D→E
//	agg, _ := st.Aggregate(path, grove.Sum) // total time per record
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package grove

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
	"grove/internal/shard"
	"grove/internal/view"
)

// Re-exported building blocks. Aliases keep the public API a single import
// while the implementation stays in internal packages.
type (
	// Record is one graph record: a directed graph whose nodes and edges
	// carry measures.
	Record = graph.Record
	// Graph is a bare directed graph, used as a query body.
	Graph = graph.Graph
	// EdgeKey names a structural element; nodes are the self-edge [X,X].
	EdgeKey = graph.EdgeKey
	// Path is an (optionally open-ended) node sequence.
	Path = gpath.Path
	// AggFunc is a distributive aggregate function for path aggregation.
	AggFunc = query.AggFunc
	// Result is a graph query answer.
	Result = query.Result
	// AggResult is a path-aggregation answer.
	AggResult = query.AggResult
	// ScalarAggResult is the answer of a scalar path aggregation — a single
	// fold across every matching record, with block-skipping statistics.
	ScalarAggResult = query.ScalarAggResult
	// StorageStats is the storage-residency snapshot of the measure columns:
	// logical vs. on-disk vs. resident bytes and buffer pool counters.
	StorageStats = colstore.StorageStats
	// IOStats is the I/O accounting snapshot of the underlying column store.
	IOStats = colstore.Stats
	// Bitmap is a compressed record-id set.
	Bitmap = bitmap.Bitmap
)

// Aggregate functions.
var (
	Sum   = query.Sum
	Min   = query.Min
	Max   = query.Max
	Count = query.Count
)

// NewRecord returns an empty graph record.
func NewRecord() *Record { return graph.NewRecord() }

// NewGraph returns an empty query graph.
func NewGraph() *Graph { return graph.NewGraph() }

// PathOf builds a closed path over the given nodes.
func PathOf(nodes ...string) Path { return gpath.Closed(nodes...) }

// OpenPath builds a fully open path (endpoint node measures excluded).
func OpenPath(nodes ...string) Path { return gpath.Open(nodes...) }

// FlattenSequence converts a visit sequence with per-leg measures into an
// acyclic record (revisited nodes get occurrence aliases).
func FlattenSequence(stops []string, legMeasures []float64) (*Record, error) {
	return graph.FlattenSequence(stops, legMeasures)
}

// Store is a collection of graph records with bitmap indexes and
// materialized graph views. Queries and mutations may run concurrently:
// each shard's relation takes its write lock inside every mutator and
// queries hold its read lock for their whole execution, so answers are
// always consistent with a single store version. For parallel batches use
// ExecuteBatch / AggregateBatch (see DESIGN.md, "Concurrency model").
//
// A store opened with Open has one shard; NewSharded partitions the records
// across N shards so writes on different shards proceed concurrently. A
// single query scatter-gathers across the shards in parallel; a batch runs
// query-major — each worker takes a query, runs it on every shard in turn
// and merges the partials itself (DESIGN.md §12). Answers are bit-identical
// regardless of the shard count.
type Store struct {
	coord *shard.Coordinator

	// rel and eng are shard 0's relation and engine — the whole store when
	// NumShards() == 1, and the plan/advisor representative otherwise
	// (shards share the schema and views, so shard 0's plans stand for all).
	rel *colstore.Relation
	reg *graph.Registry
	eng *query.Engine

	// metrics is created lazily by Metrics (observe.go); nil until then, and
	// the query path pays nothing while it is.
	metrics *MetricsRegistry

	// rec is the active workload recorder (record.go); nil unless recording
	// is on, and the query path pays one atomic load while it is.
	rec atomic.Pointer[obs.WorkloadRecorder]
}

// newStore wraps a coordinator as a Store and applies the engine
// configuration once, before any query can run: the settings below have no
// setter, so a running query never sees them change.
func newStore(c *shard.Coordinator, o options) *Store {
	if o.noViews {
		c.DisableViews()
	}
	if o.cache {
		c.EnableCache(o.cacheCapacity)
	}
	if o.snapshotKeep > 0 {
		c.SetSnapshotKeep(o.snapshotKeep)
	}
	if o.parallelPaths {
		c.EnableParallelPaths()
	}
	return &Store{coord: c, rel: c.Unit(0).Rel, reg: c.Registry(), eng: c.Unit(0).Eng}
}

// Option configures a store at construction: Open, NewSharded, LoadStore and
// OpenDurable all accept every option.
type Option func(*options)

type options struct {
	partitionWidth int
	noViews        bool
	cache          bool
	cacheCapacity  int
	snapshotKeep   int
	parallelPaths  bool
}

func parseOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithPartitionWidth overrides the vertical partition width (the maximum
// number of edge columns per sub-relation; default 1000). A loaded store
// keeps the width it was saved with.
func WithPartitionWidth(w int) Option {
	return func(o *options) { o.partitionWidth = w }
}

// WithoutViews turns off view-aware query rewriting: queries read base
// columns even where a materialized view covers them.
func WithoutViews() Option {
	return func(o *options) { o.noViews = true }
}

// WithResultCache attaches a bounded structural-answer cache (capacity ≤ 0
// selects a default; a sharded store splits the capacity across per-shard
// caches). A mutation invalidates only the mutated shard's slice, so cached
// answers are always exact. Stats().Cache reports its counters.
func WithResultCache(capacity int) Option {
	return func(o *options) { o.cache, o.cacheCapacity = true, capacity }
}

// WithSnapshotKeep sets how many snapshot generations Save retains on disk
// (older ones are garbage-collected after each successful Save); n < 1 keeps
// the default of colstore.DefaultSnapshotKeep. Keeping at least two means
// Load can fall back to the previous generation if the newest is damaged.
func WithSnapshotKeep(n int) Option {
	return func(o *options) { o.snapshotKeep = n }
}

// WithParallelPaths runs the paths of a multi-path aggregation query
// concurrently. Answers are identical to the sequential plan; it only engages
// while query tracing is disabled, since a lifecycle trace records per-path
// phase spans in order.
func WithParallelPaths() Option {
	return func(o *options) { o.parallelPaths = true }
}

// Open creates an empty single-shard store.
func Open(opts ...Option) *Store {
	o := parseOptions(opts)
	return newStore(shard.New(1, o.partitionWidth), o)
}

// NewSharded creates an empty store partitioned into n shards (n < 1 selects
// runtime.GOMAXPROCS(0)). Records are placed round-robin, so the global
// record ids a sequentially-loaded store assigns do not depend on n, and
// every query answer is bit-identical to a single-shard store's. n = 1 is
// exactly Open.
func NewSharded(n int, opts ...Option) *Store {
	o := parseOptions(opts)
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return newStore(shard.New(n, o.partitionWidth), o)
}

// Add appends a record, returning its record id. Cyclic records are
// flattened to DAGs first. Concurrent Adds landing on different shards of a
// sharded store proceed in parallel. Add is Append minus the error: under a
// write-ahead log the record is logged the same way, and a log failure
// latches and surfaces through WALError instead of per call.
func (s *Store) Add(rec *Record) uint32 {
	return s.coord.Add(rec)
}

// GetRecord reconstructs a stored record from the master relation's columns:
// its structural elements from the bitmap columns and its measures (default
// and named) from the measure columns. Aliased nodes from DAG flattening
// (A#2) appear under their aliases.
func (s *Store) GetRecord(id uint32) (*Record, error) {
	si, local, err := s.coord.Locate(id)
	if err != nil {
		return nil, fmt.Errorf("grove: record %d out of range (have %d)", id, s.coord.NumRecords())
	}
	rel := s.coord.Unit(si).Rel
	rel.BeginRead() //grovevet:ignore lockorder paged columns may fault value blocks from disk during Get; that I/O happens under the read lock by design (readers proceed, only writers wait) and the reconstruction must see one consistent cut
	defer rel.EndRead()
	if int(local) >= rel.NumRecords() {
		return nil, fmt.Errorf("grove: record %d out of range (have %d)", id, s.coord.NumRecords())
	}
	rec := graph.NewRecord()
	names := rel.MeasureNames()
	for eid := colstore.EdgeID(0); int(eid) < s.reg.Len(); eid++ {
		b := rel.EdgeBitmap(eid)
		if b == nil || !b.Contains(local) {
			continue
		}
		k, _ := s.reg.Key(eid)
		if col := rel.MeasureColumn(eid); col != nil {
			if v, ok := col.Get(local); ok {
				if err := rec.SetElement(k, v); err != nil {
					return nil, err
				}
			} else {
				rec.AddBareElement(k)
			}
		} else {
			rec.AddBareElement(k)
		}
		for _, name := range names {
			if col := rel.MeasureColumnNamed(eid, name); col != nil {
				if v, ok := col.Get(local); ok {
					if err := rec.SetElementNamed(k, name, v); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return rec, nil
}

// WriteDOT renders a graph (and optionally a record's measures) in Graphviz
// DOT format.
func WriteDOT(w io.Writer, name string, g *Graph, rec *Record) error {
	return graph.WriteDOT(w, name, g, rec)
}

// Delete soft-deletes a record: it disappears from every subsequent query
// answer (the columns keep its values; the record id is masked out). Returns
// whether the record was live.
func (s *Store) Delete(rec uint32) (bool, error) { return s.coord.Delete(rec) }

// Undelete restores a soft-deleted record.
func (s *Store) Undelete(rec uint32) bool { return s.coord.Undelete(rec) }

// NumRecords returns the number of stored records across all shards.
func (s *Store) NumRecords() int { return s.coord.NumRecords() }

// StoreStats summarizes a store, Table 2 style. All counts and sizes
// aggregate across every shard of a sharded store.
type StoreStats struct {
	Records       int
	Deleted       int // soft-deleted records
	DistinctEdges int // size of the edge-id universe seen so far
	TotalMeasures int64
	// MeasureNames lists the named measures (the default measure is always
	// present and unnamed).
	MeasureNames []string
	// BaseSizeBytes + ViewSizeBytes is the in-memory payload size.
	BaseSizeBytes int64
	ViewSizeBytes int64
	// ViewNames and AggViewNames list the materialized graph and aggregate
	// views.
	ViewNames    []string
	AggViewNames []string
	Partitions   int
	Shards       int
	TagKeys      []string
	// Storage is the paged-columnar residency breakdown: logical vs.
	// on-disk vs. resident measure bytes and buffer pool counters, summed
	// across shards.
	Storage StorageStats
	// Cache holds the result cache's cumulative counters (zero without
	// WithResultCache).
	Cache CacheStats
	// ViewUsage counts, per materialized view (graph and aggregate), how
	// many times it answered part of a query.
	ViewUsage map[string]int64
}

// Stats returns the store's summary statistics, aggregated across shards.
func (s *Store) Stats() StoreStats {
	graphViews, aggViews := s.viewNames()
	return StoreStats{
		Records:       s.coord.NumRecords(),
		Deleted:       s.coord.NumDeleted(),
		DistinctEdges: s.reg.Len(),
		TotalMeasures: s.coord.TotalMeasures(),
		MeasureNames:  s.coord.MeasureNames(),
		BaseSizeBytes: s.coord.BaseSizeBytes(),
		ViewSizeBytes: s.coord.ViewSizeBytes(),
		ViewNames:     graphViews,
		AggViewNames:  aggViews,
		Partitions:    s.coord.MaxPartitions(),
		Shards:        s.coord.NumShards(),
		TagKeys:       s.coord.TagKeys(),
		Storage:       s.coord.StorageStats(),
		Cache:         s.coord.CacheStats(),
		ViewUsage:     s.coord.ViewUsage(),
	}
}

// StorageStats returns the measure-storage residency snapshot summed across
// shards: how many bytes the columns represent logically, occupy encoded on
// disk, and hold decoded in memory right now, plus the buffer pool's
// hit/miss/eviction counters.
func (s *Store) StorageStats() StorageStats { return s.coord.StorageStats() }

// SetPageCacheBytes bounds the decoded-block buffer pool. The budget is
// split evenly across shards; ≤ 0 removes the bound. Shrinking below current
// residency evicts clock-style on the next block fault. Loaded paged stores
// default to DefaultPageCacheBytes.
func (s *Store) SetPageCacheBytes(n int64) { s.coord.SetPageCacheBytes(n) }

// DefaultPageCacheBytes is the buffer pool budget a freshly loaded paged
// store starts with (split across shards).
const DefaultPageCacheBytes = colstore.DefaultPageCacheBytes

// PageError returns the first sticky page-fault error, if lazily loading any
// value block from the snapshot has failed. Queries that touched a failed
// column already returned that error; this surfaces it for health checks.
func (s *Store) PageError() error { return s.coord.PageError() }

// Close releases the snapshot file handles a loaded store pages value blocks
// from. The store remains usable — columns already resident stay readable,
// and a subsequent block fault reopens its file — so Close is about
// releasing descriptors, not ending the store's life.
func (s *Store) Close() error { return s.coord.Close() }

// Optimize recompresses all bitmap columns on every shard; call after bulk
// loading.
func (s *Store) Optimize() { s.coord.Optimize() }

// Match answers a graph query: the records containing the query graph. On a
// sharded store the query fans out across every shard in parallel and the
// answer is the union of the per-shard answers.
func (s *Store) Match(g *Graph) (*Result, error) {
	return s.MatchContext(context.Background(), g)
}

// MatchContext is Match with cancellation: the engine checks ctx between
// bitmap fetches and abandons the query with ctx's error once cancelled
// (recorded as a "cancelled" span when tracing is on). On a sharded store a
// cancellation promptly abandons every shard's sub-query.
func (s *Store) MatchContext(ctx context.Context, g *Graph) (*Result, error) {
	q := query.NewGraphQuery(g)
	rec := s.rec.Load()
	if rec == nil {
		return s.coord.MatchContext(ctx, q)
	}
	start := time.Now()
	res, err := s.coord.MatchContext(ctx, q)
	s.recordMatch(rec, q, start, res, err)
	return res, err
}

// ExecuteBatch answers a batch of graph queries, fanning them across a
// worker pool of the given size (workers ≤ 0 selects runtime.NumCPU(); 1
// runs sequentially). Results arrive in query order and are bit-for-bit
// identical to a sequential run; workers share the store's result cache.
// On a sharded store workers is still the batch's total concurrency: the
// worker that takes a query runs its shard sub-queries inline and merges
// them, so shards add no goroutines. The paper's experiments all evaluate
// batches of 100 queries — this is the parallel path for that shape of
// workload.
func (s *Store) ExecuteBatch(graphs []*Graph, workers int) ([]*Result, error) {
	results, errs := s.ExecuteBatchContext(context.Background(), graphs, workers)
	if err := firstBatchError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstBatchError mirrors the batch executor's error policy: the first
// failing query aborts the batch result, labelled with its index.
func firstBatchError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// ExecuteBatchContext is ExecuteBatch with cancellation and per-query
// errors: result slot i and error slot i belong to graphs[i]. Queries not
// yet started when ctx is cancelled fail promptly with ctx's error, and a
// panicking query surfaces as its own error while the rest of the batch
// completes.
func (s *Store) ExecuteBatchContext(ctx context.Context, graphs []*Graph, workers int) ([]*Result, []error) {
	queries := make([]*query.GraphQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewGraphQuery(g)
	}
	rec := s.rec.Load()
	if rec == nil {
		return s.coord.ExecuteGraphBatchContext(ctx, queries, workers)
	}
	start := time.Now()
	results, errs := s.coord.ExecuteGraphBatchContext(ctx, queries, workers)
	s.recordGraphBatch(rec, queries, start, results, errs)
	return results, errs
}

// AggregateBatch answers a batch of path-aggregation queries (f folded along
// every maximal path of each graph) across a worker pool, with the same
// ordering and determinism guarantees as ExecuteBatch.
func (s *Store) AggregateBatch(graphs []*Graph, f AggFunc, workers int) ([]*AggResult, error) {
	results, errs := s.AggregateBatchContext(context.Background(), graphs, f, workers)
	if err := firstBatchError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// AggregateBatchContext is AggregateBatch with cancellation and per-query
// errors, in the manner of ExecuteBatchContext.
func (s *Store) AggregateBatchContext(ctx context.Context, graphs []*Graph, f AggFunc, workers int) ([]*AggResult, []error) {
	queries := make([]*query.PathAggQuery, len(graphs))
	for i, g := range graphs {
		queries[i] = query.NewPathAggQuery(g, f)
	}
	rec := s.rec.Load()
	if rec == nil {
		return s.coord.ExecutePathAggBatchContext(ctx, queries, workers)
	}
	start := time.Now()
	results, errs := s.coord.ExecutePathAggBatchContext(ctx, queries, workers)
	s.recordAggBatch(rec, queries, start, results, errs)
	return results, errs
}

// Aggregate answers a path-aggregation query: it matches g and folds f along
// every maximal path of g for every matching record.
func (s *Store) Aggregate(g *Graph, f AggFunc) (*AggResult, error) {
	return s.AggregateContext(context.Background(), g, f)
}

// AggregateContext is Aggregate with cancellation, checked between bitmap
// fetches and between per-path aggregation chunks.
func (s *Store) AggregateContext(ctx context.Context, g *Graph, f AggFunc) (*AggResult, error) {
	return s.aggregateQuery(ctx, query.NewPathAggQuery(g, f))
}

// aggregateQuery is the funnel every path-aggregation facade goes through, so
// workload recording sees each of them.
func (s *Store) aggregateQuery(ctx context.Context, q *query.PathAggQuery) (*AggResult, error) {
	rec := s.rec.Load()
	if rec == nil {
		return s.coord.AggregateContext(ctx, q)
	}
	start := time.Now()
	res, err := s.coord.AggregateContext(ctx, q)
	s.recordAgg(rec, q, start, res, err)
	return res, err
}

// AggregateMeasure is Aggregate over a named measure — e.g. fold "cost"
// instead of the default measure when records carry several measures per
// element (§3.1).
func (s *Store) AggregateMeasure(g *Graph, f AggFunc, measure string) (*AggResult, error) {
	return s.aggregateQuery(context.Background(), query.NewPathAggQueryOn(g, f, measure))
}

// errShortPath rejects a path aggregation over fewer than two nodes.
var errShortPath = errors.New("grove: a path aggregation needs at least 2 nodes")

// AggregateAlong aggregates f along one explicit path, honouring open
// endpoints: an open end excludes that endpoint node's own measure (§3.3's
// interval semantics, e.g. (D,E,G) for "from departure at D to arrival at
// G"). measure selects the measure ("" = default).
func (s *Store) AggregateAlong(f AggFunc, p Path, measure string) (*AggResult, error) {
	if len(p.Nodes) < 2 {
		return nil, errShortPath
	}
	return s.aggregateQuery(context.Background(), query.NewPathAggQueryAlong(p, f, measure))
}

// AggregateScalar folds f across every record matching g — the scalar answer
// "what is the MIN/MAX/SUM over all matching records", not the per-record
// rows Aggregate returns. For MIN and MAX over paged columns the engine
// answers with a zone-map block-skipping scan that reads only blocks whose
// [min,max] range could still change the answer; the result is bit-identical
// to folding Aggregate's rows. Scalar queries are an execution strategy, not
// a distinct workload shape, so they bypass the workload recorder.
func (s *Store) AggregateScalar(g *Graph, f AggFunc) (*ScalarAggResult, error) {
	return s.AggregateScalarContext(context.Background(), g, f)
}

// AggregateScalarContext is AggregateScalar with cancellation.
func (s *Store) AggregateScalarContext(ctx context.Context, g *Graph, f AggFunc) (*ScalarAggResult, error) {
	return s.coord.AggregateScalarContext(ctx, query.NewPathAggQuery(g, f))
}

// Expr is a boolean combination of graph queries.
type Expr = query.Expr

// Q wraps a query graph as an expression leaf.
func Q(g *Graph) Expr { return query.Leaf{Q: query.NewGraphQuery(g)} }

// QPath wraps a path query as an expression leaf.
func QPath(nodes ...string) Expr { return Q(PathOf(nodes...).ToGraph()) }

// And intersects the answer sets of the operands.
func And(operands ...Expr) Expr { return query.And{Operands: operands} }

// Or unions the answer sets of the operands.
func Or(operands ...Expr) Expr { return query.Or{Operands: operands} }

// AndNot returns records matching a but not b.
func AndNot(a, b Expr) Expr { return query.Diff{A: a, B: b} }

// Eval evaluates a boolean combination of graph queries, returning the
// matching record ids. Boolean operators distribute over the disjoint shard
// partition, so a sharded store evaluates the whole expression on every
// shard in parallel and unions the answers.
func (s *Store) Eval(e Expr) (*Bitmap, error) {
	rec := s.rec.Load()
	if rec == nil {
		return s.coord.EvalExprContext(context.Background(), e)
	}
	start := time.Now()
	ids, err := s.coord.EvalExprContext(context.Background(), e)
	s.recordEval(rec, e, start, ids, err)
	return ids, err
}

// LeafGraphs returns the query graphs at the leaves of a boolean expression,
// in syntactic order — the unit a view-advisor workload is built from.
func LeafGraphs(e Expr) []*Graph {
	switch x := e.(type) {
	case query.Leaf:
		return []*Graph{x.Q.G}
	case query.And:
		var out []*Graph
		for _, op := range x.Operands {
			out = append(out, LeafGraphs(op)...)
		}
		return out
	case query.Or:
		var out []*Graph
		for _, op := range x.Operands {
			out = append(out, LeafGraphs(op)...)
		}
		return out
	case query.Diff:
		return append(LeafGraphs(x.A), LeafGraphs(x.B)...)
	default:
		return nil
	}
}

// ParseWorkload parses a newline-separated list of query statements (the
// text query language; '#' starts a comment line) into the query graphs of a
// view-advisor workload. Aggregation statements contribute their path
// graphs; boolean statements contribute every leaf.
func ParseWorkload(r io.Reader) ([]*Graph, error) {
	var out []*Graph
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		stmt, err := query.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("grove: workload line %d: %w", line, err)
		}
		if stmt.Agg != nil {
			out = append(out, stmt.Agg.G)
		} else {
			out = append(out, LeafGraphs(stmt.Expr)...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Explanation describes a query's execution plan without running it.
type Explanation = query.Explanation

// Explain computes the execution plan (rewriting outcome, bitmap cost,
// partition span) for a graph query without executing it.
func (s *Store) Explain(g *Graph) (Explanation, error) {
	return s.eng.ExplainGraph(g)
}

// QueryResult is the answer of a textual Query: exactly one of IDs (boolean
// structural query) or Agg (path aggregation) is set.
type QueryResult struct {
	IDs *Bitmap
	Agg *AggResult
}

// Query parses and executes one statement of grove's text query language:
//
//	[A,D,E] AND NOT [C,H]      boolean combination of path queries
//	SUM [A,D,E,G,I]            path aggregation (SUM|MIN|MAX|COUNT)
//	MAX<cost> [C,H]            aggregation over a named measure
//
// Keywords are case-insensitive; parentheses group.
func (s *Store) Query(text string) (*QueryResult, error) {
	rec := s.rec.Load()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	res, err := s.coord.ExecuteStatementContext(context.Background(), text)
	if err != nil {
		if rec != nil {
			s.recordStatement(rec, text, start, nil, err)
		}
		return nil, err
	}
	out := &QueryResult{IDs: res.IDs, Agg: res.Agg}
	if rec != nil {
		s.recordStatement(rec, text, start, out, nil)
	}
	return out, nil
}

// PathsThrough returns the composite path [Src(g),Src(region)) ⋈
// [Src(region),Ter(region)] ⋈ (Ter(region),Ter(g)] — every maximal path of
// the query graph g that traverses the region (§3.3). With visitAll, only
// paths visiting every region node are kept.
func PathsThrough(g, region *Graph, visitAll bool) ([]Path, error) {
	var opts []gpath.RegionOption
	if visitAll {
		opts = append(opts, gpath.VisitAllRegionNodes())
	}
	comp, err := gpath.PathsThrough(g, region, opts...)
	if err != nil {
		return nil, err
	}
	return comp.Paths, nil
}

// Coalesce returns a copy of g with the region's nodes collapsed into a
// single aggregate node (the zoom-out operator motivating aggregate views,
// §2): internal region edges are hidden, boundary edges are redirected.
func Coalesce(g, region *Graph, aggNode string) (*Graph, error) {
	return gpath.Coalesce(g, region, aggNode)
}

// --- record metadata --------------------------------------------------------

// Tag attaches a key=value metadata tag to a record (§3.1: metadata links
// sub-orders, carries order types, etc.). Tags are indexed as bitmap columns,
// so they combine with structural answers at bitmap speed.
func (s *Store) Tag(rec uint32, key, value string) error {
	return s.coord.Tag(rec, key, value)
}

// TaggedWith returns the records tagged key=value, across all shards.
func (s *Store) TaggedWith(key, value string) *Bitmap {
	return s.coord.TaggedWith(key, value)
}

// --- materialized views -------------------------------------------------------

// AdvisorOptions tunes view selection.
type AdvisorOptions struct {
	// MinSup ≥ 2 switches candidate generation to the a-priori
	// frequent-itemset formulation with that minimum support; below 2 the
	// exhaustive intersection-closure generator is used.
	MinSup int
}

// AdvisorReport describes a proposed view selection: per-view usage and the
// workload's bitmap cost before/after rewriting.
type AdvisorReport = view.SelectionReport

// AdviseGraphViews runs view selection for the workload WITHOUT
// materializing anything, returning a report of what the advisor would
// build and what it would save.
func (s *Store) AdviseGraphViews(workload []*Graph, k int, opts AdvisorOptions) (AdvisorReport, error) {
	adv := &view.Advisor{Rel: s.rel, Reg: s.reg, MinSup: opts.MinSup}
	selected, err := adv.SelectGraphViews(workload, k)
	if err != nil {
		return AdvisorReport{}, err
	}
	return view.Report(selected, adv.WorkloadEdgeSets(workload)), nil
}

// RenderAdvice writes an AdvisorReport with edge ids resolved back to their
// element names.
func (s *Store) RenderAdvice(w io.Writer, rep AdvisorReport) error {
	return rep.Render(w, func(es view.EdgeSet) string {
		parts := make([]string, 0, len(es))
		for _, id := range es {
			if k, ok := s.reg.Key(id); ok {
				parts = append(parts, k.String())
			}
		}
		return strings.Join(parts, " ")
	})
}

// MaterializeGraphViews selects (greedy set cover over the workload) and
// materializes up to k graph views, returning their names. View selection is
// purely workload-driven, so a sharded store selects once and materializes
// the same views on every shard.
func (s *Store) MaterializeGraphViews(workload []*Graph, k int, opts AdvisorOptions) ([]string, error) {
	return s.coord.MaterializeGraphViews(workload, k, opts.MinSup)
}

// MaterializeAggViews selects and materializes up to k aggregate graph views
// for aggregate function f, returning their names.
func (s *Store) MaterializeAggViews(workload []*Graph, f AggFunc, k int, opts AdvisorOptions) ([]string, error) {
	return s.coord.MaterializeAggViews(workload, f, k, opts.MinSup)
}

// MaterializeView materializes one graph view over the given edges by name
// (on every shard of a sharded store).
func (s *Store) MaterializeView(name string, g *Graph) error {
	return s.coord.MaterializeView(name, s.reg.GraphIDs(g))
}

// MaterializeAggViewPath materializes one aggregate view for f over measure
// ("" = default) along the closed path over the given nodes.
func (s *Store) MaterializeAggViewPath(name string, f AggFunc, measure string, nodes ...string) error {
	p := PathOf(nodes...)
	edges := make([]colstore.EdgeID, 0, p.Len())
	for _, k := range p.Edges() {
		edges = append(edges, s.reg.ID(k))
	}
	return s.coord.MaterializeAggViewOn(name, edges, f, measure)
}

// ClusterColumns recomputes the vertical-partition assignment of the master
// relation's columns around a query workload (the §6.1 clustering
// extension), so that records touched by workload queries are reassembled
// from fewer sub-relations.
func (s *Store) ClusterColumns(workload []*Graph) error {
	queries := make([][]colstore.EdgeID, len(workload))
	for i, g := range workload {
		queries[i] = s.reg.GraphIDs(g)
	}
	return s.coord.ClusterPartitions(queries)
}

// DropAllViews removes every materialized view on every shard.
func (s *Store) DropAllViews() { s.coord.DropAllViews() }

// viewNames lists the materialized graph and aggregate views by name.
func (s *Store) viewNames() (graphViews, aggViews []string) {
	for _, v := range s.rel.Views() {
		graphViews = append(graphViews, v.Name)
	}
	for _, v := range s.rel.AggViews() {
		aggViews = append(aggViews, v.Name)
	}
	return graphViews, aggViews
}

// --- persistence & accounting --------------------------------------------------

// Save commits the store (registry, columns, views) to dir as one crash-safe
// cut: every shard's relation lands as a new snapshot generation and the
// cut's commit point — the CURRENT flip of a single-shard store, the
// SHARDS.json manifest of a sharded one — is written last, so a crash
// mid-save leaves the previous cut intact and loadable (DESIGN.md §11 has the
// protocol and the two layouts). A single-shard store refuses, with
// ErrShadowedSave, a directory that already holds a sharded store.
//
// With a write-ahead log enabled on dir, Save is a checkpoint (DESIGN.md
// §14): ingest stalls, the cut commits, and past the commit point the log
// truncates, pinned to the new generation. Saving a WAL-enabled store to a
// *different* directory writes an ordinary full snapshot there and leaves
// the log untouched.
func (s *Store) Save(dir string) error {
	if s.coord.WALEnabled() && cleanPath(dir) == cleanPath(s.coord.WALDir()) {
		return s.coord.Checkpoint()
	}
	return s.coord.Save(dir)
}

// ErrShadowedSave is returned by Save, EnableWAL and OpenDurable when a
// single-shard store would be written into a directory that holds a sharded
// store: LoadStore follows the sharded manifest first, so the new cut would
// commit and then never be read. Save to a fresh directory instead.
var ErrShadowedSave = shard.ErrShadowedSave

// GenerationInfo describes one on-disk snapshot generation of a saved
// store, as reported by Generations.
type GenerationInfo = colstore.GenerationInfo

// Generations inventories the snapshot generations of a saved store, newest
// first, verifying each one's checksum. It reads the directory directly —
// no Store needs to load — so it works on damaged stores.
func Generations(dir string) ([]GenerationInfo, error) { return colstore.Generations(dir) }

// CurrentGeneration returns the generation name the CURRENT pointer of a
// single-shard store directory designates, or "" when the pointer is missing
// or corrupt.
func CurrentGeneration(dir string) string { return colstore.CurrentGeneration(dir) }

// Rollback force-installs gen (e.g. "gen-000001") as the store's current
// snapshot generation. The target must exist and pass checksum
// verification. Like Generations it operates on the directory, so a store
// whose newest generation is unloadable can be rolled back without loading.
func Rollback(dir, gen string) error { return colstore.Rollback(dir, gen) }

// LoadStore reads a store previously written with Save, whichever layout it
// has, at its committed cut. A write-ahead log next to a shard's snapshot
// (wal.log) replays atop it when its header pins the loaded generation,
// recovering every op the log persisted since the last checkpoint; torn
// tails stop the replay at the last whole frame. LoadStore never modifies
// the directory — truncating a torn tail is EnableWAL's job. opts configure
// the loaded store as they do Open.
func LoadStore(dir string, opts ...Option) (*Store, error) {
	coord, err := shard.Load(dir)
	if err != nil {
		return nil, err
	}
	return newStore(coord, parseOptions(opts)), nil
}

// ResetIOStats zeroes the I/O accounting counters on every shard.
func (s *Store) ResetIOStats() { s.coord.ResetIOStats() }

// IOStatsSnapshot returns the current I/O accounting counters, summed
// across all shards.
func (s *Store) IOStatsSnapshot() IOStats { return s.coord.IOStats() }
