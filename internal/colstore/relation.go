package colstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/pagepool"
)

// EdgeID identifies a structural element (edge or node — a node X is the
// special edge [X,X], §4.1) in the universal numbering scheme shared by all
// records and queries.
type EdgeID uint32

// DefaultPartitionWidth is the paper's vertical-partitioning bound: the
// master relation is automatically broken into sub-relations of at most one
// thousand (edge) columns each (§6.1).
const DefaultPartitionWidth = 1000

// GraphView is a materialized graph view (§5.1.1): a single bitmap column
// b_v whose bit r is set iff record r contains every edge in Edges.
type GraphView struct {
	Name  string
	Edges []EdgeID // sorted, unique
	Col   *BitmapColumn

	// uses counts query-visible fetches of the view's columns since the
	// view was created — the evidence a view advisor (or an operator
	// deciding what to drop) needs to justify keeping it materialized.
	uses atomic.Int64
}

// Uses returns how many times a query fetched this view's bitmap.
func (v *GraphView) Uses() int64 { return v.uses.Load() }

// AggregateView is a materialized aggregate graph view (§5.1.2): a measure
// column m_p holding F(measures along path p) for each record containing p,
// plus the bitmap column b_p of those records.
type AggregateView struct {
	Name string
	Path []EdgeID // path edges in traversal order
	Func string   // aggregate function name (e.g. "SUM")
	// MeasureName selects which measure the view aggregates ("" = default;
	// named measures are the m_i^name columns of multi-measure records).
	MeasureName string
	Measure     *MeasureColumn
	Col         *BitmapColumn

	fn   agg.Func     // bound function, used for incremental maintenance
	uses atomic.Int64 // query-visible fetches (bitmap or measure), see GraphView
}

// Uses returns how many times a query fetched this view's bitmap or
// measure column.
func (v *AggregateView) Uses() int64 { return v.uses.Load() }

// Relation is the master relation R of the paper: one row per graph record,
// one (measure, bitmap) column pair per edge id, plus materialized view
// columns. All query-visible fetches go through the Fetch* methods so the
// I/O cost model can account them.
//
// Concurrency: the relation is safe for many concurrent readers alongside
// writers. Every mutator takes the write lock internally; readers bracket
// each query with BeginRead/EndRead (the fetch accessors return shared
// bitmap pointers that are iterated after the fetch call returns, so the
// read lock must span the whole query, not just the fetch). Version and
// NumRecords are atomics so caches can snapshot them without any lock, and
// the view set is an immutable ViewCatalog behind an atomic pointer, so
// listing views needs no lock either.
type Relation struct {
	mu         sync.RWMutex
	numRecords atomic.Uint32
	partWidth  int
	measures   map[EdgeID]*MeasureColumn            // default measure columns m_i
	named      map[string]map[EdgeID]*MeasureColumn // named measure columns m_i^name
	bitmaps    map[EdgeID]*BitmapColumn
	catalog    atomic.Pointer[ViewCatalog]         // materialized views, rebuilt per view-set change
	tags       map[string]map[string]*BitmapColumn // key → value → records
	partMap    map[EdgeID]int                      // optional clustered partition assignment (§6.1)
	deleted    *bitmap.Bitmap                      // soft-deleted record ids
	version    atomic.Uint64                       // bumped on every mutation
	tracker    Tracker

	// saveMu serializes overlapping Save calls: each produces its own
	// complete generation instead of racing on the next sequence number.
	saveMu sync.Mutex
	// snapKeep is how many snapshot generations Save retains (0 selects
	// DefaultSnapshotKeep). Atomic so SetSnapshotKeep needs no lock.
	snapKeep atomic.Int32
	// gcProtect names one generation snapshot GC must never collect: the one
	// a sharded coordinator's durable cross-shard manifest still pins. Nil
	// means no pin. Atomic so the coordinator can repoint it without holding
	// saveMu.
	gcProtect atomic.Pointer[string]

	// pagePool caches decoded measure blocks of paged (v2-snapshot) columns;
	// nil for a purely in-memory relation. pageSrcs are the snapshot files
	// those blocks fault in from, and srcGen names the generation holding
	// them — snapshot GC must never collect it while this relation is alive,
	// or lazy reads would dangle.
	pagePool *pagepool.Pool
	pageSrcs []*pageSource
	srcGen   atomic.Pointer[string]
}

// DefaultSnapshotKeep is how many snapshot generations Save retains on
// disk. Keeping at least two means the previous generation survives as a
// fallback when the newest turns out damaged.
const DefaultSnapshotKeep = 2

// SetSnapshotKeep sets how many snapshot generations Save retains on disk;
// older ones are garbage-collected after each successful Save. n < 1
// resets to DefaultSnapshotKeep.
func (r *Relation) SetSnapshotKeep(n int) {
	if n < 1 {
		n = 0
	}
	r.snapKeep.Store(int32(n))
}

func (r *Relation) snapshotKeep() int {
	if v := r.snapKeep.Load(); v > 0 {
		return int(v)
	}
	return DefaultSnapshotKeep
}

// SetGCProtect pins gen against snapshot garbage collection ("" unpins).
// The sharded coordinator pins the generation its durable manifest names, so
// repeated crashed coordinated saves can never GC the cut Load rolls back to.
func (r *Relation) SetGCProtect(gen string) {
	if gen == "" {
		r.gcProtect.Store(nil)
		return
	}
	r.gcProtect.Store(&gen)
}

func (r *Relation) gcProtectName() string {
	if p := r.gcProtect.Load(); p != nil {
		return *p
	}
	return ""
}

// DefaultPageCacheBytes is the buffer-pool budget a loaded relation starts
// with: 256 MiB of decoded measure blocks.
const DefaultPageCacheBytes = 1 << 28

// SetPageCacheBytes sets the buffer-pool budget for paged measure blocks
// (≤0 = unbounded). A no-op for purely in-memory relations, which have no
// pool; shrinking evicts immediately.
func (r *Relation) SetPageCacheBytes(n int64) {
	if r.pagePool != nil {
		r.pagePool.SetBudget(n)
	}
}

// PagePoolStats returns the buffer pool's counters (zero value when the
// relation has no paged columns).
func (r *Relation) PagePoolStats() pagepool.Stats {
	if r.pagePool == nil {
		return pagepool.Stats{}
	}
	return r.pagePool.Stats()
}

// PageError returns the first sticky page-fault error of the relation's
// snapshot sources, if lazy block loading has failed. Query layers check it
// after scans over paged columns: a fault mid-scan yields zeros in place of
// the unreadable values, and this is how that surfaces.
func (r *Relation) PageError() error {
	for _, s := range r.pageSrcs {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the relation's cached snapshot file handles. Paged columns
// that have not been materialized cannot fault blocks in afterwards; Close
// is for shutdown, not for returning the relation to in-memory use.
func (r *Relation) Close() error {
	var first error
	for _, s := range r.pageSrcs {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setSourceGen records the generation this relation lazily pages from; GC
// in SaveFSGen keeps it on disk for the relation's lifetime.
func (r *Relation) setSourceGen(gen string) {
	if gen == "" {
		r.srcGen.Store(nil)
		return
	}
	r.srcGen.Store(&gen)
}

func (r *Relation) sourceGenName() string {
	if p := r.srcGen.Load(); p != nil {
		return *p
	}
	return ""
}

// SourceGeneration returns the snapshot generation this relation was loaded
// from ("" for a relation never loaded from disk). The write-ahead log's
// header pins this value: a log only replays over the exact generation it
// extends.
func (r *Relation) SourceGeneration() string { return r.sourceGenName() }

// StorageStats describes where a relation's measure bytes live: the logical
// (decoded) size the cost model charges, the encoded on-disk size of paged
// columns, and what is actually resident in memory. Pool carries the buffer
// pool's hit/miss/eviction counters.
type StorageStats struct {
	LogicalBytes    int64 // decoded payload size of all measure columns
	OnDiskBytes     int64 // encoded block payload bytes of paged columns
	ResidentBytes   int64 // resident column values + block indexes + pooled blocks
	PagedColumns    int
	ResidentColumns int
	Pool            pagepool.Stats
}

// StorageStats reports the relation's storage residency snapshot.
func (r *Relation) StorageStats() StorageStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var st StorageStats
	add := func(m *MeasureColumn) {
		st.LogicalBytes += int64(m.SizeBytes())
		st.OnDiskBytes += m.EncodedValueBytes()
		st.ResidentBytes += m.ResidentValueBytes()
		if m.isPaged() {
			st.PagedColumns++
		} else {
			st.ResidentColumns++
		}
	}
	for _, m := range r.measures {
		add(m)
	}
	for _, cols := range r.named {
		for _, m := range cols {
			add(m)
		}
	}
	for _, v := range r.Catalog().aggViews {
		add(v.Measure)
	}
	if r.pagePool != nil {
		st.Pool = r.pagePool.Stats()
		st.ResidentBytes += st.Pool.ResidentBytes
	}
	return st
}

// NewRelation creates an empty master relation with the given vertical
// partition width (≤0 selects DefaultPartitionWidth).
func NewRelation(partitionWidth int) *Relation {
	if partitionWidth <= 0 {
		partitionWidth = DefaultPartitionWidth
	}
	r := &Relation{
		partWidth: partitionWidth,
		measures:  make(map[EdgeID]*MeasureColumn),
		named:     make(map[string]map[EdgeID]*MeasureColumn),
		bitmaps:   make(map[EdgeID]*BitmapColumn),
	}
	r.catalog.Store(emptyCatalog)
	return r
}

// Tracker returns the relation's I/O accounting tracker.
func (r *Relation) Tracker() *Tracker { return &r.tracker }

// Version returns a counter that changes whenever the relation mutates
// (records, measures, views, deletes). Caches key their entries on it.
func (r *Relation) Version() uint64 { return r.version.Load() }

func (r *Relation) bumpVersion() { r.version.Add(1) }

// BeginRead takes the relation's read lock. Query engines hold it across a
// whole query — the Fetch* accessors hand out shared bitmap pointers that
// the engine iterates after the call returns, so per-fetch locking would
// not be enough. Multiple readers proceed concurrently; writers wait.
// BeginRead must not be nested on the same goroutine (RWMutex read locks
// are not reentrant once a writer is queued).
func (r *Relation) BeginRead() { r.mu.RLock() }

// EndRead releases the read lock taken by BeginRead.
func (r *Relation) EndRead() { r.mu.RUnlock() }

// NewRecord allocates and returns the next record id.
func (r *Relation) NewRecord() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	return r.numRecords.Add(1) - 1
}

// NumRecords returns the number of records loaded.
func (r *Relation) NumRecords() int { return int(r.numRecords.Load()) }

// SetEdge marks record rec as containing edge without recording a measure
// (the paper drops measure columns for elements no application measures).
func (r *Relation) SetEdge(rec uint32, edge EdgeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	r.edgeBitmap(edge).Set(rec)
}

// SetEdgeMeasure marks record rec as containing edge with default-measure
// value v.
func (r *Relation) SetEdgeMeasure(rec uint32, edge EdgeID, v float64) {
	r.SetEdgeMeasureNamed(rec, edge, "", v)
}

// SetEdgeMeasureNamed marks record rec as containing edge with a value in
// the named measure column m_edge^name ("" = default measure).
func (r *Relation) SetEdgeMeasureNamed(rec uint32, edge EdgeID, name string, v float64) {
	r.mu.Lock() //grovevet:ignore lockorder the first Set on a paged column faults its blocks in to materialize it; that one-time I/O must happen under the write lock or a reader could see a half-materialized column
	defer r.mu.Unlock()
	r.bumpVersion()
	r.edgeBitmap(edge).Set(rec)
	r.measureColumn(edge, name).Set(rec, v)
}

// measureColumn returns measure column m_edge^name ("" = default), creating
// it on first use.
func (r *Relation) measureColumn(edge EdgeID, name string) *MeasureColumn {
	cols := r.measures
	if name != "" {
		cols = r.named[name]
	}
	if m, ok := cols[edge]; ok {
		return m
	}
	return r.addMeasureColumn(edge, name)
}

// addMeasureColumn is measureColumn's first-use arm, kept out of line so the
// allocation stays out of AppendRow's body (hotalloc holds that to zero). name
// is cloned when it becomes a map key: it may be a substring of a write-ahead
// log frame, which the relation must not pin.
//
//go:noinline
func (r *Relation) addMeasureColumn(edge EdgeID, name string) *MeasureColumn {
	cols := r.measures
	if name != "" {
		var ok bool
		if cols, ok = r.named[name]; !ok {
			cols = make(map[EdgeID]*MeasureColumn)
			r.named[strings.Clone(name)] = cols
		}
	}
	m := NewMeasureColumn()
	cols[edge] = m
	return m
}

// NamedValue is one named measure of a row cell.
type NamedValue struct {
	Name  string
	Value float64
}

// Cell is one structural element of a flat record row: its column id, its
// default measure (HasValue false = a bare element, bit set but NULL
// measure) and its named measures.
type Cell struct {
	Edge     EdgeID
	Value    float64
	HasValue bool
	Named    []NamedValue
}

// AppendRow appends one whole record — the paper's master-relation insert
// (§4.1): a bitmap append plus a column append per element — and returns its
// record id. Everything happens in one write-lock section: the id is
// allocated, every cell's bit and measures are set, the materialized views
// are maintained and the version is bumped once, so a reader sees the record
// either not at all or complete, views included. It is the only way a whole
// record enters the relation, for live ingest and log replay alike.
//
//grove:hotpath
func (r *Relation) AppendRow(cells []Cell) uint32 {
	r.mu.Lock() //grovevet:ignore lockorder the first Set on a paged column faults its blocks in to materialize it, and view maintenance reads the record's measures; both must happen under the same write lock as the row they belong to
	defer r.mu.Unlock()
	rec := r.numRecords.Load()
	for i := range cells {
		c := &cells[i]
		r.edgeBitmap(c.Edge).Set(rec)
		if c.HasValue {
			r.measureColumn(c.Edge, "").Set(rec, c.Value)
		}
		for _, nv := range c.Named {
			r.measureColumn(c.Edge, nv.Name).Set(rec, nv.Value)
		}
	}
	r.maintainViews(rec)
	r.numRecords.Store(rec + 1)
	r.bumpVersion()
	return rec
}

// MeasureNames lists the named measures stored (excluding the default), in
// sorted order.
func (r *Relation) MeasureNames() []string {
	out := make([]string, 0, len(r.named))
	for name := range r.named {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (r *Relation) edgeBitmap(edge EdgeID) *BitmapColumn {
	if b, ok := r.bitmaps[edge]; ok {
		return b
	}
	return r.addEdgeBitmap(edge)
}

// addEdgeBitmap is edgeBitmap's first-use arm, out of line like
// addMeasureColumn.
//
//go:noinline
func (r *Relation) addEdgeBitmap(edge EdgeID) *BitmapColumn {
	b := NewBitmapColumn()
	r.bitmaps[edge] = b
	return b
}

// HasEdge reports whether any record contains the edge.
func (r *Relation) HasEdge(edge EdgeID) bool {
	_, ok := r.bitmaps[edge]
	return ok
}

// Edges returns all edge ids with at least one record, ascending.
func (r *Relation) Edges() []EdgeID {
	out := make([]EdgeID, 0, len(r.bitmaps))
	for e := range r.bitmaps {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalMeasures counts all non-NULL measure values, named included
// (Table 2's "total number of measures").
func (r *Relation) TotalMeasures() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, m := range r.measures {
		n += int64(m.Count())
	}
	for _, cols := range r.named {
		for _, m := range cols {
			n += int64(m.Count())
		}
	}
	return n
}

// --- tracked fetches (query-visible I/O) ------------------------------------

var emptyBitmap = bitmap.New()

// FetchEdgeBitmap reads bitmap column b_edge, accounting one bitmap-column
// fetch. Unknown edges yield an empty bitmap (still charged: the column is
// fetched before its emptiness is known).
func (r *Relation) FetchEdgeBitmap(edge EdgeID) *bitmap.Bitmap {
	b, ok := r.bitmaps[edge]
	if !ok {
		r.tracker.onBitmapFetch(0)
		return emptyBitmap
	}
	r.tracker.onBitmapFetch(b.SizeBytes())
	return b.Bits()
}

// FetchMeasureColumn reads default measure column m_edge, accounting one
// measure-column fetch. Returns nil when the edge has no measured values.
func (r *Relation) FetchMeasureColumn(edge EdgeID) *MeasureColumn {
	m, ok := r.measures[edge]
	if !ok {
		r.tracker.onMeasureFetch(0)
		return nil
	}
	r.tracker.onMeasureFetch(m.SizeBytes())
	return m
}

// FetchMeasureColumnNamed reads named measure column m_edge^name, accounting
// one measure-column fetch. Returns nil when absent.
func (r *Relation) FetchMeasureColumnNamed(edge EdgeID, name string) *MeasureColumn {
	if name == "" {
		return r.FetchMeasureColumn(edge)
	}
	m, ok := r.named[name][edge]
	if !ok {
		r.tracker.onMeasureFetch(0)
		return nil
	}
	r.tracker.onMeasureFetch(m.SizeBytes())
	return m
}

// FetchViewBitmap reads graph-view column b_v by name.
func (r *Relation) FetchViewBitmap(name string) (*bitmap.Bitmap, error) {
	v, _ := r.Catalog().view(name)
	if v == nil {
		return nil, fmt.Errorf("colstore: unknown graph view %q", name)
	}
	v.uses.Add(1)
	r.tracker.onBitmapFetch(v.Col.SizeBytes())
	return v.Col.Bits(), nil
}

// FetchAggViewBitmap reads aggregate-view bitmap column b_p by name.
func (r *Relation) FetchAggViewBitmap(name string) (*bitmap.Bitmap, error) {
	v, _ := r.Catalog().aggView(name)
	if v == nil {
		return nil, fmt.Errorf("colstore: unknown aggregate view %q", name)
	}
	v.uses.Add(1)
	r.tracker.onBitmapFetch(v.Col.SizeBytes())
	return v.Col.Bits(), nil
}

// FetchAggViewMeasure reads aggregate-view measure column m_p by name.
func (r *Relation) FetchAggViewMeasure(name string) (*MeasureColumn, error) {
	v, _ := r.Catalog().aggView(name)
	if v == nil {
		return nil, fmt.Errorf("colstore: unknown aggregate view %q", name)
	}
	v.uses.Add(1)
	r.tracker.onMeasureFetch(v.Measure.SizeBytes())
	return v.Measure, nil
}

// AccountMeasuresScanned records that n individual measure values were
// materialized into a query result.
func (r *Relation) AccountMeasuresScanned(n int) { r.tracker.onMeasuresScanned(n) }

// AccountRecordsReturned records that n graph records entered a query answer.
func (r *Relation) AccountRecordsReturned(n int) { r.tracker.onRecordsReturned(n) }

// --- untracked accessors (loading, view building, tests) --------------------

// EdgeBitmap returns bitmap column b_edge without accounting (nil if absent).
func (r *Relation) EdgeBitmap(edge EdgeID) *bitmap.Bitmap {
	if b, ok := r.bitmaps[edge]; ok {
		return b.Bits()
	}
	return nil
}

// MeasureColumn returns default measure column m_edge without accounting
// (nil if absent).
func (r *Relation) MeasureColumn(edge EdgeID) *MeasureColumn {
	return r.measures[edge]
}

// MeasureColumnNamed returns named measure column m_edge^name without
// accounting (nil if absent).
func (r *Relation) MeasureColumnNamed(edge EdgeID, name string) *MeasureColumn {
	if name == "" {
		return r.measures[edge]
	}
	return r.named[name][edge]
}

// --- vertical partitioning (§6.1) -------------------------------------------

// PartitionWidth returns the maximum number of edge columns per sub-relation.
func (r *Relation) PartitionWidth() int { return r.partWidth }

// PartitionOf returns the sub-relation index holding the columns of edge:
// the clustered assignment when one is installed (SetPartitionMap /
// ClusterPartitions), otherwise the default id/width rule.
func (r *Relation) PartitionOf(edge EdgeID) int {
	if p, ok := r.partMap[edge]; ok {
		return p
	}
	return int(edge) / r.partWidth
}

// NumPartitions returns the number of sub-relations in use.
func (r *Relation) NumPartitions() int {
	if len(r.bitmaps) == 0 {
		return 0
	}
	maxPart := 0
	for e := range r.bitmaps {
		if p := r.PartitionOf(e); p > maxPart {
			maxPart = p
		}
	}
	return maxPart + 1
}

// PartitionSpan returns how many distinct sub-relations the given edges touch.
func (r *Relation) PartitionSpan(edges []EdgeID) int {
	seen := make(map[int]struct{}, 4)
	for _, e := range edges {
		seen[r.PartitionOf(e)] = struct{}{}
	}
	return len(seen)
}

// JoinPartitions simulates the recid-joins needed to reassemble records whose
// columns span several sub-relations: (span-1) hash probes per answer record.
// It both accounts the joins and burns the corresponding CPU work so
// wall-clock measurements show the Fig. 5 trend.
func (r *Relation) JoinPartitions(span int, answer *bitmap.Bitmap) {
	if span <= 1 {
		return
	}
	joins := span - 1
	r.tracker.onPartitionJoin(joins * answer.Cardinality())
	// Simulate the probe work: one pass over the answer per extra partition.
	for i := 0; i < joins; i++ {
		var sink uint32
		answer.Each(func(rec uint32) bool {
			sink ^= rec
			return true
		})
		_ = sink
	}
}

// --- materialized views ------------------------------------------------------

// MaterializeView computes and stores graph view b_v = AND of the bitmaps of
// the given edges. Building is a bulk operation and is not charged to query
// I/O. The edge list is defensively copied, sorted and deduplicated.
func (r *Relation) MaterializeView(name string, edges []EdgeID) (*GraphView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	if name == "" {
		return nil, fmt.Errorf("colstore: graph view needs a name")
	}
	cat := r.Catalog()
	dup, at := cat.view(name)
	if dup != nil {
		return nil, fmt.Errorf("colstore: graph view %q already exists", name)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("colstore: graph view %q has no edges", name)
	}
	es := normalizeEdges(edges)
	bms := make([]*bitmap.Bitmap, 0, len(es))
	for _, e := range es {
		if b := r.EdgeBitmap(e); b != nil {
			bms = append(bms, b)
		} else {
			bms = append(bms, emptyBitmap)
		}
	}
	v := &GraphView{
		Name:  name,
		Edges: es,
		Col:   NewBitmapColumnFrom(bitmap.AndAll(bms...)),
	}
	r.catalog.Store(buildCatalog(inserted(cat.views, at, v), cat.aggViews))
	return v, nil
}

// MaterializeAggView computes and stores an aggregate graph view for the
// given path and aggregate function fn (§5.1.2). fn folds the per-edge
// measures of one record (in path order) into the stored aggregate; records
// missing a measure on any path edge are excluded from the view (their m_p
// is NULL and their b_p bit unset), matching the NULL semantics of §5.1.2.
// The bound function is retained so the view stays maintained as new records
// are loaded.
func (r *Relation) MaterializeAggView(name string, path []EdgeID, fn agg.Func) (*AggregateView, error) {
	return r.MaterializeAggViewOn(name, path, fn, "")
}

// MaterializeAggViewOn is MaterializeAggView over a named measure column
// ("" = default): the view stores F(m_e^measureName along path).
func (r *Relation) MaterializeAggViewOn(name string, path []EdgeID, fn agg.Func, measureName string) (*AggregateView, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	if name == "" {
		return nil, fmt.Errorf("colstore: aggregate view needs a name")
	}
	cat := r.Catalog()
	dup, at := cat.aggView(name)
	if dup != nil {
		return nil, fmt.Errorf("colstore: aggregate view %q already exists", name)
	}
	if len(path) < 2 {
		return nil, fmt.Errorf("colstore: aggregate view %q: path must have ≥2 edges (single edges are already stored)", name)
	}
	if !fn.Valid() {
		return nil, fmt.Errorf("colstore: aggregate view %q: invalid aggregate function", name)
	}
	bms := make([]*bitmap.Bitmap, 0, len(path))
	for _, e := range path {
		if b := r.EdgeBitmap(e); b != nil {
			bms = append(bms, b)
		} else {
			bms = append(bms, emptyBitmap)
		}
	}
	contains := bitmap.AndAll(bms...)

	measure := NewMeasureColumn()
	col := NewBitmapColumn()
	vals := make([]float64, len(path))
	contains.Each(func(rec uint32) bool {
		if r.pathMeasures(rec, path, measureName, vals) {
			measure.Set(rec, fn.Aggregate(vals))
			col.Set(rec)
		}
		return true
	})

	v := &AggregateView{
		Name:        name,
		Path:        append([]EdgeID(nil), path...),
		Func:        fn.Name,
		MeasureName: measureName,
		Measure:     measure,
		Col:         col,
		fn:          fn,
	}
	r.catalog.Store(buildCatalog(cat.views, inserted(cat.aggViews, at, v)))
	return v, nil
}

// pathMeasures reads the measures of path's edges (under measureName) for
// one record into vals, reporting whether all are present.
func (r *Relation) pathMeasures(rec uint32, path []EdgeID, measureName string, vals []float64) bool {
	for i, e := range path {
		m := r.MeasureColumnNamed(e, measureName)
		if m == nil {
			return false
		}
		v, has := m.Get(rec)
		if !has {
			return false
		}
		vals[i] = v
	}
	return true
}

// UpdateViewsForRecord incrementally maintains every materialized view for a
// freshly loaded record: loaders call it once after all of the record's
// edges and measures are set, so views never go stale as the collection
// grows. Aggregate views loaded from disk whose function could not be
// re-bound are skipped (Load rejects unknown function names, so this cannot
// happen for stores grove wrote itself).
func (r *Relation) UpdateViewsForRecord(rec uint32) {
	r.mu.Lock() //grovevet:ignore lockorder aggregate-view maintenance reads the record's measures, which may fault paged blocks in; views must be updated under the same write lock as the row they reflect
	defer r.mu.Unlock()
	r.bumpVersion()
	r.maintainViews(rec)
}

// maintainViews adds rec to every view it now satisfies. Caller holds the
// write lock.
func (r *Relation) maintainViews(rec uint32) {
	cat := r.Catalog()
	for _, v := range cat.views {
		all := true
		for _, e := range v.Edges {
			b, ok := r.bitmaps[e]
			if !ok || !b.Contains(rec) {
				all = false
				break
			}
		}
		if all {
			v.Col.Set(rec)
		}
	}
	for _, v := range cat.aggViews {
		if !v.fn.Valid() {
			continue
		}
		contains := true
		for _, e := range v.Path {
			b, ok := r.bitmaps[e]
			if !ok || !b.Contains(rec) {
				contains = false
				break
			}
		}
		if !contains {
			continue
		}
		vals := make([]float64, len(v.Path))
		if r.pathMeasures(rec, v.Path, v.MeasureName, vals) {
			v.Measure.Set(rec, v.fn.Aggregate(vals))
			v.Col.Set(rec)
		}
	}
}

// View returns a graph view by name, or nil.
func (r *Relation) View(name string) *GraphView {
	v, _ := r.Catalog().view(name)
	return v
}

// AggView returns an aggregate view by name, or nil.
func (r *Relation) AggView(name string) *AggregateView {
	v, _ := r.Catalog().aggView(name)
	return v
}

// Views returns all graph views sorted by name. The slice belongs to the
// view catalog and must not be modified.
func (r *Relation) Views() []*GraphView { return r.Catalog().views }

// AggViews returns all aggregate views sorted by name. The slice belongs to
// the view catalog and must not be modified.
func (r *Relation) AggViews() []*AggregateView { return r.Catalog().aggViews }

// ViewUsage returns the per-view query-visible fetch counts (graph and
// aggregate views together), keyed by view name.
func (r *Relation) ViewUsage() map[string]int64 {
	cat := r.Catalog()
	out := make(map[string]int64, cat.Len())
	for _, v := range cat.views {
		out[v.Name] = v.Uses()
	}
	for _, v := range cat.aggViews {
		out[v.Name] = v.Uses()
	}
	return out
}

// DropView removes a graph view.
func (r *Relation) DropView(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	cat := r.Catalog()
	v, i := cat.view(name)
	if v == nil {
		return false
	}
	r.catalog.Store(buildCatalog(removed(cat.views, i), cat.aggViews))
	return true
}

// DropAggView removes an aggregate view.
func (r *Relation) DropAggView(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	cat := r.Catalog()
	v, i := cat.aggView(name)
	if v == nil {
		return false
	}
	r.catalog.Store(buildCatalog(cat.views, removed(cat.aggViews, i)))
	return true
}

// DropAllViews removes every materialized view, returning the relation to its
// base (indexes-only) state.
func (r *Relation) DropAllViews() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpVersion()
	r.catalog.Store(emptyCatalog)
}

// --- sizing ------------------------------------------------------------------

// BaseSizeBytes is the payload size of base data: measure (default and
// named) and bitmap columns.
func (r *Relation) BaseSizeBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, m := range r.measures {
		n += int64(m.SizeBytes())
	}
	for _, cols := range r.named {
		for _, m := range cols {
			n += int64(m.SizeBytes())
		}
	}
	for _, b := range r.bitmaps {
		n += int64(b.SizeBytes())
	}
	return n
}

// ViewSizeBytes is the payload size of all materialized view columns.
func (r *Relation) ViewSizeBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	cat := r.Catalog()
	for _, v := range cat.views {
		n += int64(v.Col.SizeBytes())
	}
	for _, v := range cat.aggViews {
		n += int64(v.Col.SizeBytes()) + int64(v.Measure.SizeBytes())
	}
	return n
}

// SizeBytes is the total payload size (base + views).
func (r *Relation) SizeBytes() int64 { return r.BaseSizeBytes() + r.ViewSizeBytes() }

// RunOptimize converts all bitmap columns to their most compact layouts.
// Call after bulk loading.
func (r *Relation) RunOptimize() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bitmaps {
		b.Bits().RunOptimize()
	}
	for _, m := range r.measures {
		m.Present().RunOptimize()
	}
	for _, cols := range r.named {
		for _, m := range cols {
			m.Present().RunOptimize()
		}
	}
	cat := r.Catalog()
	for _, v := range cat.views {
		v.Col.Bits().RunOptimize()
	}
	for _, v := range cat.aggViews {
		v.Col.Bits().RunOptimize()
		v.Measure.Present().RunOptimize()
	}
}

func normalizeEdges(edges []EdgeID) []EdgeID {
	es := append([]EdgeID(nil), edges...)
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	out := es[:0]
	var prev EdgeID
	for i, e := range es {
		if i == 0 || e != prev {
			out = append(out, e)
		}
		prev = e
	}
	return out
}
