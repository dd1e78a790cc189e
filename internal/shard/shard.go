// Package shard partitions the record collection horizontally into N
// independent shards, each owning its own colstore.Relation (bitmap columns,
// measure columns, result-cache slice, snapshot generation), and executes
// queries by scatter-gather: a single query fans across every shard in
// parallel and the partials merge; a batch runs query-major — each of its
// workers takes a query, runs it on every shard inline and merges.
//
// The merge is exact, not approximate, because everything grove computes is
// distributive over a disjoint record partition (paper §3.4): a graph query
// answer is a record-id set, so the global answer is the union of per-shard
// answers; boolean combinations distribute over disjoint partitions, so each
// shard evaluates the whole expression locally; and a path aggregation folds
// measures per record, so each record's aggregate is computed entirely
// inside its shard and cross-shard merging is pure reordering — bit-exact by
// construction, with no float re-association.
//
// Record placement is round-robin on arrival: record number i lands on shard
// i mod N at local id i div N, and its global id is local*N + shard. The
// mapping is a bijection, so global ids translate to (shard, local) with two
// integer ops, and a store loaded sequentially assigns the same global ids
// regardless of N — which is what lets the differential tests compare a
// 1-shard and an 8-shard store record-id for record-id.
//
// Writes route by the same mapping, so mutators on different shards proceed
// concurrently — each shard has its own RWMutex — eliminating the
// relation-wide write bottleneck of the single-relation store.
package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/graph"
	"grove/internal/obs"
	"grove/internal/query"
	"grove/internal/view"
	"grove/internal/wal"
)

// Unit is one shard: a relation plus the engine that queries it.
type Unit struct {
	Rel *colstore.Relation
	Eng *query.Engine

	// ingestMu serializes this shard's mutations with respect to the
	// write-ahead log: held across "append frame to log, apply in memory",
	// so the log's frame order always equals the apply order (which is what
	// makes replayed record ids deterministic). A checkpoint holds every
	// shard's ingestMu at once to cut a consistent cross-shard snapshot.
	ingestMu sync.Mutex

	// pending counts the scatter rounds currently queued or running on this
	// shard — one per single query's sub-query, one per batch in flight —
	// the per-shard queue-depth gauge on /metrics.
	pending atomic.Int64
}

// Pending returns the number of scatter rounds currently queued or running.
func (u *Unit) Pending() int64 { return u.pending.Load() }

// Coordinator owns N shards and a shared element registry (the universal
// schema of §3.1 spans all shards — bitmap column ids must agree everywhere
// or per-shard answers would not be mergeable).
type Coordinator struct {
	units []*Unit
	reg   *graph.Registry

	// rr is the round-robin write cursor: Add i goes to shard rr mod N.
	rr atomic.Uint64

	// saveMu serializes coordinated saves (each shard's own saveMu already
	// serializes its generation sequence; this one keeps the cross-shard
	// manifest consistent with one save at a time).
	saveMu sync.Mutex

	// Observability hooks, all nil by default (the disabled scatter path pays
	// only nil checks). traces is the coordinator-owned ring: with N > 1 a
	// scatter-gathered query records one hierarchical root trace (fan-out /
	// queue-wait / merge spans, per-shard engine traces as children); the ring
	// is also attached to every shard engine so batch sub-queries — run inline
	// by the batch worker that took their query — record flat, shard-labelled
	// traces. slow is the shared slow-query log. metrics is the bundle every
	// shard engine shares; the coordinator keeps it to count a batch once,
	// not once per shard. queueWait (one histogram per shard) and mergeDur
	// observe scatter dispatch latency and merge wall time. Attach all of them
	// before serving queries, like Engine.SetTraces.
	metrics   *obs.QueryMetrics
	traces    *obs.TraceRing
	slow      *obs.SlowLog
	queueWait []*obs.Histogram
	mergeDur  *obs.Histogram

	// Write-ahead log state (internal/shard/wal.go). wal is nil until
	// AttachWALFS succeeds — the disabled mutator hot path pays one atomic
	// pointer load. walAnchor/walLoadDir describe what a Load left in
	// memory; the replay/skip counters survive for WALStats.
	wal         atomic.Pointer[walState]
	walAnchor   []walAnchor
	walLoadDir  string
	walReplayed atomic.Int64
	walSkipped  atomic.Int64
	// replayTrace is the load-time wal-replay trace, parked until SetTraces
	// attaches the first ring (LoadFS replays before a caller can).
	replayTrace *obs.Trace
}

// New creates a coordinator over n empty shards (n < 1 is clamped to 1) with
// the given vertical partition width per shard relation.
func New(n, partitionWidth int) *Coordinator {
	if n < 1 {
		n = 1
	}
	reg := graph.NewRegistry()
	rels := make([]*colstore.Relation, n)
	for i := range rels {
		rels[i] = colstore.NewRelation(partitionWidth)
	}
	return NewFromRelations(rels, reg)
}

// NewFromRelations wraps existing relations (e.g. loaded from disk) and a
// shared registry into a coordinator. The relation order is the shard order.
func NewFromRelations(rels []*colstore.Relation, reg *graph.Registry) *Coordinator {
	c := &Coordinator{reg: reg}
	total := 0
	for i, rel := range rels {
		eng := query.NewEngine(rel, reg)
		eng.SetShard(i) // label every engine-emitted trace span with its shard
		c.units = append(c.units, &Unit{Rel: rel, Eng: eng})
		total += rel.NumRecords()
	}
	// Resume the round-robin cursor past the loaded records so ingest stays
	// balanced after a reload.
	c.rr.Store(uint64(total))
	return c
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.units) }

// Unit returns shard i.
func (c *Coordinator) Unit(i int) *Unit { return c.units[i] }

// Registry returns the shared element registry.
func (c *Coordinator) Registry() *graph.Registry { return c.reg }

// --- record-id mapping ------------------------------------------------------

// globalID translates (shard, local) to the global record id.
//
//grove:hotpath
func (c *Coordinator) globalID(s int, local uint32) uint32 {
	return local*uint32(len(c.units)) + uint32(s)
}

// Locate translates a global record id to its shard index and local id,
// reporting an error when no such record exists.
func (c *Coordinator) Locate(g uint32) (s int, local uint32, err error) {
	n := uint32(len(c.units))
	s, local = int(g%n), g/n
	if int64(local) >= int64(c.units[s].Rel.NumRecords()) {
		return 0, 0, fmt.Errorf("shard: record %d out of range (have %d)", g, c.NumRecords())
	}
	return s, local, nil
}

// --- mutators ---------------------------------------------------------------
//
// Every mutator builds a wal.Op and hands it to mutate: one logged-apply
// path, whose in-memory half (applyOp) is also what WAL replay runs.

// mutate applies op to shard s. With no log attached that is applyOp and
// nothing else — no ingestMu, no frame. With one attached, the frame is
// appended and the op applied under the shard's ingestMu, so file order
// always equals apply order and replay reconstructs identical record ids;
// the fsync (Commit) happens outside the lock so concurrent writers on one
// shard batch onto one fsync (group commit). An apply error outranks a log
// error; a log error alone means the op IS applied in memory but not
// guaranteed durable (the log latched the failure, see WALError).
func (c *Coordinator) mutate(s int, op wal.Op) (local uint32, was bool, err error) {
	u := c.units[s]
	w := c.wal.Load()
	if w == nil {
		return applyOp(u, c.reg, op)
	}
	u.ingestMu.Lock() //grovevet:ignore lockorder the log append must happen under ingestMu so file order equals apply order
	lsn, werr := w.logs[s].Append(op)
	local, was, err = applyOp(u, c.reg, op)
	u.ingestMu.Unlock()
	if werr == nil {
		werr = w.logs[s].Commit(lsn)
	}
	if err == nil && werr != nil {
		err = fmt.Errorf("shard %d: %w", s, werr)
	}
	return local, was, err
}

// applyOp is the in-memory effect of one op on shard u: the single switch
// behind both the live mutators and WAL replay, so a replayed op maintains
// views exactly as the live one did. An add-record op carries its flat row —
// built once by Append, or decoded straight from the log — and
// graph.AppendRow applies it in one relation lock section. local is the new
// record's shard-local id (add-record); was reports whether a delete/undelete
// changed the record. Record ids are range-checked here because replay feeds
// it ops decoded from disk.
func applyOp(u *Unit, reg *graph.Registry, op wal.Op) (local uint32, was bool, err error) {
	if n := u.Rel.NumRecords(); op.Kind != wal.OpAddRecord && int64(op.Rec) >= int64(n) {
		return 0, false, fmt.Errorf("shard: %s targets record %d of %d", op.Kind, op.Rec, n)
	}
	switch op.Kind {
	case wal.OpAddRecord:
		if op.Row == nil {
			return 0, false, fmt.Errorf("shard: add-record op without a row")
		}
		local = graph.AppendRow(u.Rel, reg, op.Row)
	case wal.OpAppendEdge:
		eid := reg.ID(graph.E(op.From, op.To))
		switch {
		case !op.HasValue:
			u.Rel.SetEdge(op.Rec, eid)
		case op.Measure == graph.DefaultMeasure:
			u.Rel.SetEdgeMeasure(op.Rec, eid, op.Value)
		default:
			u.Rel.SetEdgeMeasureNamed(op.Rec, eid, op.Measure, op.Value)
		}
		u.Rel.UpdateViewsForRecord(op.Rec)
	case wal.OpDelete:
		was, err = u.Rel.Delete(op.Rec)
	case wal.OpUndelete:
		was = u.Rel.Undelete(op.Rec)
	case wal.OpTag:
		err = u.Rel.Tag(op.Rec, op.Key, op.Val)
	default:
		err = fmt.Errorf("shard: cannot apply unknown op kind %d", op.Kind)
	}
	return local, was, err
}

// Add appends a record to the next shard in round-robin order and returns
// its global record id. Concurrent Adds to different shards proceed in
// parallel; Adds landing on the same shard serialize on that shard's lock.
// With a write-ahead log attached, durability failures are latched and
// surfaced via WALError; Append reports them per call.
func (c *Coordinator) Add(rec *graph.Record) uint32 {
	id, _ := c.Append(rec) //grovevet:ignore droppederr Add keeps its historical signature; the WAL latch surfaces the error via WALError
	return id
}

// Append adds a record like Add but also reports the write-ahead log's
// verdict: a non-nil error means the op is applied in memory yet NOT
// guaranteed durable (the log latched a failure). With WAL disabled it never
// errors.
func (c *Coordinator) Append(rec *graph.Record) (uint32, error) {
	s := int((c.rr.Add(1) - 1) % uint64(len(c.units)))
	local, _, err := c.mutate(s, wal.Op{Kind: wal.OpAddRecord, Row: rec.Row()})
	return c.globalID(s, local), err
}

// AppendEdge adds one element (edge, or node when from == to) to record g,
// optionally with a measure value under name ("" = default). The record's
// membership in every matching view updates incrementally. Durability
// follows the attached log's policy, like Append.
func (c *Coordinator) AppendEdge(g uint32, from, to, name string, v float64, hasValue bool) error {
	if hasValue && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return fmt.Errorf("shard: append-edge measure must be finite, got %v", v)
	}
	s, local, err := c.Locate(g)
	if err != nil {
		return err
	}
	_, _, err = c.mutate(s, wal.Op{Kind: wal.OpAppendEdge, Rec: local, From: from, To: to, Measure: name, Value: v, HasValue: hasValue})
	return err
}

// Delete soft-deletes the record with global id g.
func (c *Coordinator) Delete(g uint32) (bool, error) {
	s, local, err := c.Locate(g)
	if err != nil {
		return false, err
	}
	_, was, err := c.mutate(s, wal.Op{Kind: wal.OpDelete, Rec: local})
	return was, err
}

// Undelete restores a soft-deleted record.
func (c *Coordinator) Undelete(g uint32) bool {
	s, local, err := c.Locate(g)
	if err != nil {
		return false
	}
	_, was, _ := c.mutate(s, wal.Op{Kind: wal.OpUndelete, Rec: local}) //grovevet:ignore droppederr Undelete keeps its bool signature; a commit failure latches and surfaces via WALError
	return was
}

// Tag attaches a key=value tag to the record with global id g.
func (c *Coordinator) Tag(g uint32, key, value string) error {
	s, local, err := c.Locate(g)
	if err != nil {
		return err
	}
	if key == "" {
		// An empty key never reaches the log: the relation rejects it, and
		// logging an op replay would refuse to decode would tear the prefix.
		return c.units[s].Rel.Tag(local, key, value)
	}
	_, _, err = c.mutate(s, wal.Op{Kind: wal.OpTag, Rec: local, Key: key, Val: value})
	return err
}

// TaggedWith returns the global ids of the records tagged key=value. The
// result is always a fresh bitmap copied under each shard's read lock, so it
// stays valid after concurrent mutations.
func (c *Coordinator) TaggedWith(key, value string) *bitmap.Bitmap {
	subs := make([]*bitmap.Bitmap, len(c.units))
	for i, u := range c.units {
		u.Rel.BeginRead()
		subs[i] = u.Rel.FetchTagBitmap(key, value).Clone()
		u.Rel.EndRead()
	}
	if len(subs) == 1 {
		return subs[0]
	}
	return c.mergeBitmaps(subs)
}

// Optimize recompresses every shard's bitmap columns.
func (c *Coordinator) Optimize() {
	for _, u := range c.units {
		u.Rel.RunOptimize()
	}
}

// --- views ------------------------------------------------------------------

// MaterializeView materializes one graph view under the same name on every
// shard (views must exist uniformly or per-shard plans would diverge).
func (c *Coordinator) MaterializeView(name string, edges []colstore.EdgeID) error {
	for _, u := range c.units {
		if _, err := u.Rel.MaterializeView(name, edges); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeAggViewOn materializes one aggregate view on every shard.
func (c *Coordinator) MaterializeAggViewOn(name string, path []colstore.EdgeID, fn agg.Func, measure string) error {
	for _, u := range c.units {
		if _, err := u.Rel.MaterializeAggViewOn(name, path, fn, measure); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeGraphViews runs the §5 advisor (selection is purely
// workload-driven, so shard 0's advisor speaks for all) and materializes the
// selected views on every shard under the same names.
func (c *Coordinator) MaterializeGraphViews(workload []*graph.Graph, k, minSup int) ([]string, error) {
	adv := &view.Advisor{Rel: c.units[0].Rel, Reg: c.reg, MinSup: minSup}
	names, err := adv.MaterializeGraphViews(workload, k)
	if err != nil {
		return names, err
	}
	for _, name := range names {
		v := c.units[0].Rel.View(name)
		for _, u := range c.units[1:] {
			if _, err := u.Rel.MaterializeView(name, v.Edges); err != nil {
				return names, err
			}
		}
	}
	return names, nil
}

// MaterializeAggViews is MaterializeGraphViews for aggregate views.
func (c *Coordinator) MaterializeAggViews(workload []*graph.Graph, fn agg.Func, k, minSup int) ([]string, error) {
	adv := &view.Advisor{Rel: c.units[0].Rel, Reg: c.reg, MinSup: minSup}
	names, err := adv.MaterializeAggViews(workload, fn, k)
	if err != nil {
		return names, err
	}
	for _, name := range names {
		v := c.units[0].Rel.AggView(name)
		bound, ok := agg.ByName(v.Func)
		if !ok {
			return names, fmt.Errorf("shard: unknown aggregate function %q", v.Func)
		}
		for _, u := range c.units[1:] {
			if _, err := u.Rel.MaterializeAggViewOn(name, v.Path, bound, v.MeasureName); err != nil {
				return names, err
			}
		}
	}
	return names, nil
}

// DropAllViews removes every materialized view on every shard.
func (c *Coordinator) DropAllViews() {
	for _, u := range c.units {
		u.Rel.DropAllViews()
	}
}

// ClusterPartitions recomputes the vertical-partition assignment on every
// shard around the same workload.
func (c *Coordinator) ClusterPartitions(workload [][]colstore.EdgeID) error {
	for _, u := range c.units {
		if _, err := u.Rel.ClusterPartitions(workload); err != nil {
			return err
		}
	}
	return nil
}

// ViewUsage sums per-view usage counts across shards.
func (c *Coordinator) ViewUsage() map[string]int64 {
	out := make(map[string]int64)
	for _, u := range c.units {
		for name, n := range u.Rel.ViewUsage() {
			out[name] += n
		}
	}
	return out
}

// --- engine configuration ---------------------------------------------------

// The engine settings below are construction-time configuration: the
// facade applies them before the coordinator serves its first query, since
// running queries read the engine fields without synchronisation.

// DisableViews turns off view-aware rewriting on every shard engine.
func (c *Coordinator) DisableViews() {
	for _, u := range c.units {
		u.Eng.UseViews = false
	}
}

// EnableParallelPaths turns on concurrent per-path aggregation on every
// shard engine.
func (c *Coordinator) EnableParallelPaths() {
	for _, u := range c.units {
		u.Eng.ParallelPaths = true
	}
}

// EnableCache attaches a result cache to every shard engine, splitting the
// capacity evenly (capacity ≤ 0 selects each cache's default). A mutation
// invalidates only its own shard's slice — the other shards' cached answers
// remain exact because their data did not change.
func (c *Coordinator) EnableCache(capacity int) {
	n := len(c.units)
	per := capacity
	if n > 1 && capacity > 0 {
		per = (capacity + n - 1) / n
	}
	for _, u := range c.units {
		u.Eng.EnableCache(query.NewResultCache(per))
	}
}

// CacheStats sums the per-shard result-cache counters.
func (c *Coordinator) CacheStats() query.CacheStats {
	var st query.CacheStats
	for _, u := range c.units {
		if cache := u.Eng.Cache(); cache != nil {
			s := cache.Stats()
			st.Hits += s.Hits
			st.Misses += s.Misses
			st.Evictions += s.Evictions
		}
	}
	return st
}

// SetMetrics attaches one shared metrics bundle to every shard engine
// (QueryMetrics is atomic counters, safe to share).
func (c *Coordinator) SetMetrics(m *obs.QueryMetrics) {
	c.metrics = m
	for _, u := range c.units {
		u.Eng.SetMetrics(m)
	}
}

// SetTraces attaches a trace ring (nil disables). The coordinator owns it:
// with N > 1 each scatter-gathered query records one hierarchical root trace
// whose children are the per-shard engine traces. The ring is also attached
// to every shard engine, so batch sub-queries (run inline, shard after
// shard, by the worker that took their query) record flat traces labelled
// with their shard id.
func (c *Coordinator) SetTraces(t *obs.TraceRing) {
	c.traces = t
	if t != nil && c.replayTrace != nil {
		t.Add(*c.replayTrace)
		c.replayTrace = nil
	}
	for _, u := range c.units {
		u.Eng.SetTraces(t)
	}
}

// Traces returns the coordinator's trace ring (nil when tracing is off).
func (c *Coordinator) Traces() *obs.TraceRing { return c.traces }

// SetSlowLog attaches a slow-query log (nil disables). Single-query scatter
// paths record one coordinator-level entry per logical query with per-shard
// timings; batch sub-queries record per-shard entries through the engines.
func (c *Coordinator) SetSlowLog(l *obs.SlowLog) {
	c.slow = l
	for _, u := range c.units {
		u.Eng.SetSlowLog(l)
	}
}

// SlowLog returns the attached slow-query log (nil when disabled).
func (c *Coordinator) SlowLog() *obs.SlowLog { return c.slow }

// SetScatterHistograms attaches the scatter latency observers: queueWait[s]
// records shard s's dispatch→execution wait and merge records the gather
// phase's merge wall time. len(queueWait) must equal NumShards; nil detaches.
func (c *Coordinator) SetScatterHistograms(queueWait []*obs.Histogram, merge *obs.Histogram) {
	if queueWait != nil && len(queueWait) != len(c.units) {
		queueWait = nil
	}
	c.queueWait = queueWait
	c.mergeDur = merge
}

// SetSnapshotKeep sets the per-shard snapshot retention.
func (c *Coordinator) SetSnapshotKeep(n int) {
	for _, u := range c.units {
		u.Rel.SetSnapshotKeep(n)
	}
}

// --- aggregated accounting ----------------------------------------------------

// NumRecords sums the shard record counts.
func (c *Coordinator) NumRecords() int {
	total := 0
	for _, u := range c.units {
		total += u.Rel.NumRecords()
	}
	return total
}

// NumDeleted sums the shard soft-delete counts.
func (c *Coordinator) NumDeleted() int {
	total := 0
	for _, u := range c.units {
		total += u.Rel.NumDeleted()
	}
	return total
}

// TotalMeasures sums the shard measure counts.
func (c *Coordinator) TotalMeasures() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.TotalMeasures()
	}
	return total
}

// SizeBytes sums the shard payload sizes (base columns + views).
func (c *Coordinator) SizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.SizeBytes()
	}
	return total
}

// BaseSizeBytes sums the shard base-column sizes.
func (c *Coordinator) BaseSizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.BaseSizeBytes()
	}
	return total
}

// ViewSizeBytes sums the shard view sizes.
func (c *Coordinator) ViewSizeBytes() int64 {
	var total int64
	for _, u := range c.units {
		total += u.Rel.ViewSizeBytes()
	}
	return total
}

// StorageStats sums the shard storage-residency snapshots: logical vs.
// on-disk vs. resident bytes and the pooled buffer counters.
func (c *Coordinator) StorageStats() colstore.StorageStats {
	var total colstore.StorageStats
	for _, u := range c.units {
		st := u.Rel.StorageStats()
		total.LogicalBytes += st.LogicalBytes
		total.OnDiskBytes += st.OnDiskBytes
		total.ResidentBytes += st.ResidentBytes
		total.PagedColumns += st.PagedColumns
		total.ResidentColumns += st.ResidentColumns
		total.Pool.Hits += st.Pool.Hits
		total.Pool.Misses += st.Pool.Misses
		total.Pool.Evictions += st.Pool.Evictions
		total.Pool.ResidentBlocks += st.Pool.ResidentBlocks
		total.Pool.ResidentBytes += st.Pool.ResidentBytes
		total.Pool.BudgetBytes += st.Pool.BudgetBytes
	}
	return total
}

// SetPageCacheBytes splits a total buffer-pool budget evenly across the
// shards' pools (≤0 = unbounded everywhere). No-op on shards with no paged
// columns.
func (c *Coordinator) SetPageCacheBytes(n int64) {
	per := n
	if n > 0 {
		per = n / int64(len(c.units))
		if per < 1 {
			per = 1
		}
	}
	for _, u := range c.units {
		u.Rel.SetPageCacheBytes(per)
	}
}

// PageError returns the first sticky page-fault error across the shards, if
// any lazy block load has failed.
func (c *Coordinator) PageError() error {
	for _, u := range c.units {
		if err := u.Rel.PageError(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard relation's cached snapshot file handles and
// closes the write-ahead log (final fsync included), returning the first
// error.
func (c *Coordinator) Close() error {
	first := c.CloseWAL()
	for _, u := range c.units {
		if err := u.Rel.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MaxPartitions returns the widest shard's vertical-partition count (shards
// share the schema, so the counts normally agree; max is the conservative
// report).
func (c *Coordinator) MaxPartitions() int {
	m := 0
	for _, u := range c.units {
		if p := u.Rel.NumPartitions(); p > m {
			m = p
		}
	}
	return m
}

// MeasureNames unions the shard measure-name sets, sorted. Records carrying
// a named measure may all have landed on one shard, so no single shard's
// list is authoritative.
func (c *Coordinator) MeasureNames() []string {
	return unionSorted(func(u *Unit) []string { return u.Rel.MeasureNames() }, c.units)
}

// TagKeys unions the shard tag-key sets, sorted.
func (c *Coordinator) TagKeys() []string {
	return unionSorted(func(u *Unit) []string { return u.Rel.TagKeys() }, c.units)
}

func unionSorted(get func(*Unit) []string, units []*Unit) []string {
	seen := make(map[string]struct{})
	for _, u := range units {
		for _, s := range get(u) {
			seen[s] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// IOStats sums the shard I/O accounting snapshots.
func (c *Coordinator) IOStats() colstore.Stats {
	var total colstore.Stats
	for _, u := range c.units {
		s := u.Rel.Tracker().Snapshot()
		total.BitmapColumnsFetched += s.BitmapColumnsFetched
		total.MeasureColumnsFetched += s.MeasureColumnsFetched
		total.MeasuresScanned += s.MeasuresScanned
		total.BytesRead += s.BytesRead
		total.PartitionJoins += s.PartitionJoins
		total.RecordsReturned += s.RecordsReturned
	}
	return total
}

// ResetIOStats zeroes every shard's I/O accounting counters.
func (c *Coordinator) ResetIOStats() {
	for _, u := range c.units {
		u.Rel.Tracker().Reset()
	}
}

// ioNow converts the summed shard trackers into the obs I/O shape — the
// coordinator-level analogue of Engine.ioNow, used for root-trace deltas.
// Exact while nothing else touches the trackers; on a live store the fan-out
// span's delta is the aggregate of all concurrent shard work, while the
// per-shard child traces carry each shard's own exact deltas.
func (c *Coordinator) ioNow() obs.IODelta {
	s := c.IOStats()
	return obs.IODelta{
		BitmapColumnsFetched:  int64(s.BitmapColumnsFetched),
		MeasureColumnsFetched: int64(s.MeasureColumnsFetched),
		MeasuresScanned:       s.MeasuresScanned,
		BytesRead:             s.BytesRead,
		PartitionJoins:        s.PartitionJoins,
		RecordsReturned:       s.RecordsReturned,
	}
}
