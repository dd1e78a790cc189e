package grove

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"grove/internal/colstore"
	"grove/internal/obs"
	"grove/internal/query"
)

// Observability re-exports. The obs package is stdlib-only; these aliases
// keep the public API a single import.
type (
	// MetricsRegistry holds named counters, gauges and latency histograms and
	// renders them in Prometheus text format (version 0.0.4).
	MetricsRegistry = obs.Registry
	// MetricsServer is the HTTP server started by ServeMetrics.
	MetricsServer = obs.Server
	// Trace is the recorded lifecycle of one query: per-phase spans with wall
	// time and column-store I/O deltas.
	Trace = obs.Trace
	// TraceSpan is one timed phase of a trace.
	TraceSpan = obs.Span
	// ExplainAnalysis pairs a query's predicted plan with the observed
	// per-phase timings and I/O of one real execution.
	ExplainAnalysis = query.ExplainAnalysis
)

// Store-level metric families (engine families live in internal/obs).
const (
	MetricIOBitmapFetches   = "grove_io_bitmap_fetches_total"
	MetricIOMeasureFetches  = "grove_io_measure_fetches_total"
	MetricIOMeasuresScanned = "grove_io_measures_scanned_total"
	MetricIOBytesRead       = "grove_io_bytes_read_total"
	MetricIOPartitionJoins  = "grove_io_partition_joins_total"
	MetricIORecordsReturned = "grove_io_records_returned_total"

	MetricViewUses = "grove_view_uses_total"

	MetricPersistRecoveries = "grove_persist_recoveries_total"

	MetricStoreRecords        = "grove_store_records"
	MetricStoreDeleted        = "grove_store_deleted_records"
	MetricStoreEdges          = "grove_store_distinct_edges"
	MetricStoreSizeBytes      = "grove_store_size_bytes"
	MetricStoreGraphViews     = "grove_store_graph_views"
	MetricStoreAggViews       = "grove_store_aggregate_views"
	MetricStorePartitions     = "grove_store_partitions"
	MetricTracesRecordedTotal = "grove_traces_recorded_total"

	// Per-shard families, labelled {shard="0"}, {shard="1"}, … (DESIGN.md §12).
	MetricStoreShards     = "grove_store_shards"
	MetricShardRecords    = "grove_shard_records"
	MetricShardQueueDepth = "grove_shard_queue_depth"
	MetricShardSizeBytes  = "grove_shard_size_bytes"

	// Scatter-gather phase latencies (DESIGN.md §8): per-shard dispatch →
	// execution-start wait, and the coordinator's merge phase.
	MetricShardQueueWait = "grove_shard_queue_wait_seconds"
	MetricScatterMerge   = "grove_scatter_merge_seconds"

	// Paged storage & buffer pool (DESIGN.md §13). Pool counters sum across
	// the per-shard pools; storage gauges sum across shards.
	MetricPagePoolHits          = "grove_pagepool_hits_total"
	MetricPagePoolMisses        = "grove_pagepool_misses_total"
	MetricPagePoolEvictions     = "grove_pagepool_evictions_total"
	MetricPagePoolResidentBytes = "grove_pagepool_resident_bytes"
	MetricPagePoolBudgetBytes   = "grove_pagepool_budget_bytes"
	MetricBlocksSkipped         = "grove_scan_blocks_skipped_total"
	MetricStorageLogicalBytes   = "grove_storage_logical_bytes"
	MetricStorageOnDiskBytes    = "grove_storage_ondisk_bytes"
	MetricStorageResidentBytes  = "grove_storage_resident_bytes"

	// Write-ahead log (DESIGN.md §14). Counters sum across the per-shard
	// logs; the LSN gauge is per shard.
	MetricWALAppends       = "grove_wal_appends_total"
	MetricWALAppendedBytes = "grove_wal_appended_bytes_total"
	MetricWALFsyncs        = "grove_wal_fsyncs_total"
	MetricWALReplayedOps   = "grove_wal_replayed_ops_total"
	MetricWALTruncations   = "grove_wal_truncations_total"
	MetricWALSkippedLogs   = "grove_wal_skipped_logs_total"
	MetricWALNextLSN       = "grove_wal_next_lsn"
)

// Metrics returns the store's metrics registry, creating and wiring it on
// first call: engine latency histograms, readers of the column store's I/O
// counters, view usage and store sizes.
// Recording is allocation-free; a store that never calls Metrics pays
// nothing. First call it before serving queries.
func (s *Store) Metrics() *MetricsRegistry {
	if s.metrics != nil {
		return s.metrics
	}
	r := obs.NewRegistry()
	s.metrics = r
	// One shared metrics bundle serves every shard engine: the counters are
	// atomic, so scatter-gathered sub-queries record into them concurrently.
	s.coord.SetMetrics(obs.NewQueryMetrics(r))

	// The I/O families read the shard trackers at scrape time, so they are
	// the counts IOStatsSnapshot returns, from when the store was opened.
	r.CounterFunc(MetricIOBitmapFetches, "Bitmap columns fetched (the paper's structural cost unit).",
		func() float64 { return float64(s.coord.IOStats().BitmapColumnsFetched) })
	r.CounterFunc(MetricIOMeasureFetches, "Measure columns fetched.",
		func() float64 { return float64(s.coord.IOStats().MeasureColumnsFetched) })
	r.CounterFunc(MetricIOMeasuresScanned, "Individual measure values materialized.",
		func() float64 { return float64(s.coord.IOStats().MeasuresScanned) })
	r.CounterFunc(MetricIOBytesRead, "Physical payload bytes touched.",
		func() float64 { return float64(s.coord.IOStats().BytesRead) })
	r.CounterFunc(MetricIOPartitionJoins, "Record-id joins across vertical partitions.",
		func() float64 { return float64(s.coord.IOStats().PartitionJoins) })
	r.CounterFunc(MetricIORecordsReturned, "Graph records in query answers.",
		func() float64 { return float64(s.coord.IOStats().RecordsReturned) })

	r.CounterFunc(MetricPersistRecoveries, "Loads that fell back to an older snapshot generation because the installed one was missing or damaged (process-wide).",
		func() float64 { return float64(colstore.PersistRecoveries()) })

	r.CounterVecFunc(MetricViewUses, "Times each materialized view answered part of a query.",
		func() map[string]float64 {
			usage := s.coord.ViewUsage()
			out := make(map[string]float64, len(usage))
			for name, n := range usage {
				out[obs.Labels("view", name)] = float64(n)
			}
			return out
		})

	// Store gauges aggregate across every shard — a sharded store reporting
	// only shard 0 would understate the store by a factor of N.
	r.GaugeFunc(MetricStoreRecords, "Stored graph records (all shards).",
		func() float64 { return float64(s.coord.NumRecords()) })
	r.GaugeFunc(MetricStoreDeleted, "Soft-deleted records (all shards).",
		func() float64 { return float64(s.coord.NumDeleted()) })
	r.GaugeFunc(MetricStoreEdges, "Distinct structural elements registered.",
		func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc(MetricStoreSizeBytes, "In-memory payload size (base columns + views, all shards).",
		func() float64 { return float64(s.coord.SizeBytes()) })
	r.GaugeFunc(MetricStoreGraphViews, "Materialized graph views.",
		func() float64 { return float64(len(s.rel.Views())) })
	r.GaugeFunc(MetricStoreAggViews, "Materialized aggregate views.",
		func() float64 { return float64(len(s.rel.AggViews())) })
	r.GaugeFunc(MetricStorePartitions, "Vertical partitions of the master relation (widest shard).",
		func() float64 { return float64(s.coord.MaxPartitions()) })
	r.CounterFunc(MetricTracesRecordedTotal, "Query traces recorded (including ones evicted from the ring).",
		func() float64 { return float64(s.coord.Traces().Total()) })

	r.GaugeFunc(MetricStoreShards, "Shards the record collection is partitioned into.",
		func() float64 { return float64(s.coord.NumShards()) })
	r.GaugeVecFunc(MetricShardRecords, "Stored graph records per shard.",
		func() map[string]float64 {
			out := make(map[string]float64, s.coord.NumShards())
			for i := 0; i < s.coord.NumShards(); i++ {
				out[obs.Labels("shard", strconv.Itoa(i))] = float64(s.coord.Unit(i).Rel.NumRecords())
			}
			return out
		})
	r.GaugeVecFunc(MetricShardQueueDepth, "Scatter rounds (single queries, or whole batches) queued or running per shard.",
		func() map[string]float64 {
			out := make(map[string]float64, s.coord.NumShards())
			for i := 0; i < s.coord.NumShards(); i++ {
				out[obs.Labels("shard", strconv.Itoa(i))] = float64(s.coord.Unit(i).Pending())
			}
			return out
		})
	r.GaugeVecFunc(MetricShardSizeBytes, "In-memory payload size per shard.",
		func() map[string]float64 {
			out := make(map[string]float64, s.coord.NumShards())
			for i := 0; i < s.coord.NumShards(); i++ {
				out[obs.Labels("shard", strconv.Itoa(i))] = float64(s.coord.Unit(i).Rel.SizeBytes())
			}
			return out
		})

	// Scatter-gather phase histograms: one queue-wait series per shard plus
	// the coordinator's merge latency. Registered eagerly (even for a
	// single-shard store, where they stay at zero) so dashboards see stable
	// families across reshards.
	queueWait := make([]*obs.Histogram, s.coord.NumShards())
	for i := range queueWait {
		queueWait[i] = r.Histogram(
			MetricShardQueueWait+"{"+obs.Labels("shard", strconv.Itoa(i))+"}",
			"Scatter-gather wait from dispatch to sub-query start, per shard; a batch observes once per shard, at its first sub-query there.", nil)
	}
	mergeDur := r.Histogram(MetricScatterMerge,
		"Coordinator merge-phase latency of scatter-gathered queries.", nil)
	s.coord.SetScatterHistograms(queueWait, mergeDur)

	// Paged storage & buffer pool. The counters live in the per-shard pools
	// (summed by Coordinator.StorageStats), except blocks-skipped which is a
	// process-wide colstore counter like persist-recoveries above.
	r.CounterFunc(MetricPagePoolHits, "Buffer pool block faults served by a resident decoded block (all shards).",
		func() float64 { return float64(s.coord.StorageStats().Pool.Hits) })
	r.CounterFunc(MetricPagePoolMisses, "Buffer pool block faults that decoded the block from the snapshot (all shards).",
		func() float64 { return float64(s.coord.StorageStats().Pool.Misses) })
	r.CounterFunc(MetricPagePoolEvictions, "Decoded blocks evicted by the clock sweep (all shards).",
		func() float64 { return float64(s.coord.StorageStats().Pool.Evictions) })
	r.GaugeFunc(MetricPagePoolResidentBytes, "Bytes the buffer pools own: the chunks of cached and reserved blocks, and free chunks kept for later faults (all shards).",
		func() float64 { return float64(s.coord.StorageStats().Pool.ResidentBytes) })
	r.GaugeFunc(MetricPagePoolBudgetBytes, "Configured buffer pool budget (all shards; 0 = unbounded).",
		func() float64 { return float64(s.coord.StorageStats().Pool.BudgetBytes) })
	r.CounterFunc(MetricBlocksSkipped, "Measure blocks skipped by zone-map pruning during scalar MIN/MAX scans (process-wide).",
		func() float64 { return float64(colstore.BlocksSkipped()) })
	r.GaugeFunc(MetricStorageLogicalBytes, "Logical measure-column bytes: what the columns represent, regardless of residency (all shards).",
		func() float64 { return float64(s.coord.StorageStats().LogicalBytes) })
	r.GaugeFunc(MetricStorageOnDiskBytes, "Measure-column bytes of the paged prefixes' blocks in the loaded snapshot (all shards).",
		func() float64 { return float64(s.coord.StorageStats().OnDiskBytes) })
	r.GaugeFunc(MetricStorageResidentBytes, "Measure-column bytes held in memory: the columns' tails, their prefixes' block indexes and the pooled blocks (all shards).",
		func() float64 { return float64(s.coord.StorageStats().ResidentBytes) })

	// Write-ahead log. The families exist (at zero) even without WAL
	// attached, so dashboards see them the moment EnableWAL turns on.
	r.CounterFunc(MetricWALAppends, "Ops appended to the write-ahead logs (all shards).",
		func() float64 { return float64(s.coord.WALStats().Appends) })
	r.CounterFunc(MetricWALAppendedBytes, "Frame bytes appended to the write-ahead logs (all shards).",
		func() float64 { return float64(s.coord.WALStats().AppendedBytes) })
	r.CounterFunc(MetricWALFsyncs, "Fsyncs issued by the write-ahead logs; with group commit one fsync can acknowledge many appends (all shards).",
		func() float64 { return float64(s.coord.WALStats().Fsyncs) })
	r.CounterFunc(MetricWALReplayedOps, "Logged ops replayed atop the snapshot during Load (all shards, this store's lifetime).",
		func() float64 { return float64(s.coord.WALStats().ReplayedOps) })
	r.CounterFunc(MetricWALTruncations, "Log truncations: checkpoints that folded the log into a snapshot and reset it (all shards).",
		func() float64 { return float64(s.coord.WALStats().Resets) })
	r.CounterFunc(MetricWALSkippedLogs, "Logs ignored at Load because their header did not pin the loaded snapshot generation (stale or foreign logs).",
		func() float64 { return float64(s.coord.WALStats().SkippedLogs) })
	r.GaugeVecFunc(MetricWALNextLSN, "Next log sequence number per shard (0 until WAL is enabled).",
		func() map[string]float64 {
			st := s.coord.WALStats()
			out := make(map[string]float64, len(st.Shards))
			for i, sh := range st.Shards {
				out[obs.Labels("shard", strconv.Itoa(i))] = float64(sh.NextLSN)
			}
			return out
		})
	return s.metrics
}

// EnableTracing attaches a ring buffer recording one lifecycle trace per
// query (capacity ≤ 0 selects a default of 128). Tracing costs one
// allocation per query plus one per phase span, which is why it is opt-in;
// with tracing off the query path pays a single nil check.
// On a sharded store a scatter-gathered query records one hierarchical root
// trace — coordinator fan-out / per-shard queue-wait / merge spans, with each
// shard engine's trace attached as a child — while a batch, which does not
// fan out (its workers run each query's shard sub-queries inline), records
// one flat shard-labelled trace per sub-query into the same ring.
func (s *Store) EnableTracing(capacity int) {
	s.coord.SetTraces(obs.NewTraceRing(capacity))
}

// DisableTracing detaches the trace ring.
func (s *Store) DisableTracing() { s.coord.SetTraces(nil) }

// RecentTraces returns the recorded traces, newest first (nil when tracing
// was never enabled). Traces marshal to JSON; a failed query's trace carries
// its error text.
func (s *Store) RecentTraces() []Trace { return s.coord.Traces().Recent() }

// ServeMetrics starts an HTTP server on addr (use ":0" for an ephemeral
// port; read it back with Addr) exposing:
//
//	/metrics  the registry in Prometheus text format
//	/traces   the recent query traces as JSON, newest first
//
// The registry is created on first call (see Metrics). Close the returned
// server to stop it.
func (s *Store) ServeMetrics(addr string) (*MetricsServer, error) {
	reg := s.Metrics()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := s.RecentTraces()
		if traces == nil {
			traces = []Trace{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
	return obs.Serve(addr, mux)
}

// ExplainAnalyze computes a graph query's plan and executes it once with
// tracing forced on, returning predicted cost and observed per-phase wall
// time and I/O together. The observed bitmap-fetch count equals the plan's
// BitmapsFetched. On a sharded store the
// analysis's root trace carries one child per shard and its observed I/O is
// the exact sum over the children (see Coordinator.ExplainAnalyze).
func (s *Store) ExplainAnalyze(g *Graph) (*ExplainAnalysis, error) {
	return s.coord.ExplainAnalyze(context.Background(), query.NewGraphQuery(g))
}
