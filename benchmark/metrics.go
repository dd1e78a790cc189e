package main

// metricDef declares one reported metric. BENCHMARK.json repeats name, unit
// and direction (and the bound, for end-to-end metrics); TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// endToEnd are the costs a user of grove sees, the same five on every
// workload. fail_frac, the sixth in the issue, is carried by the result
// line's attempted/failed counts (it is 0 on a correct commit, and the
// driver wants end-to-end metrics that are never 0).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"disk_bytes_per_measure", "B/measure", "lower", 0.05},
}

// perLayer are the traced run's metrics, one list for every workload; a
// metric reads 0 on a workload whose call path never enters that layer.
var perLayer = []metricDef{
	{"grove.facade_us", "us", "lower", 0},
	{"shard.scatter_overhead_us", "us", "lower", 0},
	{"shard.scatter_ratio", "ratio", "lower", 0},
	{"query.plan_us", "us", "lower", 0},
	{"query.bitmaps_per_query", "count", "lower", 0},
	{"query.engine_self_us", "us", "lower", 0},
	{"bitmap.and_us", "us", "lower", 0},
	{"bitmap.bytes_per_query", "B", "lower", 0},
	{"colstore.gather_us", "us", "lower", 0},
	{"colstore.measures_per_query", "count", "lower", 0},
	{"colstore.partition_joins_per_query", "count", "lower", 0},
	{"agg.fold_us", "us", "lower", 0},
	{"pagepool.hit_ratio", "ratio", "higher", 0},
	{"pagepool.faults_per_query", "count", "lower", 0},
	{"pagepool.evictions", "count", "lower", 0},
	{"colstore.block_decode_us", "us", "lower", 0},
	{"view.hit_ratio", "ratio", "higher", 0},
	{"view.bitmaps_saved_per_query", "count", "higher", 0},
	{"view.select_s", "s", "lower", 0},
	{"view.materialize_s", "s", "lower", 0},
	{"view.space_ratio", "ratio", "lower", 0},
	{"view.maintain_us_per_record", "us", "lower", 0},
	{"graph.load_us_per_record", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.bytes_per_record", "B", "lower", 0},
	{"wal.scan_us_per_op", "us", "lower", 0},
	{"shard.replay_us_per_op", "us", "lower", 0},
	{"colstore.snapshot_load_s", "s", "lower", 0},
	{"fsio.writes", "count", "lower", 0},
	{"fsio.write_bytes", "B", "lower", 0},
	{"fsio.syncs", "count", "lower", 0},
	{"fsio.reads", "count", "lower", 0},
	{"fsio.read_bytes", "B", "lower", 0},
	{"checkpoint_s", "s", "lower", 0},
	{"unattributed_frac", "frac", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},
}

// workloadDef names one workload; Why is the line BENCHMARK.json carries.
type workloadDef struct {
	Name string
	Unit string // what ops_per_s counts
	Call string // what p50_us times
	Why  string

	// setup builds a read workload's store and loop; nil for the two
	// write-side workloads, which have runners of their own. tol is the
	// oracle's tolerance on aggregate cells (0: bit for bit).
	setup setupFunc
	tol   float64
}

var workloads = []workloadDef{
	{"match-uniform", "query", "Store.Match",
		"1 shard, no views: bitmap fetch, multi-way AND and cover planning only; control for measure, view, shard and WAL changes",
		setupMatchUniform, 0},
	{"agg-uniform", "query", "Store.Aggregate(SUM)",
		"same store, path SUM: measure gather and fold dominate; the in-memory twin of agg-paged-1pct",
		setupAggUniform, 0},
	{"agg-zipf-views", "query", "Store.Aggregate(SUM)",
		"skewed stream over graph and aggregate views: rewriting does the work; selection and materialisation land in setup_s and heap_mb",
		setupAggZipfViews, viewTolerance},
	{"agg-paged-1pct", "query", "Store.Aggregate(SUM)",
		"saved store reopened with a buffer pool of 1% of the measures: every query faults and decodes blocks",
		setupAggPaged, 0},
	{"batch-sharded", "query", "ExecuteBatch(64)+AggregateBatch(64)",
		"4 shards on 2 cores: fan-out, per-shard queue wait and bit-exact merge on top of the same queries as workloads 1-2",
		setupBatchSharded, 0},
	{"ingest-wal", "record", "Store.Append",
		"write side: registry, column append, incremental view maintenance, WAL framing and group commit at fsync=interval",
		nil, viewTolerance},
	{"recover-wal", "replayed WAL op", "LoadStore+Close",
		"recovery from bootstrap snapshot plus un-checkpointed log, repeated for a median; ROADMAP 2(a)",
		nil, viewTolerance},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
