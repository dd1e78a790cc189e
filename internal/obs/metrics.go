package obs

import "time"

// Metric names, kept in one place so docs, tests and dashboards agree.
const (
	MetricQueryDuration     = "grove_query_duration_seconds"
	MetricBatchesTotal      = "grove_batch_batches_total"
	MetricBatchQueriesTotal = "grove_batch_queries_total"
	MetricBatchWorkersBusy  = "grove_batch_workers_busy"
)

// QueryMetrics is the bundle of engine-side metrics the query package
// records on its hot paths. All fields are plain atomics; recording is
// allocation-free.
type QueryMetrics struct {
	GraphLatency   *Histogram
	PathAggLatency *Histogram

	// Batch-executor metrics: batches/queries submitted and a live gauge of
	// busy workers (pool utilization).
	BatchBatches     *Counter
	BatchQueries     *Counter
	BatchWorkersBusy *Gauge
}

// NewQueryMetrics registers the engine metric set on r and returns the
// handles.
func NewQueryMetrics(r *Registry) *QueryMetrics {
	latency := func(kind string) *Histogram {
		return r.Histogram(MetricQueryDuration+"{"+Labels("kind", kind)+"}",
			"Query wall time in seconds, by kind.", nil)
	}
	return &QueryMetrics{
		GraphLatency:   latency(KindGraph),
		PathAggLatency: latency(KindPathAgg),
		BatchBatches: r.Counter(MetricBatchesTotal,
			"Query batches submitted to the batch executor."),
		BatchQueries: r.Counter(MetricBatchQueriesTotal,
			"Queries submitted through the batch executor."),
		BatchWorkersBusy: r.Gauge(MetricBatchWorkersBusy,
			"Batch-executor workers currently executing a query."),
	}
}

// Record observes one finished query's latency under its kind; the
// histogram's _count is the number of queries of that kind. Unknown kinds
// are ignored.
func (m *QueryMetrics) Record(kind string, d time.Duration) {
	if m == nil {
		return
	}
	secs := d.Seconds()
	switch kind {
	case KindGraph:
		m.GraphLatency.Observe(secs)
	case KindPathAgg:
		m.PathAggLatency.Observe(secs)
	}
}
