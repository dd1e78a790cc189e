// Package obs is grove's observability layer: a concurrency-safe metrics
// registry (counters, gauges, fixed-bucket latency histograms) with
// Prometheus text exposition, and span-based query-lifecycle tracing kept in
// a ring buffer of recent traces.
//
// The package is stdlib-only and dependency-free so every layer of grove —
// from the column store's I/O tracker up to the CLI — can feed it. All
// metric operations after registration are lock-free atomics, so the hot
// query path pays a few atomic adds and no allocations; tracing allocates
// (one trace per query) and is therefore opt-in.
//
// Per-span I/O deltas are computed from the column store's shared cumulative
// tracker: when queries run concurrently the deltas of one trace may include
// another query's fetches. For exact attribution — EXPLAIN ANALYZE — run the
// query without concurrent load.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
//
//grove:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the exposition to stay Prometheus-legal).
//
//grove:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer-valued metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//grove:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
//
//grove:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates the exposition format of a registered metric.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindCounterVecFunc
	kindGaugeVecFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterVecFunc:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVecFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered time series (or, for vec funcs, a family of them
// enumerated at scrape time).
type metric struct {
	family string // metric name without labels
	labels string // label pairs inside the braces, "" if none
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64            // kindCounterFunc / kindGaugeFunc
	vecFn   func() map[string]float64 // label-set → value, enumerated per scrape
}

// Registry holds named metrics and renders them in Prometheus text format.
// Registration takes a lock; the returned metric handles are lock-free.
// Registering the same full name twice returns the original handle, so
// packages can idempotently declare the metrics they touch.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // full name → metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// splitName splits `family{labels}` into its parts. A bare name has no
// labels.
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// register installs (or retrieves) a metric under its full name. It panics
// on a kind conflict — metric names are compile-time constants in grove, so
// a conflict is a programming error, not an operational condition.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind.promType(), m.kind.promType()))
		}
		return m
	}
	m := &metric{family: family, labels: labels, help: help, kind: kind}
	r.metrics[name] = m
	return m
}

// Counter registers (or retrieves) a counter. The name may carry a fixed
// label set, e.g. `grove_view_uses_total{view="v1"}`.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or retrieves) a histogram with the given upper
// bucket bounds (ascending; +Inf is implicit). Nil bounds select
// DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, help, kindHistogram)
	if m.hist == nil {
		m.hist = NewHistogram(bounds)
	}
	return m.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counters owned elsewhere (e.g. the buffer pool's hit count).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounterFunc).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc).fn = fn
}

// CounterVecFunc registers a family of counters enumerated at scrape time:
// fn returns label-set → value, where each key is a pre-rendered label list
// (use Labels). Used for per-view usage counts, whose label values are only
// known at runtime.
func (r *Registry) CounterVecFunc(family, help string, fn func() map[string]float64) {
	r.register(family, help, kindCounterVecFunc).vecFn = fn
}

// GaugeVecFunc is CounterVecFunc for gauge semantics.
func (r *Registry) GaugeVecFunc(family, help string, fn func() map[string]float64) {
	r.register(family, help, kindGaugeVecFunc).vecFn = fn
}

// Labels renders key/value pairs as a Prometheus label list (without
// braces), escaping backslashes, quotes and newlines in the values.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// snapshotMetrics returns the registered metrics grouped by family in
// sorted order (families sorted by name, series within a family by label).
func (r *Registry) snapshotMetrics() [][]*metric {
	r.mu.Lock()
	all := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		all = append(all, m)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].labels < all[j].labels
	})
	var groups [][]*metric
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].family == all[i].family {
			j++
		}
		groups = append(groups, all[i:j])
		i = j
	}
	return groups
}
