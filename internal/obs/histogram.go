package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBuckets spans grove's query-latency range: from
// cache-hit microseconds up to multi-second full-dataset aggregations.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// semantics. Observe is lock-free (atomic adds) and allocation-free, so it
// sits on the per-query hot path.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Int64   // running sum in billionths (nanoseconds for seconds)
}

// NewHistogram returns a histogram over the given upper bounds (nil selects
// DefaultLatencyBuckets). Bounds are copied and sorted.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
	}
}

// Observe records one value.
//
//grove:hotpath
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~12) and the scan is
	// branch-predictable, beating a binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(math.Round(v * 1e9)))
}

// Count returns the total number of observations: the sum of the buckets,
// so Observe pays one counter add, not two.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values. It is kept in billionths, so
// a sum of durations in seconds is exact to the nanosecond, and Observe pays
// one add for it instead of a compare-and-swap loop.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e9 }

// Buckets returns the upper bounds and the cumulative count at each bound
// (the +Inf bucket equals Count()). Used by the exposition and tests.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = h.bounds
	cumulative = make([]int64, len(h.counts))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}
