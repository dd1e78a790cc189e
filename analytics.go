package grove

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// This file implements the consolidation layer of §3.4: "an analytical query
// can use the result of a path aggregation and further consolidate the
// computed aggregates in order to compute higher level statistics, such as
// the average delivery time and the standard deviation for the retrieved
// records based on the order type". The per-record aggregates are flat data,
// so these operators stay in plain relational-style Go.

// Summary holds descriptive statistics over a set of per-record aggregates.
type Summary struct {
	Count  int
	Sum    float64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize consolidates a slice of per-record aggregates, skipping NULLs
// (NaN). An all-NULL input yields a zero Count.
func Summarize(values []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var sumSq float64
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		s.Count++
		s.Sum += v
		sumSq += v * v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	if s.Count == 0 {
		return Summary{}
	}
	s.Mean = s.Sum / float64(s.Count)
	variance := sumSq/float64(s.Count) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0 // guard against floating-point cancellation
	}
	s.StdDev = math.Sqrt(variance)
	return s
}

// AveragePath computes the algebraic AVG along a path from its distributive
// parts (§5.1.2: "for algebraic aggregate functions one can store the
// constituent distributive sub-aggregates — sum and count for the average").
// It returns one value per matching record (NaN for NULL paths), aligned
// with the returned record ids. It runs two statements on st, a SUM and a
// COUNT, and each reuses any SUM or COUNT aggregate views on its own.
func AveragePath(ctx context.Context, st *Store, nodes ...string) (recordIDs []uint32, avgs []float64, err error) {
	if len(nodes) < 2 {
		return nil, nil, errors.New("grove: a path aggregation needs at least 2 nodes")
	}
	g := PathOf(nodes...).ToGraph()
	sum, err := st.Execute(ctx, AggregateOn(g, Sum, ""))
	if err != nil {
		return nil, nil, err
	}
	count, err := st.Execute(ctx, AggregateOn(g, Count, ""))
	if err != nil {
		return nil, nil, err
	}
	sumRes, countRes := sum.Agg, count.Agg
	if len(sumRes.RecordIDs) != len(countRes.RecordIDs) {
		return nil, nil, fmt.Errorf("grove: sum/count answers diverged (%d vs %d records)",
			len(sumRes.RecordIDs), len(countRes.RecordIDs))
	}
	avgs = make([]float64, len(sumRes.RecordIDs))
	for i := range avgs {
		sum, count := sumRes.Values[0][i], countRes.Values[0][i]
		if math.IsNaN(sum) || math.IsNaN(count) || count == 0 {
			avgs[i] = math.NaN()
		} else {
			avgs[i] = sum / count
		}
	}
	return sumRes.RecordIDs, avgs, nil
}

// SummarizeByTag groups a path-aggregation result by the values of a tag key
// (e.g. average and standard deviation of delivery time per order type,
// §3.4) and consolidates each group. Records without the tag fall into the
// "" group. Multi-path results are folded across paths first.
func (s *Store) SummarizeByTag(res *AggResult, key string) (map[string]Summary, error) {
	if res == nil {
		return nil, fmt.Errorf("grove: nil aggregation result")
	}
	folded := res.FoldAcrossPaths()
	groups := make(map[string][]float64)
	assigned := make([]bool, len(res.RecordIDs))
	for _, value := range s.coord.TagValues(key) {
		tagged := s.coord.TaggedWith(key, value)
		for i, rec := range res.RecordIDs {
			if tagged.Contains(rec) {
				groups[value] = append(groups[value], folded[i])
				assigned[i] = true
			}
		}
	}
	for i := range res.RecordIDs {
		if !assigned[i] {
			groups[""] = append(groups[""], folded[i])
		}
	}
	out := make(map[string]Summary, len(groups))
	for value, vals := range groups {
		out[value] = Summarize(vals)
	}
	return out, nil
}
